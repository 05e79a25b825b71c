// Copyright 2026 The claks Authors.
//
// claks_perfbench: one workload per run.
//
//   claks_perfbench --workload browse|analyst|churn --seed N --seconds S
//                   --trace 0|1 [--out-dir DIR]
//
// Prints `# ...` notes (configuration, host, per-class numbers) and, as
// the last line, one JSON object with `correct`, `attempted`, `failed`
// and `metrics`: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. The harness self-tests run first, every time.
// Exits 1 when a self-test or a correctness check fails.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: claks_perfbench --workload "
               "browse|analyst|churn --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  perfbench::Output out;
  perfbench::RunSelfTests(&out);
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  perfbench::NoteHost(&out);
  out.Note("seed " + std::to_string(args.seed) + " seconds " +
           std::to_string(args.seconds) + " trace " +
           std::to_string(args.trace ? 1 : 0));
  if (!out.correct) {
    perfbench::PrintOutput(out);
    return 1;
  }
  if (args.workload == "browse") {
    perfbench::RunBrowse(args, &out);
  } else if (args.workload == "analyst") {
    perfbench::RunAnalyst(args, &out);
  } else if (args.workload == "churn") {
    perfbench::RunChurn(args, &out);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (out.attempted == 0) out.Fail("no operation attempted");
  perfbench::PrintOutput(out);
  return out.correct ? 0 : 1;
}
