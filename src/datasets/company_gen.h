// Copyright 2026 The claks Authors.
//
// Deterministic, scalable synthetic company database with the paper's
// conceptual schema. The paper evaluates only on its 9-tuple example;
// this generator exercises the same code paths at realistic sizes for
// tests and benchmarks (see DESIGN.md "Substitutions").

#ifndef CLAKS_DATASETS_COMPANY_GEN_H_
#define CLAKS_DATASETS_COMPANY_GEN_H_

#include <memory>

#include "common/result.h"
#include "er/er_to_relational.h"
#include "relational/database.h"

namespace claks {

struct CompanyGenOptions {
  size_t num_departments = 5;
  size_t employees_per_department = 10;
  size_t projects_per_department = 3;
  /// Expected number of projects each employee works on (Poisson-ish,
  /// sampled uniformly in [0, 2*avg]).
  double avg_assignments_per_employee = 1.5;
  /// Probability an employee has 1..3 dependents.
  double dependent_probability = 0.3;
  uint64_t seed = 42;

  /// Options scaled `factor`x from the defaults: the department count
  /// grows linearly while per-department sizes stay fixed, so total rows
  /// and FK edges scale linearly with `factor`. The benchmarks and the
  /// join-index regression tests use these rungs; factor 0 is treated
  /// as 1.
  static CompanyGenOptions AtScale(size_t factor);
};

struct GeneratedDataset {
  std::unique_ptr<Database> db;
  ERSchema er_schema;
  ErRelationalMapping mapping;
};

/// Builds the dataset. Same options + seed always produce the same
/// database. Department/project descriptions are drawn from a topic
/// vocabulary so multi-table keyword matches (the paper's "XML" case)
/// occur naturally.
Result<GeneratedDataset> GenerateCompanyDataset(
    const CompanyGenOptions& options = {});

}  // namespace claks

#endif  // CLAKS_DATASETS_COMPANY_GEN_H_
