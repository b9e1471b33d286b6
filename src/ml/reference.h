#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ml/algorithms.h"

namespace dana::ml {

/// Row-major training set: one row per tuple (features, then label for the
/// supervised algorithms; LRMF rows are rating vectors with no label).
struct Dataset {
  std::vector<std::vector<double>> rows;
  uint32_t feature_dims = 0;
  bool has_label = true;
};

/// Hand-written double-precision reference implementations of the four
/// algorithms, independent of the DSL/compiler stack. They implement
/// mini-batch gradient descent with the same batch semantics as the
/// generated accelerators (sum gradients over `merge_coef` tuples, average,
/// apply), so end-to-end tests can require the accelerator-trained model to
/// match these within fp32 tolerance. The MADlib-style CPU baselines also
/// execute through this code path.
class ReferenceTrainer {
 public:
  ReferenceTrainer(AlgoKind kind, AlgoParams params);

  /// Runs `epochs` (or params.epochs when 0) over `data`; returns the
  /// flattened final model ([d] for the regressions, [d*rank] row-major
  /// for LRMF).
  dana::Result<std::vector<double>> Train(const Dataset& data,
                                          uint32_t epochs = 0) const;

  /// One batch update applied to `model` in place (exposed for testing
  /// batch-for-batch equivalence).
  dana::Status BatchUpdate(const std::vector<std::vector<double>>& batch,
                           std::vector<double>* model) const;

  /// Loss of `model` on `data`: MSE (linear), log-loss (logistic),
  /// regularized hinge (SVM), reconstruction MSE (LRMF).
  ///
  /// Each row's terms (one per row, d per row for LRMF) are computed on the
  /// process's worker team (dana::TeamLease), at most one worker per 2^16
  /// row values, a step of about 2^15 terms at a time. The total then
  /// adds them in row order, as a one-row-at-a-time loop does, so the loss
  /// bits do not depend on the thread count.
  double Loss(const Dataset& data, const std::vector<double>& model) const;

  /// Flattened model size.
  uint64_t ModelSize() const;

 private:
  AlgoKind kind_;
  AlgoParams params_;
};

}  // namespace dana::ml
