#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "dsl/algo.h"

namespace dana::ml {

/// ML algorithm families evaluated in the paper (Table 3).
enum class AlgoKind : uint8_t {
  kLinearRegression,
  kLogisticRegression,
  kSvm,
  kLowRankMF,
};

/// Name for reporting ("Linear Regression", ...).
std::string AlgoKindName(AlgoKind kind);

/// Hyper-parameters of a UDF instance.
struct AlgoParams {
  /// Feature-vector width (for LRMF: the item count, i.e. rating-row width).
  uint32_t dims = 0;
  /// LRMF factor rank.
  uint32_t rank = 10;
  /// Learning rate (meta).
  double learning_rate = 0.1;
  /// SVM regularization strength.
  double lambda = 0.01;
  /// Merge coefficient: parallel update-rule instances whose results are
  /// combined per batch.
  uint32_t merge_coef = 16;
  /// Epoch budget.
  uint32_t epochs = 1;
  /// Optional convergence threshold on the merged-gradient norm
  /// (<= 0 disables setConvergence).
  double convergence_norm = 0.0;
};

/// Builds the DSL UDF for one algorithm family (paper §4.3 style):
///
/// - Linear regression: squared loss, batched gradient descent —
///   grad = (w.x - y) x, merged with "+", averaged, applied to the model.
/// - Logistic regression: grad = (sigmoid(w.x) - y) x.
/// - SVM: hinge loss with L2 regularization —
///   grad = lambda w - [y w.x < 1] y x.
/// - Low-rank matrix factorization: projection-form update on the item
///   factor matrix R of rank `rank`: for a rating row r,
///   lu = sigma(r * R, 0) projects the row onto the factors,
///   err = sigma(R * lu, 1) - r is the reconstruction error, and
///   R <- R - lr (err x lu). (The coordinate-indexed MF update is not
///   expressible in the index-free DSL; this projection form preserves the
///   compute shape: d*rank work per tuple with massive intra-rule
///   parallelism, matching the paper's LRMF observations.)
dana::Result<std::unique_ptr<dsl::Algo>> BuildAlgo(AlgoKind kind,
                                                   const AlgoParams& params);

/// Deterministic initial model for one algorithm instance, shared by every
/// system in the reproduction so trained models are comparable. The
/// supervised families start at zero (as MADlib does); LRMF starts at small
/// pseudo-random factors because the all-zero factor matrix is a saddle
/// point of the reconstruction objective (zero gradient forever).
std::vector<float> InitialModel(AlgoKind kind, const AlgoParams& params,
                                uint64_t seed = 0xDA7A);

}  // namespace dana::ml
