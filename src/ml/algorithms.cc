#include "ml/algorithms.h"

#include <cmath>

#include "common/random.h"
#include "dsl/expr.h"

namespace dana::ml {

using dsl::Algo;
using dsl::Expr;
using dsl::OpKind;

std::string AlgoKindName(AlgoKind kind) {
  switch (kind) {
    case AlgoKind::kLinearRegression:
      return "Linear Regression";
    case AlgoKind::kLogisticRegression:
      return "Logistic Regression";
    case AlgoKind::kSvm:
      return "SVM";
    case AlgoKind::kLowRankMF:
      return "Low Rank Matrix Factorization";
  }
  return "?";
}

namespace {

void Finish(Algo* algo, const AlgoParams& params, const Expr& grad_merged) {
  algo->SetEpochs(params.epochs);
  if (params.convergence_norm > 0) {
    auto conv_factor = algo->Meta("conv_factor", params.convergence_norm);
    auto n = dsl::Norm(grad_merged, 0);
    algo->SetConvergence(n < conv_factor);
  }
}

Result<std::unique_ptr<Algo>> BuildLinear(const AlgoParams& params,
                                          bool logistic) {
  auto algo = std::make_unique<Algo>(logistic ? "logisticR" : "linearR");
  auto mo = algo->Model("mo", {params.dims});
  auto in = algo->Input("in", {params.dims});
  auto out = algo->Output("out");
  auto lr = algo->Meta("lr", params.learning_rate);
  auto inv_coef = algo->Meta("inv_coef", 1.0 / params.merge_coef);

  // Update rule (one training tuple).
  auto s = dsl::Sigma(mo * in, 0);
  auto pred = logistic ? dsl::Sigmoid(s) : s;
  auto er = pred - out;
  auto grad = er * in;

  // Merge function: sum gradients across parallel threads, then average —
  // batched gradient descent (§4.3 first merge variant).
  auto g = algo->Merge(grad, params.merge_coef, OpKind::kAdd);
  auto g_avg = g * inv_coef;
  auto mo_up = mo - lr * g_avg;
  DANA_RETURN_NOT_OK(algo->SetModel(mo, mo_up));
  Finish(algo.get(), params, g);
  return algo;
}

Result<std::unique_ptr<Algo>> BuildSvm(const AlgoParams& params) {
  auto algo = std::make_unique<Algo>("svm");
  auto mo = algo->Model("mo", {params.dims});
  auto in = algo->Input("in", {params.dims});
  auto out = algo->Output("out");  // labels in {-1, +1}
  auto lr = algo->Meta("lr", params.learning_rate);
  auto lambda = algo->Meta("lambda", params.lambda);
  auto inv_coef = algo->Meta("inv_coef", 1.0 / params.merge_coef);

  // Hinge-loss subgradient: lambda*w - [y (w.x) < 1] y x.
  auto s = dsl::Sigma(mo * in, 0);
  auto margin = out * s;
  auto violating = margin < 1.0;  // 1.0 when the tuple is inside the margin
  auto grad = lambda * mo - violating * (out * in);

  auto g = algo->Merge(grad, params.merge_coef, OpKind::kAdd);
  auto mo_up = mo - lr * (g * inv_coef);
  DANA_RETURN_NOT_OK(algo->SetModel(mo, mo_up));
  Finish(algo.get(), params, g);
  return algo;
}

Result<std::unique_ptr<Algo>> BuildLrmf(const AlgoParams& params) {
  auto algo = std::make_unique<Algo>("lrmf");
  auto R = algo->Model("R", {params.dims, params.rank});
  auto r = algo->Input("r", {params.dims});  // one user's rating row
  auto lr = algo->Meta("lr", params.learning_rate);
  auto inv_coef = algo->Meta("inv_coef", 1.0 / params.merge_coef);
  // Normalizing the projection by the row width keeps gradient magnitudes
  // width-independent, so one learning rate works across catalogue sizes.
  auto inv_d = algo->Meta("inv_d", 1.0 / params.dims);

  // Project the rating row onto the item factors (user factor on the fly),
  // reconstruct, and descend on the reconstruction error.
  auto lu = dsl::Sigma(r * R, 0) * inv_d;  // [rank]
  auto pred = dsl::Sigma(R * lu, 1);       // [dims]
  auto er = pred - r;                      // [dims]
  auto grad = er * lu;                     // outer product -> [dims][rank]

  auto g = algo->Merge(grad, params.merge_coef, OpKind::kAdd);
  auto R_up = R - lr * (g * inv_coef);
  DANA_RETURN_NOT_OK(algo->SetModel(R, R_up));
  Finish(algo.get(), params, g);
  return algo;
}

}  // namespace

Result<std::unique_ptr<Algo>> BuildAlgo(AlgoKind kind,
                                        const AlgoParams& params) {
  if (params.dims == 0) {
    return Status::InvalidArgument("algo needs dims >= 1");
  }
  if (params.merge_coef == 0) {
    return Status::InvalidArgument("merge coefficient must be >= 1");
  }
  switch (kind) {
    case AlgoKind::kLinearRegression:
      return BuildLinear(params, /*logistic=*/false);
    case AlgoKind::kLogisticRegression:
      return BuildLinear(params, /*logistic=*/true);
    case AlgoKind::kSvm:
      return BuildSvm(params);
    case AlgoKind::kLowRankMF:
      return BuildLrmf(params);
  }
  return Status::InvalidArgument("unknown algorithm kind");
}

std::vector<float> InitialModel(AlgoKind kind, const AlgoParams& params,
                                uint64_t seed) {
  const uint64_t size =
      kind == AlgoKind::kLowRankMF
          ? static_cast<uint64_t>(params.dims) * params.rank
          : params.dims;
  std::vector<float> model(size, 0.0f);
  if (kind == AlgoKind::kLowRankMF) {
    Rng rng(seed);
    const double scale = 0.3 / std::sqrt(static_cast<double>(params.rank));
    for (auto& v : model) v = static_cast<float>(rng.Gaussian() * scale);
  }
  return model;
}

}  // namespace dana::ml
