#include "ml/reference.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>

#include "common/parallel.h"

namespace dana::ml {

ReferenceTrainer::ReferenceTrainer(AlgoKind kind, AlgoParams params)
    : kind_(kind), params_(params) {}

uint64_t ReferenceTrainer::ModelSize() const {
  return kind_ == AlgoKind::kLowRankMF
             ? static_cast<uint64_t>(params_.dims) * params_.rank
             : params_.dims;
}

Status ReferenceTrainer::BatchUpdate(
    const std::vector<std::vector<double>>& batch,
    std::vector<double>* model) const {
  const uint32_t d = params_.dims;
  const uint32_t k = params_.rank;
  if (model->size() != ModelSize()) {
    return Status::InvalidArgument("model size mismatch");
  }
  std::vector<double> grad(model->size(), 0.0);

  for (const auto& row : batch) {
    switch (kind_) {
      case AlgoKind::kLinearRegression:
      case AlgoKind::kLogisticRegression: {
        if (row.size() < d + 1) {
          return Status::InvalidArgument("row too short");
        }
        double s = 0;
        for (uint32_t i = 0; i < d; ++i) s += (*model)[i] * row[i];
        const double pred = kind_ == AlgoKind::kLogisticRegression
                                ? 1.0 / (1.0 + std::exp(-s))
                                : s;
        const double er = pred - row[d];
        for (uint32_t i = 0; i < d; ++i) grad[i] += er * row[i];
        break;
      }
      case AlgoKind::kSvm: {
        if (row.size() < d + 1) {
          return Status::InvalidArgument("row too short");
        }
        const double y = row[d];
        double s = 0;
        for (uint32_t i = 0; i < d; ++i) s += (*model)[i] * row[i];
        const double violating = (y * s < 1.0) ? 1.0 : 0.0;
        for (uint32_t i = 0; i < d; ++i) {
          grad[i] += params_.lambda * (*model)[i] - violating * y * row[i];
        }
        break;
      }
      case AlgoKind::kLowRankMF: {
        if (row.size() < d) {
          return Status::InvalidArgument("rating row too short");
        }
        // lu = (r R) / d ; pred = R lu ; grad += (pred - r) outer lu.
        std::vector<double> lu(k, 0.0);
        for (uint32_t i = 0; i < d; ++i) {
          for (uint32_t j = 0; j < k; ++j) {
            lu[j] += row[i] * (*model)[i * k + j];
          }
        }
        for (auto& v : lu) v /= d;
        for (uint32_t i = 0; i < d; ++i) {
          double pred = 0;
          for (uint32_t j = 0; j < k; ++j) pred += (*model)[i * k + j] * lu[j];
          const double er = pred - row[i];
          for (uint32_t j = 0; j < k; ++j) grad[i * k + j] += er * lu[j];
        }
        break;
      }
    }
  }

  // Sum-then-average over the merge coefficient, matching the DSL UDFs:
  // the divisor is the declared batch size even for a ragged final batch.
  const double scale = params_.learning_rate / params_.merge_coef;
  for (size_t i = 0; i < model->size(); ++i) {
    (*model)[i] -= scale * grad[i];
  }
  return Status::OK();
}

Result<std::vector<double>> ReferenceTrainer::Train(const Dataset& data,
                                                    uint32_t epochs) const {
  if (data.feature_dims != params_.dims) {
    return Status::InvalidArgument(
        "dataset width " + std::to_string(data.feature_dims) +
        " != algo dims " + std::to_string(params_.dims));
  }
  const std::vector<float> init = InitialModel(kind_, params_);
  std::vector<double> model(init.begin(), init.end());
  const uint32_t n_epochs = epochs ? epochs : params_.epochs;
  const size_t batch = params_.merge_coef;
  std::vector<std::vector<double>> window;
  window.reserve(batch);
  for (uint32_t e = 0; e < n_epochs; ++e) {
    for (size_t i = 0; i < data.rows.size(); ++i) {
      window.push_back(data.rows[i]);
      if (window.size() == batch || i + 1 == data.rows.size()) {
        DANA_RETURN_NOT_OK(BatchUpdate(window, &model));
        window.clear();
      }
    }
  }
  return model;
}

namespace {

/// Loss buffers about this many terms at a time (at least one row's), then
/// sums them in row order: 256 KB of doubles, where every term of the S/E
/// LRMF set at once would take 10 MB (2800 rows of 450).
constexpr uint64_t kStepTerms = 1 << 15;
/// One worker per this many row values, at most one per team worker, as in
/// GenerateDataset: a smaller set is not worth a thread.
constexpr uint64_t kValuesPerWorker = 1 << 16;

}  // namespace

double ReferenceTrainer::Loss(const Dataset& data,
                              const std::vector<double>& model) const {
  const uint32_t d = params_.dims;
  const uint32_t k = params_.rank;
  const uint64_t rows = data.rows.size();
  if (rows == 0) return 0.0;

  // SVM's regularizer depends on the model alone: summed once, in the
  // order a per-row sum would take, it is that sum bit for bit.
  double reg = 0;
  if (kind_ == AlgoKind::kSvm) {
    for (uint32_t i = 0; i < d; ++i) reg += model[i] * model[i];
  }
  // Writes row's terms to `out`: one, or d for LRMF. Each is the amount
  // a one-row-at-a-time loop adds to the total (a subtraction adds the
  // negated term, which is the same IEEE operation).
  auto row_terms = [&](const std::vector<double>& row, double* out,
                       std::span<double> lu) {
    switch (kind_) {
      case AlgoKind::kLinearRegression: {
        double s = 0;
        for (uint32_t i = 0; i < d; ++i) s += model[i] * row[i];
        const double er = s - row[d];
        *out = er * er;
        break;
      }
      case AlgoKind::kLogisticRegression: {
        double s = 0;
        for (uint32_t i = 0; i < d; ++i) s += model[i] * row[i];
        const double p = 1.0 / (1.0 + std::exp(-s));
        const double y = row[d];
        const double eps = 1e-12;
        *out = -(y * std::log(p + eps) + (1 - y) * std::log(1 - p + eps));
        break;
      }
      case AlgoKind::kSvm: {
        double s = 0;
        for (uint32_t i = 0; i < d; ++i) s += model[i] * row[i];
        *out = std::max(0.0, 1.0 - row[d] * s) + 0.5 * params_.lambda * reg;
        break;
      }
      case AlgoKind::kLowRankMF: {
        std::fill(lu.begin(), lu.end(), 0.0);
        for (uint32_t i = 0; i < d; ++i) {
          for (uint32_t j = 0; j < k; ++j) lu[j] += row[i] * model[i * k + j];
        }
        for (auto& v : lu) v /= d;
        for (uint32_t i = 0; i < d; ++i) {
          double pred = 0;
          for (uint32_t j = 0; j < k; ++j) pred += model[i * k + j] * lu[j];
          const double er = pred - row[i];
          out[i] = er * er;
        }
        break;
      }
    }
  };

  const uint64_t row_terms_n = kind_ == AlgoKind::kLowRankMF ? d : 1;
  const uint64_t step_rows =
      std::min(rows, std::max<uint64_t>(1, kStepTerms / row_terms_n));
  const uint64_t values = rows * data.rows[0].size();
  TeamLease team(std::min(values / kValuesPerWorker, step_rows));
  // Allocated here, so that the threads allocate nothing. Worker w's LRMF
  // scratch starts at w * stride, a cache line of doubles clear of the
  // next worker's.
  std::vector<double> terms(step_rows * row_terms_n);
  const size_t stride = k + 8;
  std::vector<double> scratch(size_t{team.width()} * stride);
  double total = 0;
  for (uint64_t first = 0; first < rows; first += step_rows) {
    const uint64_t n = std::min(step_rows, rows - first);
    const auto workers =
        static_cast<uint32_t>(std::min<uint64_t>(team.width(), n));
    team.Run(workers, [&](uint32_t w) {
      const std::span<double> lu(scratch.data() + w * stride, k);
      for (uint64_t r = n * w / workers; r < n * (w + 1) / workers; ++r) {
        row_terms(data.rows[first + r], terms.data() + r * row_terms_n, lu);
      }
    });
    for (uint64_t i = 0; i < n * row_terms_n; ++i) total += terms[i];
  }
  return total / rows;
}

}  // namespace dana::ml
