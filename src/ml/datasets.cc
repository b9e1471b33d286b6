#include "ml/datasets.h"

#include <cmath>

#include "storage/schema.h"

namespace dana::ml {

Dataset GenerateDataset(const DatasetSpec& spec) {
  Rng rng(spec.seed);
  Dataset data;
  data.feature_dims = spec.dims;
  data.has_label = spec.kind != AlgoKind::kLowRankMF;
  data.rows.reserve(spec.tuples);

  const double x_scale = 1.0 / std::sqrt(static_cast<double>(spec.dims));

  if (spec.kind == AlgoKind::kLowRankMF) {
    // Ratings from planted rank-`rank` factors: row_u = L_u * R^T + noise.
    const uint32_t k = spec.rank;
    std::vector<double> R(static_cast<size_t>(spec.dims) * k);
    for (auto& v : R) v = rng.Gaussian() / std::sqrt(static_cast<double>(k));
    for (uint64_t u = 0; u < spec.tuples; ++u) {
      std::vector<double> lu(k);
      for (auto& v : lu) v = rng.Gaussian();
      std::vector<double> row(spec.dims);
      for (uint32_t i = 0; i < spec.dims; ++i) {
        double s = 0;
        for (uint32_t j = 0; j < k; ++j) s += lu[j] * R[i * k + j];
        row[i] = s + spec.label_noise * rng.Gaussian();
      }
      data.rows.push_back(std::move(row));
    }
    return data;
  }

  // Supervised families: planted weight vector.
  std::vector<double> w(spec.dims);
  for (auto& v : w) v = rng.Gaussian();
  for (uint64_t t = 0; t < spec.tuples; ++t) {
    std::vector<double> row(spec.dims + 1);
    double s = 0;
    for (uint32_t i = 0; i < spec.dims; ++i) {
      row[i] = rng.Gaussian() * x_scale;
      s += row[i] * w[i];
    }
    switch (spec.kind) {
      case AlgoKind::kLinearRegression:
        row[spec.dims] = s + spec.label_noise * rng.Gaussian();
        break;
      case AlgoKind::kLogisticRegression: {
        const double p = 1.0 / (1.0 + std::exp(-s));
        row[spec.dims] = rng.Bernoulli(p) ? 1.0 : 0.0;
        break;
      }
      case AlgoKind::kSvm:
        row[spec.dims] =
            (s + spec.label_noise * rng.Gaussian()) >= 0 ? 1.0 : -1.0;
        break;
      case AlgoKind::kLowRankMF:
        break;  // handled above
    }
    data.rows.push_back(std::move(row));
  }
  return data;
}

namespace {

/// An empty table of float4 columns: `dims` features, then the label.
std::unique_ptr<storage::Table> EmptyTable(const std::string& name,
                                           uint32_t dims, bool has_label,
                                           const storage::PageLayout& layout) {
  return std::make_unique<storage::Table>(
      name,
      storage::Schema::Dense(dims, storage::ColumnType::kFloat4, has_label),
      layout);
}

}  // namespace

Result<std::unique_ptr<storage::Table>> BuildTable(
    const std::string& name, const Dataset& data,
    const storage::PageLayout& layout) {
  auto table = EmptyTable(name, data.feature_dims, data.has_label, layout);
  for (const auto& row : data.rows) {
    DANA_RETURN_NOT_OK(table->AppendRow(row));
  }
  return table;
}

Result<std::unique_ptr<storage::Table>> BuildShapeTable(
    const std::string& name, const DatasetSpec& spec,
    const storage::PageLayout& layout) {
  // GenerateDataset's row shape: LRMF rows have no label column.
  auto table = EmptyTable(name, spec.dims,
                          spec.kind != AlgoKind::kLowRankMF, layout);
  DANA_RETURN_NOT_OK(table->AppendZeroRows(spec.tuples));
  return table;
}

}  // namespace dana::ml
