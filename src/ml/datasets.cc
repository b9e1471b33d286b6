#include "ml/datasets.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "storage/schema.h"

namespace dana::ml {

namespace {

/// A row block holds about this many doubles. Each block jumps into the
/// stream at its own first row, so the rows depend on neither the block
/// size nor the worker count.
constexpr uint64_t kBlockValues = 1 << 16;

/// Next64 draws one row takes: a Gaussian takes 2, a Bernoulli 1.
uint64_t DrawsPerRow(const DatasetSpec& spec) {
  const uint64_t d = spec.dims;
  switch (spec.kind) {
    case AlgoKind::kLinearRegression:
    case AlgoKind::kSvm:
      return 2 * (d + 1);
    case AlgoKind::kLogisticRegression:
      return 2 * d + 1;
    case AlgoKind::kLowRankMF:
      return 2 * (spec.rank + d);
  }
  return 0;
}

/// Appends `tuples` rows of `row_values` doubles to `rows` and fills them
/// in blocks of rows, on the process's worker team. `fill(rng, block,
/// scratch)` writes the rows of `block` drawing from `rng`, which stands at
/// the block's first draw; `scratch` is the thread's own `scratch_size`
/// doubles. Each row takes `draws_per_row` draws from `start`.
template <typename Fill>
void FillRows(std::vector<std::vector<double>>& rows, uint64_t tuples,
              uint64_t row_values, uint64_t draws_per_row, const Rng& start,
              size_t scratch_size, const Fill& fill) {
  const uint64_t block_rows =
      std::max<uint64_t>(1, kBlockValues / std::max<uint64_t>(1, row_values));
  const uint64_t blocks = (tuples + block_rows - 1) / block_rows;
  TeamLease team(blocks);
  // All allocation happens here, on the calling thread, in the order a
  // one-thread generator allocates: the scratch, then every row in row
  // order. The threads allocate nothing. A row is only reserved here; the
  // thread that claims its block sizes it, so the zero-fill and the first
  // touch of the row's pages run on the team too. The rows' pages are then
  // first touched out of address order, which BuildTable, itself on the
  // team, reads no slower: traced train_wide on a 4-CPU VM, six
  // alternating runs each, medians of rows zero-filled here against rows
  // sized on the team were ml.build_table_s 0.089 s against 0.082 s and
  // ml.generate_s 0.60 s against 0.42 s. Thread w's scratch starts at
  // w * stride, a cache line of doubles clear of the next thread's.
  const size_t stride = scratch_size == 0 ? 0 : scratch_size + 8;
  std::vector<double> scratch(
      scratch_size == 0 ? 0 : (team.width() - 1) * stride + scratch_size);
  for (uint64_t t = 0; t < tuples; ++t) {
    rows.emplace_back().reserve(row_values);
  }
  // Each thread takes the next unclaimed block, so a thread slowed by a
  // busy CPU takes fewer. It copies `run` first and then reads only its
  // own copies of `fill` and `start`: the shared one could share a cache
  // line with another thread's Rng, which is written on every draw.
  std::atomic<uint64_t> next_block{0};
  auto run = [&next_block, fill, start, rows = rows.data(), tuples,
              row_values, block_rows, blocks, draws_per_row,
              scratch = scratch.data(), stride, scratch_size](uint64_t w) {
    const std::span<double> mine(scratch + w * stride, scratch_size);
    for (uint64_t b = next_block++; b < blocks; b = next_block++) {
      const uint64_t first = b * block_rows;
      const std::span block(rows + first,
                            std::min(block_rows, tuples - first));
      for (std::vector<double>& row : block) row.resize(row_values);
      Rng rng = start;
      rng.Discard(first * draws_per_row);
      fill(rng, block, mine);
    }
  };
  team.Run(team.width(), [&run](uint32_t w) {
    auto own = run;
    own(w);
  });
}

}  // namespace

Dataset GenerateDataset(const DatasetSpec& spec) {
  Rng rng(spec.seed);
  Dataset data;
  data.feature_dims = spec.dims;
  data.has_label = spec.kind != AlgoKind::kLowRankMF;
  data.rows.reserve(spec.tuples);
  const uint64_t row_values = spec.dims + (data.has_label ? 1 : 0);
  const uint64_t draws = DrawsPerRow(spec);

  if (spec.kind == AlgoKind::kLowRankMF) {
    // Ratings from planted rank-`rank` factors: row_u = L_u * R^T + noise.
    const uint32_t k = spec.rank;
    std::vector<double> R(static_cast<size_t>(spec.dims) * k);
    for (auto& v : R) v = rng.Gaussian() / std::sqrt(static_cast<double>(k));
    auto fill = [R = R.data(), spec, k](Rng& r,
                                        std::span<std::vector<double>> block,
                                        std::span<double> lu) {
      for (std::vector<double>& row : block) {
        for (auto& v : lu) v = r.Gaussian();
        for (uint32_t i = 0; i < spec.dims; ++i) {
          double s = 0;
          for (uint32_t j = 0; j < k; ++j) s += lu[j] * R[i * k + j];
          row[i] = s + spec.label_noise * r.Gaussian();
        }
      }
    };
    FillRows(data.rows, spec.tuples, row_values, draws, rng, k, fill);
    return data;
  }

  // Supervised families: planted weight vector.
  const double x_scale = 1.0 / std::sqrt(static_cast<double>(spec.dims));
  std::vector<double> w(spec.dims);
  for (auto& v : w) v = rng.Gaussian();
  auto fill = [w = w.data(), spec, x_scale](
                  Rng& r, std::span<std::vector<double>> block,
                  std::span<double> /*scratch*/) {
    for (std::vector<double>& row : block) {
      double s = 0;
      for (uint32_t i = 0; i < spec.dims; ++i) {
        row[i] = r.Gaussian() * x_scale;
        s += row[i] * w[i];
      }
      switch (spec.kind) {
        case AlgoKind::kLinearRegression:
          row[spec.dims] = s + spec.label_noise * r.Gaussian();
          break;
        case AlgoKind::kLogisticRegression: {
          const double p = 1.0 / (1.0 + std::exp(-s));
          row[spec.dims] = r.Bernoulli(p) ? 1.0 : 0.0;
          break;
        }
        case AlgoKind::kSvm:
          row[spec.dims] =
              (s + spec.label_noise * r.Gaussian()) >= 0 ? 1.0 : -1.0;
          break;
        case AlgoKind::kLowRankMF:
          break;  // handled above
      }
    }
  };
  FillRows(data.rows, spec.tuples, row_values, draws, rng, 0, fill);
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
  DANA_RETURN_NOT_OK(table->AppendRows(data.rows));
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
