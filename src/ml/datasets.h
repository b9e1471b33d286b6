#pragma once

#include <memory>
#include <string>

#include "common/random.h"
#include "common/result.h"
#include "ml/reference.h"
#include "storage/page_layout.h"
#include "storage/table.h"

namespace dana::ml {

/// Synthetic dataset generator.
///
/// The paper's public datasets (UCI, Netflix) are not redistributable with
/// this repo, so every workload is generated synthetically with the same
/// shape: feature width, tuple count, and a planted ground-truth model so
/// that training progress is measurable. Features are N(0, 1/sqrt(d)) so
/// dot products stay O(1) regardless of width.
struct DatasetSpec {
  AlgoKind kind = AlgoKind::kLinearRegression;
  uint32_t dims = 16;
  uint32_t rank = 10;  // LRMF factor rank
  uint64_t tuples = 1000;
  double label_noise = 0.05;
  uint64_t seed = 1;
};

/// Generates the in-memory dataset (rows of doubles).
Dataset GenerateDataset(const DatasetSpec& spec);

/// Encodes `data` into a heap table named `name` (float4 columns:
/// features then label; LRMF rows have no label column), in one
/// Table::AppendRows: its pages are formatted and filled on the process's
/// worker team.
dana::Result<std::unique_ptr<storage::Table>> BuildTable(
    const std::string& name, const Dataset& data,
    const storage::PageLayout& layout);

/// The shape table of `spec`: the table BuildTable would encode from
/// GenerateDataset(spec) — same schema, pages, page headers and line
/// pointers — with every payload byte zero and no dataset generated.
/// Everything that depends only on the page layout (a Strider walk, pool
/// I/O, the accelerator's cycle counts) reads it exactly like the real one.
dana::Result<std::unique_ptr<storage::Table>> BuildShapeTable(
    const std::string& name, const DatasetSpec& spec,
    const storage::PageLayout& layout);

}  // namespace dana::ml
