#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace dana::storage {

/// Column types supported by the tuple codec. Training data in the paper is
/// numeric; Float4 matches the UCI datasets' storage footprint in Table 3.
enum class ColumnType : uint8_t { kFloat4, kFloat8, kInt32 };

/// Byte width of a column type.
uint32_t ColumnTypeSize(ColumnType t);

/// One column: a name and a type.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kFloat4;
};

/// Fixed-width row schema.
///
/// All workloads in the paper train on fixed-width numeric tuples
/// (features followed by a label, or a user's rating row for LRMF), so the
/// codec supports fixed-width rows only; this is also what makes single
/// tuple-pointer inspection sufficient for the Strider program (§5.1.2).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  /// Convenience factory: `width` feature columns of `type` named f0..fN-1
  /// plus one label column.
  static Schema Dense(uint32_t width, ColumnType type = ColumnType::kFloat4,
                      bool with_label = true);

  const std::vector<Column>& columns() const { return columns_; }
  uint32_t num_columns() const {
    return static_cast<uint32_t>(columns_.size());
  }

  /// Total payload bytes of one row.
  uint32_t RowBytes() const { return row_bytes_; }

  /// Byte offset of column `i` within the row payload.
  uint32_t ColumnOffset(uint32_t i) const { return offsets_[i]; }

  /// OK when `values` holds one double per column; else EncodeRow's error.
  dana::Status CheckRow(const std::vector<double>& values) const;

  /// Encodes `values` (one double per column, converted per column type)
  /// into `out` which must have RowBytes() capacity.
  dana::Status EncodeRow(const std::vector<double>& values,
                         uint8_t* out) const;

  /// Decodes a row payload into doubles, one per column.
  dana::Status DecodeRow(const uint8_t* data, uint32_t len,
                         std::vector<double>* out) const;

 private:
  std::vector<Column> columns_;
  std::vector<uint32_t> offsets_;
  uint32_t row_bytes_ = 0;
};

}  // namespace dana::storage
