#include "storage/schema.h"

#include <cstring>

namespace dana::storage {

uint32_t ColumnTypeSize(ColumnType t) {
  switch (t) {
    case ColumnType::kFloat4:
      return 4;
    case ColumnType::kFloat8:
      return 8;
    case ColumnType::kInt32:
      return 4;
  }
  return 0;
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  offsets_.reserve(columns_.size());
  uint32_t off = 0;
  for (const auto& c : columns_) {
    offsets_.push_back(off);
    off += ColumnTypeSize(c.type);
  }
  row_bytes_ = off;
}

Schema Schema::Dense(uint32_t width, ColumnType type, bool with_label) {
  std::vector<Column> cols;
  cols.reserve(width + 1);
  for (uint32_t i = 0; i < width; ++i) {
    std::string name = "f";
    name += std::to_string(i);
    cols.push_back({std::move(name), type});
  }
  if (with_label) cols.push_back({"label", type});
  return Schema(std::move(cols));
}

Status Schema::CheckRow(const std::vector<double>& values) const {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(values.size()) + " values, schema has " +
        std::to_string(columns_.size()) + " columns");
  }
  return Status::OK();
}

Status Schema::EncodeRow(const std::vector<double>& values,
                         uint8_t* out) const {
  DANA_RETURN_NOT_OK(CheckRow(values));
  for (size_t i = 0; i < columns_.size(); ++i) {
    uint8_t* dst = out + offsets_[i];
    switch (columns_[i].type) {
      case ColumnType::kFloat4: {
        const float f = static_cast<float>(values[i]);
        std::memcpy(dst, &f, 4);
        break;
      }
      case ColumnType::kFloat8: {
        std::memcpy(dst, &values[i], 8);
        break;
      }
      case ColumnType::kInt32: {
        const int32_t v = static_cast<int32_t>(values[i]);
        std::memcpy(dst, &v, 4);
        break;
      }
    }
  }
  return Status::OK();
}

Status Schema::DecodeRow(const uint8_t* data, uint32_t len,
                         std::vector<double>* out) const {
  if (len < row_bytes_) {
    return Status::Corruption("row payload shorter than schema width");
  }
  out->resize(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    const uint8_t* src = data + offsets_[i];
    switch (columns_[i].type) {
      case ColumnType::kFloat4: {
        float f;
        std::memcpy(&f, src, 4);
        (*out)[i] = f;
        break;
      }
      case ColumnType::kFloat8: {
        double d;
        std::memcpy(&d, src, 8);
        (*out)[i] = d;
        break;
      }
      case ColumnType::kInt32: {
        int32_t v;
        std::memcpy(&v, src, 4);
        (*out)[i] = v;
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace dana::storage
