#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/page_layout.h"
#include "storage/schema.h"

namespace dana::storage {

/// A heap table: an ordered collection of page images plus its schema.
///
/// Tables are bulk-loaded once (the paper trains on static tables) and then
/// read through the buffer pool or shipped page-by-page to the accelerator's
/// page buffers.
class Table {
 public:
  Table(std::string name, Schema schema, PageLayout layout)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        layout_(layout) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const PageLayout& layout() const { return layout_; }

  uint64_t num_pages() const { return pages_.size(); }
  uint64_t num_tuples() const { return num_tuples_; }
  uint64_t SizeBytes() const { return num_pages() * layout_.page_size; }

  /// Raw image of page `i` (layout().page_size bytes).
  const uint8_t* PageData(uint64_t i) const { return pages_[i].get(); }

  /// Appends a row, allocating a new page when the current one is full.
  dana::Status AppendRow(const std::vector<double>& values);

  /// Appends `n` rows whose payload bytes are all zero, placed exactly as
  /// `n` AppendRow calls would place them (same pages, page headers, line
  /// pointers and tuple headers) without encoding any value. A table built
  /// this way is a shape table: it prices a scan like the real one.
  dana::Status AppendZeroRows(uint64_t n);

  /// Decodes the tuple in (page, slot) into doubles.
  dana::Status ReadRow(uint64_t page, uint32_t slot,
                       std::vector<double>* out) const;

  /// Number of live tuples on page `i`.
  uint32_t TuplesOnPage(uint64_t i) const;

  /// Decodes the entire table into a row-major matrix; convenience for the
  /// CPU reference implementations and tests.
  dana::Result<std::vector<std::vector<double>>> ReadAllRows() const;

 private:
  uint8_t* AddPage();
  /// Places the encoded row in `row_buf_` (see AppendRow).
  dana::Status AppendEncoded();

  std::string name_;
  Schema schema_;
  PageLayout layout_;
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
  uint64_t num_tuples_ = 0;
  std::vector<uint8_t> row_buf_;
};

}  // namespace dana::storage
