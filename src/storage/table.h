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

/// A heap table: an ordered list of pages plus its schema.
///
/// Tables are bulk-loaded once (the paper trains on static tables) and then
/// read through the buffer pool or shipped page-by-page to the accelerator's
/// page buffers. Pages are immutable after the load. The full pages of a
/// shape table (AppendZeroRows) are byte-identical, so they share one
/// image; every other page owns its own. Equal PageData pointers therefore
/// mean equal bytes (unequal pointers need not mean unequal bytes).
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
  /// Modelled size: every page counts in full, shared or not.
  uint64_t SizeBytes() const { return num_pages() * layout_.page_size; }

  /// Raw image of page `i` (layout().page_size bytes), valid for the
  /// table's lifetime.
  const uint8_t* PageData(uint64_t i) const {
    const uint8_t* own = pages_[i].get();
    return own != nullptr ? own : zero_page_;
  }

  /// Appends a row, allocating a new page when the current one is full.
  dana::Status AppendRow(const std::vector<double>& values);

  /// Appends `n` rows whose payload bytes are all zero, placed exactly as
  /// `n` AppendRow calls would place them (same pages, page headers, line
  /// pointers and tuple headers) without encoding any value. A table built
  /// this way is a shape table: it prices a scan like the real one. The
  /// first page these rows fill from empty becomes the image of every
  /// later page full of zero rows; a last, partial page has its own.
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
  /// Appends a page with an empty image of its own.
  void AddPage();
  /// Adds up to `n` copies of `row_buf_` to the last page; returns how
  /// many fit (0 when there is no page, it is full or it is the shared
  /// image).
  dana::Result<uint64_t> FillTail(uint64_t n);
  /// Starts a page and adds up to `n` (>= 1) copies of `row_buf_` to it;
  /// fails when not even one fits an empty page.
  dana::Result<uint64_t> FillNewPage(uint64_t n);

  std::string name_;
  Schema schema_;
  PageLayout layout_;
  /// The image each page owns; null for a page whose image is
  /// `zero_page_`.
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
  /// A page full of zero rows, owned by the first page that held it and
  /// shared by every null entry of `pages_`; null until one exists.
  const uint8_t* zero_page_ = nullptr;
  uint64_t num_tuples_ = 0;
  std::vector<uint8_t> row_buf_;
};

}  // namespace dana::storage
