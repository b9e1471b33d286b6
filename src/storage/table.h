#pragma once

#include <cstdint>
#include <memory>
#include <span>
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
/// page buffers. Pages are immutable after the load. A load (AppendRows;
/// AppendRow is a load of one row) fills the last page on the calling
/// thread, then hands the new pages to the process's worker team: each
/// worker formats and fills the pages it claims, so the images are first
/// touched and encoded in parallel, with the bytes one AppendRow per row
/// would write. The full pages of a shape table (AppendZeroRows) are
/// byte-identical, so they share one image; every other page owns its own.
/// Equal PageData pointers therefore mean equal bytes (unequal pointers
/// need not mean unequal bytes).
class Table {
 public:
  Table(std::string name, Schema schema, PageLayout layout);

  /// A table is never copied or moved: its serial names this object.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  /// Unique within the process and never reused, unlike the table's
  /// address: a BufferPool caches the table's id under it.
  uint64_t serial() const { return serial_; }
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

  /// Appends a row, allocating a new page when the current one is full:
  /// AppendRows of one row.
  dana::Status AppendRow(const std::vector<double>& values);

  /// Appends `rows` in order, each placed where one AppendRow call per row
  /// would place it: on the last page while it has room, then on new pages
  /// of as many rows as an empty page holds. Every row's width is checked
  /// first, so a row of the wrong width fails with AppendRow's status and
  /// leaves the table as it was. The last page is filled on the calling
  /// thread, which also allocates the new pages' images, in page order;
  /// the worker team formats and fills them, claiming one page at a time.
  dana::Status AppendRows(std::span<const std::vector<double>> rows);

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
  /// Adds up to `n` rows to the last page, the i-th with the payload
  /// `row(i)` returns; returns how many fit (0 when there is no page, it
  /// is full or it is the shared image).
  template <typename Row>
  dana::Result<uint64_t> FillTail(uint64_t n, const Row& row);
  /// Starts a page and adds up to `n` (>= 1) copies of `row_buf_` to it;
  /// fails when not even one fits an empty page.
  dana::Result<uint64_t> FillNewPage(uint64_t n);
  /// Rows of this schema an empty page holds, counted by filling a scratch
  /// page with copies of `row_buf_`; fails as FillNewPage does when not
  /// even one fits.
  dana::Result<uint64_t> RowsPerPage();

  std::string name_;
  uint64_t serial_;
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
