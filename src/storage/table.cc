#include "storage/table.h"

#include <algorithm>
#include <atomic>

#include "common/parallel.h"

namespace dana::storage {

namespace {

/// The last serial handed out; the first table gets 1.
std::atomic<uint64_t> last_serial{0};

Status DoesNotFit(const Schema& schema) {
  return Status::InvalidArgument("row of " +
                                 std::to_string(schema.RowBytes()) +
                                 " bytes does not fit an empty page");
}

/// Adds tuples to `page` until it is full or holds `n` more, the i-th
/// with the payload `row(i)` returns; returns how many it added.
template <typename Row>
Result<uint64_t> AddRows(Page page, uint16_t attrs, uint64_t n,
                         const Row& row) {
  uint64_t added = 0;
  for (; added < n; ++added) {
    DANA_ASSIGN_OR_RETURN(const std::span<const uint8_t> payload, row(added));
    auto slot = page.AddTuple(payload, attrs);
    if (!slot.ok()) {
      if (!slot.status().IsResourceExhausted()) return slot.status();
      break;
    }
  }
  return added;
}

/// The payloads of copies of one row: row(i) returns `payload`.
auto Copies(std::span<const uint8_t> payload) {
  return [payload](uint64_t) -> Result<std::span<const uint8_t>> {
    return payload;
  };
}

/// The payloads of `rows`: row(i) encodes rows[i] into `buf` (RowBytes()
/// long) and returns it.
auto Encoded(const Schema& schema, std::span<const std::vector<double>> rows,
             uint8_t* buf) {
  return [&schema, rows, buf](uint64_t i) -> Result<std::span<const uint8_t>> {
    DANA_RETURN_NOT_OK(schema.EncodeRow(rows[i], buf));
    return std::span<const uint8_t>(buf, schema.RowBytes());
  };
}

}  // namespace

Table::Table(std::string name, Schema schema, PageLayout layout)
    : name_(std::move(name)),
      serial_(++last_serial),
      schema_(std::move(schema)),
      layout_(layout) {}

void Table::AddPage() {
  pages_.push_back(
      std::make_unique_for_overwrite<uint8_t[]>(layout_.page_size));
  Page(pages_.back().get(), layout_).InitEmpty();
}

template <typename Row>
Result<uint64_t> Table::FillTail(uint64_t n, const Row& row) {
  // The shared image is full, and no row may be written into it anyway.
  if (pages_.empty() || PageData(pages_.size() - 1) == zero_page_) {
    return uint64_t{0};
  }
  DANA_ASSIGN_OR_RETURN(
      const uint64_t added,
      AddRows(Page(pages_.back().get(), layout_), schema_.num_columns(), n,
              row));
  num_tuples_ += added;
  return added;
}

Result<uint64_t> Table::FillNewPage(uint64_t n) {
  AddPage();
  DANA_ASSIGN_OR_RETURN(const uint64_t added, FillTail(n, Copies(row_buf_)));
  if (added == 0) return DoesNotFit(schema_);
  return added;
}

Result<uint64_t> Table::RowsPerPage() {
  const auto scratch =
      std::make_unique_for_overwrite<uint8_t[]>(layout_.page_size);
  Page page(scratch.get(), layout_);
  page.InitEmpty();
  DANA_ASSIGN_OR_RETURN(const uint64_t fit,
                        AddRows(page, schema_.num_columns(), UINT64_MAX,
                                Copies(row_buf_)));
  if (fit == 0) return DoesNotFit(schema_);
  return fit;
}

Status Table::AppendRow(const std::vector<double>& values) {
  return AppendRows(std::span(&values, 1));
}

Status Table::AppendRows(std::span<const std::vector<double>> rows) {
  for (const auto& row : rows) DANA_RETURN_NOT_OK(schema_.CheckRow(row));
  row_buf_.resize(schema_.RowBytes());
  DANA_ASSIGN_OR_RETURN(
      const uint64_t on_tail,
      FillTail(rows.size(), Encoded(schema_, rows, row_buf_.data())));
  rows = rows.subspan(on_tail);
  if (rows.empty()) return Status::OK();

  // Every new page but the last takes `per_page` rows, as it would row by
  // row. The images are allocated here, in page order, and left
  // unwritten: the worker that claims a page formats it, so the page is
  // first touched there.
  DANA_ASSIGN_OR_RETURN(const uint64_t per_page, RowsPerPage());
  const uint64_t first = pages_.size();
  const uint64_t added = (rows.size() + per_page - 1) / per_page;
  for (uint64_t p = 0; p < added; ++p) {
    pages_.push_back(
        std::make_unique_for_overwrite<uint8_t[]>(layout_.page_size));
  }
  TeamLease team(added);
  // Worker w encodes rows into its own buffer at w * stride, a cache line
  // clear of the next worker's, and keeps its first failure in failed[w].
  const size_t stride = row_buf_.size() + 64;
  std::vector<uint8_t> bufs(team.width() * stride);
  std::vector<Status> failed(team.width());
  std::atomic<uint64_t> next_page{0};
  team.Run(team.width(), [&](uint32_t w) {
    uint8_t* const buf = bufs.data() + w * stride;
    for (uint64_t p = next_page++; p < added; p = next_page++) {
      const auto mine = rows.subspan(
          p * per_page, std::min(per_page, rows.size() - p * per_page));
      Page page(pages_[first + p].get(), layout_);
      page.InitEmpty();
      auto filled = AddRows(page, schema_.num_columns(), mine.size(),
                            Encoded(schema_, mine, buf));
      if (filled.ok() && *filled != mine.size()) {
        filled = Status::Internal("page " + std::to_string(first + p) +
                                  " took " + std::to_string(*filled) +
                                  " of " + std::to_string(mine.size()) +
                                  " rows");
      }
      if (!filled.ok()) {
        failed[w] = filled.status();
        return;
      }
    }
  });
  for (const Status& status : failed) {
    if (!status.ok()) {
      pages_.resize(first);
      return status;
    }
  }
  num_tuples_ += rows.size();
  return Status::OK();
}

Status Table::AppendZeroRows(uint64_t n) {
  row_buf_.assign(schema_.RowBytes(), 0);
  // Rows go on the last page one by one, then onto a fresh page.
  DANA_ASSIGN_OR_RETURN(uint64_t added, FillTail(n, Copies(row_buf_)));
  n -= added;
  if (n == 0) return Status::OK();
  if (zero_page_ == nullptr) {
    DANA_ASSIGN_OR_RETURN(added, FillNewPage(n));
    n -= added;
    if (n == 0) return Status::OK();
    // Rows are left over, so that page is full, and it holds nothing but
    // zero rows from its first byte: every later full page is this image.
    zero_page_ = pages_.back().get();
  }
  const uint32_t per_page = PageView(zero_page_, layout_).ItemCount();
  for (; n >= per_page; n -= per_page) {
    pages_.emplace_back();  // null: the page's image is zero_page_
    num_tuples_ += per_page;
  }
  if (n == 0) return Status::OK();
  return FillNewPage(n).status();
}

Status Table::ReadRow(uint64_t page_no, uint32_t slot,
                      std::vector<double>* out) const {
  if (page_no >= pages_.size()) {
    return Status::OutOfRange("page " + std::to_string(page_no) +
                              " >= page count");
  }
  PageView page(PageData(page_no), layout_);
  DANA_ASSIGN_OR_RETURN(auto payload, page.GetTuplePayload(slot));
  return schema_.DecodeRow(payload.data(),
                           static_cast<uint32_t>(payload.size()), out);
}

uint32_t Table::TuplesOnPage(uint64_t i) const {
  if (i >= pages_.size()) return 0;
  return PageView(PageData(i), layout_).ItemCount();
}

Result<std::vector<std::vector<double>>> Table::ReadAllRows() const {
  std::vector<std::vector<double>> rows;
  rows.reserve(num_tuples_);
  for (uint64_t p = 0; p < pages_.size(); ++p) {
    const uint32_t n = TuplesOnPage(p);
    for (uint32_t s = 0; s < n; ++s) {
      std::vector<double> row;
      DANA_RETURN_NOT_OK(ReadRow(p, s, &row));
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

}  // namespace dana::storage
