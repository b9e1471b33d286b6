#include "storage/table.h"

namespace dana::storage {

void Table::AddPage() {
  pages_.push_back(std::make_unique<uint8_t[]>(layout_.page_size));
  Page(pages_.back().get(), layout_).InitEmpty();
}

Result<uint64_t> Table::FillTail(uint64_t n) {
  uint64_t added = 0;
  // The shared image is full, and no row may be written into it anyway.
  if (pages_.empty() || PageData(pages_.size() - 1) == zero_page_) {
    return added;
  }
  Page page(pages_.back().get(), layout_);
  for (; added < n; ++added) {
    auto slot = page.AddTuple(row_buf_, schema_.num_columns());
    if (!slot.ok()) {
      if (!slot.status().IsResourceExhausted()) return slot.status();
      break;
    }
  }
  num_tuples_ += added;
  return added;
}

Result<uint64_t> Table::FillNewPage(uint64_t n) {
  AddPage();
  DANA_ASSIGN_OR_RETURN(const uint64_t added, FillTail(n));
  if (added == 0) {
    return Status::InvalidArgument("row of " +
                                   std::to_string(schema_.RowBytes()) +
                                   " bytes does not fit an empty page");
  }
  return added;
}

Status Table::AppendRow(const std::vector<double>& values) {
  row_buf_.resize(schema_.RowBytes());
  DANA_RETURN_NOT_OK(schema_.EncodeRow(values, row_buf_.data()));
  DANA_ASSIGN_OR_RETURN(const uint64_t added, FillTail(1));
  if (added == 1) return Status::OK();
  return FillNewPage(1).status();
}

Status Table::AppendZeroRows(uint64_t n) {
  row_buf_.assign(schema_.RowBytes(), 0);
  // Rows go on the last page one by one, then onto a fresh page.
  DANA_ASSIGN_OR_RETURN(uint64_t added, FillTail(n));
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
