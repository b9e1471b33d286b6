#include "storage/table.h"

namespace dana::storage {

uint8_t* Table::AddPage() {
  pages_.push_back(std::make_unique<uint8_t[]>(layout_.page_size));
  uint8_t* data = pages_.back().get();
  Page page(data, layout_);
  page.InitEmpty();
  return data;
}

Status Table::AppendRow(const std::vector<double>& values) {
  row_buf_.resize(schema_.RowBytes());
  DANA_RETURN_NOT_OK(schema_.EncodeRow(values, row_buf_.data()));
  return AppendEncoded();
}

Status Table::AppendZeroRows(uint64_t n) {
  row_buf_.assign(schema_.RowBytes(), 0);
  for (uint64_t i = 0; i < n; ++i) {
    DANA_RETURN_NOT_OK(AppendEncoded());
  }
  return Status::OK();
}

Status Table::AppendEncoded() {
  if (pages_.empty()) AddPage();
  {
    Page page(pages_.back().get(), layout_);
    auto slot = page.AddTuple(row_buf_, schema_.num_columns());
    if (slot.ok()) {
      ++num_tuples_;
      return Status::OK();
    }
    if (!slot.status().IsResourceExhausted()) return slot.status();
  }
  // Current page full: start a new one.
  uint8_t* data = AddPage();
  Page page(data, layout_);
  auto slot = page.AddTuple(row_buf_, schema_.num_columns());
  if (!slot.ok()) {
    return Status::InvalidArgument("row of " +
                                   std::to_string(schema_.RowBytes()) +
                                   " bytes does not fit an empty page");
  }
  ++num_tuples_;
  return Status::OK();
}

Status Table::ReadRow(uint64_t page_no, uint32_t slot,
                      std::vector<double>* out) const {
  if (page_no >= pages_.size()) {
    return Status::OutOfRange("page " + std::to_string(page_no) +
                              " >= page count");
  }
  Page page(const_cast<uint8_t*>(pages_[page_no].get()), layout_);
  DANA_ASSIGN_OR_RETURN(auto payload, page.GetTuplePayload(slot));
  return schema_.DecodeRow(payload.data(),
                           static_cast<uint32_t>(payload.size()), out);
}

uint32_t Table::TuplesOnPage(uint64_t i) const {
  if (i >= pages_.size()) return 0;
  Page page(const_cast<uint8_t*>(pages_[i].get()), layout_);
  return page.ItemCount();
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
