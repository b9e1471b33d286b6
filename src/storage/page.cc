#include "storage/page.h"

#include <string>

namespace dana::storage {

uint32_t PackItemId(uint32_t offset, uint32_t flags, uint32_t length) {
  return (offset & 0x7FFFu) | ((flags & 0x3u) << 15) |
         ((length & 0x7FFFu) << 17);
}

void UnpackItemId(uint32_t packed, uint32_t* offset, uint32_t* flags,
                  uint32_t* length) {
  *offset = packed & 0x7FFFu;
  *flags = (packed >> 15) & 0x3u;
  *length = (packed >> 17) & 0x7FFFu;
}

void Page::InitEmpty() {
  std::memset(mutable_data_, 0, layout_.page_size);
  const uint16_t special =
      static_cast<uint16_t>(layout_.page_size - layout_.special_size);
  WriteU16(layout_.lower_offset, static_cast<uint16_t>(layout_.header_size));
  WriteU16(layout_.upper_offset, special);
  WriteU16(layout_.special_offset, special);
  // pagesize_version: page size in the high bits, version 4 in the low
  // byte, as PostgreSQL stores it (kept outside the parameterized fields).
  if (layout_.header_size >= 20 && layout_.lower_offset != 18) {
    WriteU16(18, static_cast<uint16_t>((layout_.page_size & 0xFF00u) | 4u));
  }
}

uint32_t PageView::ItemCount() const {
  const uint16_t lo = lower();
  if (lo <= layout_.header_size) return 0;
  return (lo - layout_.header_size) / layout_.item_id_size;
}

uint32_t PageView::FreeSpace() const {
  const uint16_t lo = lower();
  const uint16_t up = upper();
  return up > lo ? static_cast<uint32_t>(up - lo) : 0;
}

Result<uint32_t> Page::AddTuple(std::span<const uint8_t> payload,
                                uint16_t attr_count) {
  const uint32_t tuple_len =
      layout_.tuple_header_size + static_cast<uint32_t>(payload.size());
  const uint32_t needed = tuple_len + layout_.item_id_size;
  if (FreeSpace() < needed) {
    return Status::ResourceExhausted("page full: need " +
                                     std::to_string(needed) + " bytes, have " +
                                     std::to_string(FreeSpace()));
  }
  if (tuple_len > 0x7FFFu) {
    return Status::InvalidArgument("tuple exceeds 32KB line-pointer limit");
  }

  const uint16_t lo = lower();
  const uint16_t up = upper();
  const uint16_t new_upper = static_cast<uint16_t>(up - tuple_len);
  const uint32_t slot = ItemCount();

  // Tuple header.
  uint8_t* t = mutable_data_ + new_upper;
  std::memset(t, 0, layout_.tuple_header_size);
  const uint32_t xmin = 2;  // FrozenTransactionId: always-visible bulk load
  std::memcpy(t + 0, &xmin, 4);
  // ctid: (block unknown here, slot+1 as offset number), matching heap rules
  const uint16_t offset_number = static_cast<uint16_t>(slot + 1);
  std::memcpy(t + 16, &offset_number, 2);
  const uint16_t infomask2 = static_cast<uint16_t>(attr_count & 0x07FFu);
  std::memcpy(t + layout_.AttrCountOffset(), &infomask2, 2);
  const uint16_t infomask = 0x0800u;  // HEAP_XMAX_INVALID
  std::memcpy(t + layout_.AttrCountOffset() + 2, &infomask, 2);
  t[layout_.HoffOffset()] =
      static_cast<uint8_t>(layout_.tuple_header_size);  // hoff
  if (!payload.empty()) {
    std::memcpy(t + layout_.tuple_header_size, payload.data(), payload.size());
  }

  // Line pointer.
  const uint32_t packed = PackItemId(new_upper, kLpNormal, tuple_len);
  WriteU32(lo, packed);

  WriteU16(layout_.lower_offset,
           static_cast<uint16_t>(lo + layout_.item_id_size));
  WriteU16(layout_.upper_offset, new_upper);
  return slot;
}

Result<std::pair<uint32_t, uint32_t>> PageView::GetItemId(uint32_t slot) const {
  if (slot >= ItemCount()) {
    return Status::OutOfRange("slot " + std::to_string(slot) +
                              " >= item count " +
                              std::to_string(ItemCount()));
  }
  const uint32_t packed =
      ReadU32(layout_.header_size + slot * layout_.item_id_size);
  uint32_t off, flags, len;
  UnpackItemId(packed, &off, &flags, &len);
  if (flags != kLpNormal) {
    return Status::NotFound("slot " + std::to_string(slot) + " is not live");
  }
  return std::make_pair(off, len);
}

Result<std::span<const uint8_t>> PageView::GetTupleRaw(uint32_t slot) const {
  DANA_ASSIGN_OR_RETURN(auto item, GetItemId(slot));
  const auto [off, len] = item;
  if (off + len > layout_.page_size) {
    return Status::Corruption("tuple extends past page end");
  }
  return std::span<const uint8_t>(data_ + off, len);
}

Result<std::span<const uint8_t>> PageView::GetTuplePayload(uint32_t slot) const {
  DANA_ASSIGN_OR_RETURN(auto raw, GetTupleRaw(slot));
  if (raw.size() < layout_.tuple_header_size) {
    return Status::Corruption("tuple shorter than its header");
  }
  const uint8_t hoff = raw[layout_.HoffOffset()];
  if (hoff > raw.size()) {
    return Status::Corruption("tuple hoff past tuple end");
  }
  return raw.subspan(hoff);
}

Status PageView::Validate() const {
  const uint16_t lo = lower();
  const uint16_t up = upper();
  const uint16_t sp = special();
  if (lo < layout_.header_size) {
    return Status::Corruption("lower inside page header");
  }
  if (lo > up) return Status::Corruption("lower > upper");
  if (up > sp) return Status::Corruption("upper > special");
  if (sp > layout_.page_size) return Status::Corruption("special > page size");
  const uint32_t n = ItemCount();
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t packed =
        ReadU32(layout_.header_size + i * layout_.item_id_size);
    uint32_t off, flags, len;
    UnpackItemId(packed, &off, &flags, &len);
    if (flags == kLpUnused) continue;
    if (off < up || off + len > sp) {
      return Status::Corruption("line pointer " + std::to_string(i) +
                                " outside tuple area");
    }
  }
  return Status::OK();
}

}  // namespace dana::storage
