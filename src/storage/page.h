#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/page_layout.h"

namespace dana::storage {

/// Read-only view over one heap page image.
///
/// PageView does not own the underlying bytes; it parses a caller-owned
/// buffer (a Table's page image, which may be shared by many pages) and
/// cannot write it. All multi-byte fields are little-endian, matching the
/// byte layout documented in PageLayout.
class PageView {
 public:
  PageView(const uint8_t* data, const PageLayout& layout)
      : data_(data), layout_(layout) {}

  /// @name Header accessors
  ///@{
  uint16_t lower() const { return ReadU16(layout_.lower_offset); }
  uint16_t upper() const { return ReadU16(layout_.upper_offset); }
  uint16_t special() const { return ReadU16(layout_.special_offset); }
  uint64_t lsn() const { return ReadU64(0); }
  ///@}

  /// Number of line pointers on the page.
  uint32_t ItemCount() const;

  /// Free bytes between the line pointer array and tuple data.
  uint32_t FreeSpace() const;

  /// User payload of the tuple in `slot` (header stripped).
  Result<std::span<const uint8_t>> GetTuplePayload(uint32_t slot) const;

  /// Raw tuple bytes including the 24-byte tuple header.
  Result<std::span<const uint8_t>> GetTupleRaw(uint32_t slot) const;

  /// Line pointer fields for `slot`: byte offset and total length.
  Result<std::pair<uint32_t, uint32_t>> GetItemId(uint32_t slot) const;

  /// Structural validation: bounds, ordering, line pointers inside
  /// [upper, special). Used by tests and by the buffer pool on fetch.
  dana::Status Validate() const;

  const PageLayout& layout() const { return layout_; }
  const uint8_t* data() const { return data_; }

 protected:
  uint16_t ReadU16(uint32_t off) const {
    uint16_t v;
    std::memcpy(&v, data_ + off, 2);
    return v;
  }
  uint32_t ReadU32(uint32_t off) const {
    uint32_t v;
    std::memcpy(&v, data_ + off, 4);
    return v;
  }
  uint64_t ReadU64(uint32_t off) const {
    uint64_t v;
    std::memcpy(&v, data_ + off, 8);
    return v;
  }

  const uint8_t* data_;
  PageLayout layout_;
};

/// Read/write view over one heap page image: a PageView that can also
/// format the page and append tuples. Only the code that builds a page
/// (Table's bulk load, tests) holds one.
class Page : public PageView {
 public:
  /// Wraps `data` (which must be layout.page_size bytes) without modifying it.
  Page(uint8_t* data, const PageLayout& layout)
      : PageView(data, layout), mutable_data_(data) {}

  /// Formats the buffer as an empty page (PageInit): zeroes the header,
  /// sets lower/upper/special.
  void InitEmpty();

  void set_lsn(uint64_t v) { WriteU64(0, v); }

  /// Appends a tuple with the given user payload. Writes the tuple header
  /// (attribute count into infomask2, hoff) and a new line pointer.
  /// Returns the 0-based slot index, or ResourceExhausted when full.
  Result<uint32_t> AddTuple(std::span<const uint8_t> payload,
                            uint16_t attr_count);

 private:
  void WriteU16(uint32_t off, uint16_t v) {
    std::memcpy(mutable_data_ + off, &v, 2);
  }
  void WriteU32(uint32_t off, uint32_t v) {
    std::memcpy(mutable_data_ + off, &v, 4);
  }
  void WriteU64(uint32_t off, uint64_t v) {
    std::memcpy(mutable_data_ + off, &v, 8);
  }

  uint8_t* mutable_data_;
};

/// Packs a PostgreSQL ItemIdData: offset(15) | flags(2) | length(15).
uint32_t PackItemId(uint32_t offset, uint32_t flags, uint32_t length);

/// Unpacks an ItemIdData into (offset, flags, length).
void UnpackItemId(uint32_t packed, uint32_t* offset, uint32_t* flags,
                  uint32_t* length);

/// Line-pointer flag values (matching PostgreSQL's LP_*).
inline constexpr uint32_t kLpUnused = 0;
inline constexpr uint32_t kLpNormal = 1;
inline constexpr uint32_t kLpRedirect = 2;
inline constexpr uint32_t kLpDead = 3;

}  // namespace dana::storage
