#pragma once

#include <cstdint>

namespace dana::storage {

/// Byte-level constants of the PostgreSQL-style heap page format produced by
/// this storage engine and parsed by Strider programs (paper Figure 6).
///
/// Layout of a page of `page_size` bytes:
///
///   [ 0, 24)                 page header
///   [24, 24 + 4*n_items)     line pointers (4 bytes each), growing up
///   [lower, upper)           free space
///   [upper, special)         tuple data, growing down from special space
///   [special, page_size)     special space (unused by heap pages)
///
/// Page header fields (offsets in bytes):
///   0  u64  lsn
///   8  u16  checksum
///   10 u16  flags
///   12 u16  lower          -- end of line pointer array
///   14 u16  upper          -- start of tuple data
///   16 u16  special        -- start of special space
///   18 u16  pagesize_version
///   20 u32  prune_xid
///
/// Each line pointer is a packed u32: offset(15) | flags(2) | length(15),
/// exactly PostgreSQL's ItemIdData.
///
/// Each tuple is prefixed by a fixed 24-byte header:
///   0  u32  xmin
///   4  u32  xmax
///   8  u32  field3 (cid / xvac)
///   12 u48  ctid (block u32, offset u16)
///   18 u16  infomask2 (low 11 bits = attribute count)
///   20 u16  infomask
///   22 u8   hoff -- offset of user data from tuple start (== 24 here)
///   23 u8   padding
struct PageLayout {
  /// Total page size in bytes (8, 16, or 32 KiB in the paper's sweeps).
  uint32_t page_size = 32 * 1024;
  /// Size of the fixed page header.
  uint32_t header_size = 24;
  /// Size of one line pointer.
  uint32_t item_id_size = 4;
  /// Size of the fixed per-tuple header.
  uint32_t tuple_header_size = 24;
  /// Bytes reserved at the end of the page (index pages use this; 0 for heap).
  uint32_t special_size = 0;

  /// Offsets of the lower/upper/special fields within the page header.
  /// These are what the Strider program generator reads (config registers),
  /// which is how one ISA targets "a range of RDBMS engines, such as
  /// PostgreSQL and MySQL (innoDB), that have similar back-end page
  /// layouts" (paper 5.1.2): a different engine is a different config.
  uint32_t lower_offset = 12;
  uint32_t upper_offset = 14;
  uint32_t special_offset = 16;

  /// PostgreSQL-compatible defaults (the values above).
  static PageLayout Postgres(uint32_t page_size = 32 * 1024) {
    PageLayout l;
    l.page_size = page_size;
    return l;
  }

  /// A MySQL/InnoDB-flavoured layout: larger page header (FIL header +
  /// page header), compact 16-byte record headers, same slotted-page
  /// structure. Walked by the identical Strider program with different
  /// configuration registers.
  static PageLayout MySqlLike(uint32_t page_size = 16 * 1024) {
    PageLayout l;
    l.page_size = page_size;
    l.header_size = 56;
    l.tuple_header_size = 16;
    l.lower_offset = 20;
    l.upper_offset = 22;
    l.special_offset = 24;
    return l;
  }

  /// Offset of the attribute-count (infomask2) field within a tuple header.
  uint32_t AttrCountOffset() const { return tuple_header_size - 6; }
  /// Offset of the hoff byte (user-data start) within a tuple header.
  uint32_t HoffOffset() const { return tuple_header_size - 2; }

  /// Space available for line pointers + tuples on an empty page.
  uint32_t UsableBytes() const {
    return page_size - header_size - special_size;
  }

  /// Bytes consumed per tuple of `payload` user-data bytes (line pointer +
  /// tuple header + payload).
  uint32_t BytesPerTuple(uint32_t payload) const {
    return item_id_size + tuple_header_size + payload;
  }

  /// Max tuples of `payload` user-data bytes that fit on one page.
  uint32_t TuplesPerPage(uint32_t payload) const {
    return UsableBytes() / BytesPerTuple(payload);
  }
};

}  // namespace dana::storage
