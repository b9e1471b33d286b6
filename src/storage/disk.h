#pragma once

#include <cstdint>

#include "common/sim_time.h"

namespace dana::storage {

/// Timing model of the backing store that feeds the buffer pool.
///
/// The evaluation machine in the paper used a 256 GB SATA SSD; the default
/// parameters approximate that device. Cold-cache runs pay this cost for
/// every page; warm-cache runs only for pages not resident in the pool.
struct DiskModel {
  /// Sequential read bandwidth, bytes per second.
  double seq_read_bw = 500e6;
  /// Rate at which a page is re-read once it is resident in the OS page
  /// cache (kernel memory copy); re-scans of tables that fit in RAM run at
  /// this rate rather than disk speed.
  double os_cache_bw = 3e9;
  /// Fixed per-request latency (command overhead + flash access).
  dana::SimTime request_latency = dana::SimTime::Micros(80);
  /// Number of pages fetched per read request (read-ahead). Sequential heap
  /// scans amortize request latency over this many pages.
  uint32_t readahead_pages = 32;

  /// Time to sequentially read `bytes` via requests of
  /// `readahead_pages * page_size` bytes.
  dana::SimTime SeqReadTime(uint64_t bytes, uint32_t page_size) const {
    if (bytes == 0) return dana::SimTime::Zero();
    const uint64_t chunk =
        static_cast<uint64_t>(readahead_pages) * page_size;
    const uint64_t requests = (bytes + chunk - 1) / chunk;
    return dana::SimTime::Seconds(static_cast<double>(bytes) / seq_read_bw) +
           request_latency * static_cast<double>(requests);
  }
};

}  // namespace dana::storage
