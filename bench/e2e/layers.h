// Host-time spans for bench_e2e's traced run, and replays of the layer
// calls the repo makes internally.
//
// Spans are recorded only from the benchmark's own code, around calls into
// public layer functions. Where a layer calls the next one inside the repo
// (WorkloadInstance::Create generating a dataset, Accelerator::Train
// walking pages), the traced run replays that work through the same public
// calls — ml::GenerateDataset, BufferPool::FetchPage, AccessEngine::WalkPage,
// ScalarEvaluator::EvalBatch — so each layer gets its own span.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "compiler/compiler.h"
#include "e2e.h"
#include "obs/json.h"
#include "runtime/systems.h"

namespace dana::e2e {

/// In-memory span recorder. Every span has a layer name, a start, an end,
/// the span that encloses it, and the rep (and, where one applies, the
/// query) it belongs to; spans of one rep or query share those ids. Timed
/// reps count from 1; setup and replay spans carry rep 0. Per-layer totals
/// cover every span. The Chrome trace keeps every top-level span and the
/// first kMaxEventsPerRep nested spans of each rep, so a traced scheduler
/// rep of millions of executor calls stays loadable.
class Spans {
 public:
  static constexpr size_t kMaxEventsPerRep = 40000;

  /// A layer's accumulated host time. The address is stable for the
  /// recorder's lifetime, so hot paths resolve it once.
  struct Layer {
    std::string name;
    double seconds = 0.0;
    uint64_t calls = 0;
  };

  Spans();

  Layer* layer(const std::string& name);

  /// Times one call into a layer; a no-op when `spans` is null.
  class Scope {
   public:
    Scope(Spans* spans, Layer* layer, uint64_t rep, int64_t query = -1);
    Scope(Spans* spans, const char* layer, uint64_t rep, int64_t query = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Files the span under `layer` instead, for a call whose layer is
    /// known only once it returns.
    void Relabel(Layer* layer) { layer_ = layer; }

   private:
    Spans* spans_;
    Layer* layer_ = nullptr;
    Clock::time_point start_;
    uint64_t seq_ = 0;
    uint64_t rep_;
    int64_t query_;
  };

  /// Adds `n` to a per-layer count (pages walked, tuple ops, ...).
  void Count(const std::string& name, double n);

  const std::map<std::string, std::unique_ptr<Layer>>& layers() const {
    return layers_;
  }
  const std::map<std::string, double>& counts() const { return counts_; }
  size_t kept_events() const { return events_.size(); }
  size_t dropped_events() const { return dropped_; }

  /// The spans as Chrome trace_event JSON (chrome://tracing, Perfetto).
  obs::Json ChromeTrace() const;

 private:
  struct Event {
    const Layer* layer;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t seq;
    uint64_t parent;
    uint64_t rep;
    int64_t query;
  };

  uint64_t Open();
  void Close(Layer* layer, Clock::time_point start, uint64_t seq,
             uint64_t rep, int64_t query);

  Clock::time_point origin_;
  std::map<std::string, std::unique_ptr<Layer>> layers_;
  std::map<std::string, double> counts_;
  std::vector<Event> events_;
  std::map<uint64_t, size_t> kept_per_rep_;
  std::vector<uint64_t> open_;
  uint64_t next_seq_ = 1;
  size_t dropped_ = 0;
};

/// Adds one pool's activity, its stats since they were last reset, to the
/// storage.* counts; a no-op when `spans` is null.
void CountPool(Spans* spans, const storage::BufferPoolStats& stats);

/// Replays dataset generation and table encoding for `workload` (the two
/// steps WorkloadInstance::Create runs before sizing its pools) under the
/// spans ml.generate and ml.build_table.
dana::Status ReplayGenerate(const ml::Workload& workload, Spans* spans,
                            uint64_t rep);

/// Replays the compiler front end for `instance` (hdfg.translate,
/// compiler.lower), then times the full compile (compiler.compile) and
/// counts the lowered per-tuple ops (compiler.tuple_ops).
dana::Result<compiler::CompiledUdf> ReplayCompile(
    const runtime::WorkloadInstance& instance, Spans* spans, uint64_t rep);

/// Runs one epoch of Accelerator::Train from `cache` (accel.train), then
/// replays that epoch through the calls Train makes per page and per batch
/// (storage.fetch, strider.walk, engine.eval). Tuple decoding and batching
/// glue run unspanned inside the accel.replay span, so accel.replay minus
/// the three children is the accelerator's own time. Adds the epoch's
/// simulated stage times (paper scale, in seconds) and the stage that
/// bounded it to `sim`. Fails unless the replay trains the same model
/// Train did. `spans` must not be null.
dana::Status ReplayEpoch(const compiler::CompiledUdf& udf,
                         runtime::WorkloadInstance* instance,
                         runtime::CacheState cache, Spans* spans,
                         uint64_t rep, int64_t query,
                         std::map<std::string, double>* sim);

}  // namespace dana::e2e
