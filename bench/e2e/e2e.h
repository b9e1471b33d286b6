// Shared declarations of the end-to-end benchmark (bench_e2e).
//
// A workload is set up, then runs timed reps of identical work, each
// starting from identical state. A rep reports how many
// operations it attempted and how many failed their correctness checks,
// plus the simulated results it produced: those are deterministic, so every
// rep must reproduce rep 1 exactly, and at the default seed they must match
// the golden committed under bench/e2e/golden/.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/stats_writer.h"

namespace dana::e2e {

/// The seed at which every workload reproduces the registry's datasets and
/// the scheduler driver's default request streams (DriverOptions::seed).
inline constexpr uint64_t kDefaultSeed = 0xDA7A5EEDull;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

class Spans;

/// One simulated result of a rep (a speedup, a latency percentile, ...).
struct SimMetric {
  std::string name;
  double value = 0.0;
  obs::Direction better = obs::Direction::kInfo;
  std::string unit;
};

/// What one timed rep did.
struct RepOutcome {
  /// Host seconds of the rep's timed work (checks excluded).
  double host_s = 0.0;
  uint64_t ops = 0;     ///< operations attempted
  uint64_t failed = 0;  ///< operations that failed a correctness check
  uint64_t tuples = 0;  ///< tuples the simulated accelerator consumed
  /// FNV-1a over every op's simulated result, in op order.
  uint64_t digest = 0;
  /// Simulated end-to-end results; names are the same on every rep.
  std::vector<SimMetric> sim;
  /// Simulated per-layer statistics (counts and simulated times).
  std::map<std::string, double> sim_layers;
};

/// One benchmark workload. The benchmark constructs it, calls Setup once,
/// then RunRep repeatedly; a traced run passes a span recorder to both and
/// finally calls Replay.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first timed rep.
  virtual dana::Status Setup(Spans* spans) = 0;

  /// One rep of the workload's timed work. Checks every op against rep 1
  /// (kept internally) and counts the ones that fail. `spans` is null in
  /// untraced reps.
  virtual dana::Result<RepOutcome> RunRep(Spans* spans) = 0;

  /// Traced runs only: replays one epoch of the accelerator work the timed
  /// reps (or, for the scheduler workloads, the setup's endpoint
  /// measurements) run, through the lower layers' public calls, so each
  /// layer gets its own span. Adds the replayed epochs' simulated stage
  /// statistics to `sim`.
  virtual dana::Status Replay(Spans* spans,
                              std::map<std::string, double>* sim) = 0;
};

/// The benchmark's workloads, in the order `--all` runs them.
const std::vector<std::string>& WorkloadNames();

/// The named workload for `seed`; NotFound for an unknown name.
dana::Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                                     uint64_t seed);

std::unique_ptr<Workload> MakeTrainPublic(uint64_t seed);
std::unique_ptr<Workload> MakeTrainWide(uint64_t seed);
std::unique_ptr<Workload> MakeSchedOpen(uint64_t seed);
std::unique_ptr<Workload> MakeSchedPreemptTiered(uint64_t seed);

/// Order-sensitive FNV-1a digest of simulated results.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001B3ull;
    }
    Add(static_cast<uint64_t>(s.size()));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace dana::e2e
