#include "sched/workload_driver.h"

#include <cmath>
#include <memory>

#include "common/random.h"

namespace dana::sched {

const char* PopularityName(Popularity p) {
  switch (p) {
    case Popularity::kZipfian:
      return "zipf";
    case Popularity::kUniform:
      return "uniform";
  }
  return "?";
}

Result<Popularity> ParsePopularity(const std::string& name) {
  if (name == "zipf" || name == "zipfian") return Popularity::kZipfian;
  if (name == "uniform") return Popularity::kUniform;
  return Status::InvalidArgument("unknown distribution '" + name +
                                 "' (want zipf|uniform)");
}

double PopularityWeight(Popularity popularity, size_t rank, double exponent) {
  return popularity == Popularity::kZipfian
             ? 1.0 / std::pow(static_cast<double>(rank + 1), exponent)
             : 1.0;
}

Result<double> WeightedMeanServiceSeconds(QueryExecutor& executor,
                                          const std::vector<std::string>& catalog,
                                          Popularity popularity,
                                          double exponent) {
  if (catalog.empty()) {
    return Status::InvalidArgument("workload catalog is empty");
  }
  double weighted = 0, total = 0;
  for (size_t rank = 0; rank < catalog.size(); ++rank) {
    DANA_ASSIGN_OR_RETURN(std::unique_ptr<BatchExecution> exec,
                          executor.Begin(QueryBatch::Single(catalog[rank])));
    DANA_ASSIGN_OR_RETURN(SliceCost run, exec->NextSlice(0));
    const double w = PopularityWeight(popularity, rank, exponent);
    weighted += w * run.service.seconds();
    total += w;
  }
  return weighted / total;
}

WorkloadDriver::WorkloadDriver(std::vector<std::string> catalog,
                               DriverOptions options)
    : catalog_(std::move(catalog)), options_(options) {}

namespace {

/// Popularity CDF over catalog ranks (uniform == exponent 0 Zipf).
std::vector<double> BuildCdf(Popularity popularity, size_t ranks,
                             double exponent) {
  std::vector<double> cdf(ranks);
  double total = 0;
  for (size_t r = 0; r < ranks; ++r) {
    total += PopularityWeight(popularity, r, exponent);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

size_t PickRank(const std::vector<double>& cdf, double pick) {
  size_t rank = 0;
  while (rank + 1 < cdf.size() && pick > cdf[rank]) ++rank;
  return rank;
}

}  // namespace

Result<std::vector<QueryRequest>> WorkloadDriver::Generate() const {
  if (catalog_.empty()) {
    return Status::InvalidArgument("workload catalog is empty");
  }
  if (options_.arrival_rate_qps <= 0) {
    return Status::InvalidArgument("arrival rate must be positive");
  }
  if (options_.popularity == Popularity::kZipfian &&
      options_.zipf_exponent < 0) {
    return Status::InvalidArgument("zipf exponent must be non-negative");
  }

  const std::vector<double> cdf = BuildCdf(
      options_.popularity, catalog_.size(), options_.zipf_exponent);

  Rng rng(options_.seed);
  std::vector<QueryRequest> requests;
  requests.reserve(options_.num_queries);
  dana::SimTime clock;
  for (uint32_t i = 0; i < options_.num_queries; ++i) {
    // Exponential inter-arrival gap of the Poisson process.
    double u = rng.Uniform();
    if (u >= 1.0 - 1e-12) u = 1.0 - 1e-12;
    clock += dana::SimTime::Seconds(-std::log1p(-u) /
                                    options_.arrival_rate_qps);

    const double pick = rng.Uniform();
    const size_t rank = PickRank(cdf, pick);

    QueryRequest req;
    req.id = i;
    req.workload_id = catalog_[rank];
    req.arrival = clock;
    req.query_class = rank < options_.interactive_ranks
                          ? QueryClass::kInteractive
                          : QueryClass::kBatch;
    requests.push_back(std::move(req));
  }
  return requests;
}

Result<std::vector<std::vector<std::string>>> WorkloadDriver::GenerateSessions()
    const {
  if (catalog_.empty()) {
    return Status::InvalidArgument("workload catalog is empty");
  }
  if (options_.sessions == 0) {
    return Status::InvalidArgument("closed loop needs at least one session");
  }
  if (options_.popularity == Popularity::kZipfian &&
      options_.zipf_exponent < 0) {
    return Status::InvalidArgument("zipf exponent must be non-negative");
  }

  const std::vector<double> cdf = BuildCdf(
      options_.popularity, catalog_.size(), options_.zipf_exponent);

  // Same RNG discipline as Generate(): one arrival draw (discarded — in
  // closed loop the schedule makes the arrivals) and one popularity pick
  // per query, so the algorithm sequence matches the open stream's.
  Rng rng(options_.seed);
  std::vector<std::vector<std::string>> sessions(options_.sessions);
  for (uint32_t i = 0; i < options_.num_queries; ++i) {
    (void)rng.Uniform();
    const size_t rank = PickRank(cdf, rng.Uniform());
    sessions[i % options_.sessions].push_back(catalog_[rank]);
  }
  return sessions;
}

}  // namespace dana::sched
