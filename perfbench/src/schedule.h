#ifndef UDAO_PERFBENCH_SCHEDULE_H_
#define UDAO_PERFBENCH_SCHEDULE_H_

// Seed -> workload inputs, and the order statistics the benchmark reports.
//
// A run's inputs are a fixed job pool (TPCx-BB jobs, their trace-sampling
// seeds and latency SLOs) and request streams derived from `--seed`: the job
// order and, per client, preference weights, recommendation policies,
// densification and which client carries the SLO tenant. The program under
// test only ever sees the generated requests.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tuning/udao.h"

namespace udao {
namespace perfbench {

enum class Workload { kColdFrontier, kWarmHit, kStageRefine };

/// "cold_frontier" / "warm_hit" / "stage_refine"; false on an unknown name.
bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

/// Closed-loop clients per workload. Two, not four: on a 4-vCPU host the
/// service's admission and solver threads need the other cores.
inline constexpr int kClients = 2;

/// One TPCx-BB job of the run.
struct JobPlan {
  int job = 0;                  ///< Paper job number, 1..258.
  uint64_t trace_seed = 0;      ///< Seeds the job's training-config sample.
  /// The SLO tenant's latency bound, as a quantile of the job's own training
  /// latencies (resolved to seconds at setup, once the traces exist).
  double slo_quantile = 0.5;
};

/// Tenant 0 asks for the unconstrained latency/cost frontier; tenant 1 adds
/// a latency SLO (ObjectiveSpec::upper). The two never share a cache key.
inline constexpr int kTenants = 2;

/// One request of a schedule, before it is bound to a service.
struct RequestPlan {
  int job_index = 0;  ///< Index into Schedule::jobs.
  int tenant = 0;
  double latency_weight = 0.5;  ///< Cost weight is 1 - latency_weight.
  RecommendPolicy policy = RecommendPolicy::kWun;
  SlopeSide slope_side = SlopeSide::kLeft;
  int densify_samples = 0;
};

/// Densification asked for by one warm request in four (the only variant,
/// so priming covers every densified frontier the timed phase can hit).
inline constexpr int kDensifySamples = 16;
inline constexpr double kDensifyRadius = 0.05;

struct Schedule {
  std::vector<JobPlan> jobs;
  /// cold_frontier: one pass; round r asks for job r with both tenants at
  /// once, rounds[r][c] going to client c. Passes repeat the same rounds.
  std::vector<std::array<RequestPlan, kClients>> rounds;
  /// warm_hit / stage_refine: each client cycles through its own sequence.
  std::array<std::vector<RequestPlan>, kClients> sequences;
};

/// Jobs per run: one per TPCx-BB template, each at a fixed data-scale
/// variant (variants 0..kVariants-1 dealt round-robin, so each appears
/// kJobs / kVariants times).
inline constexpr int kJobs = 30;
inline constexpr int kVariants = 6;
/// The SLO tenant's bound, as a quantile of the job's training latencies.
inline constexpr double kSloQuantile = 0.55;
/// Warm/stage requests generated per job per client (the cycle length).
inline constexpr int kRequestsPerJob = 8;

/// The fixed job pool: jobs, trace-sampling seeds and SLOs. These set how
/// much solver work a key costs; they do not vary with the seed because
/// one slow key swings a whole run (see README.md, "Seeds").
std::vector<JobPlan> JobPool();

/// Pure function of (seed, workload): the job order and, per client, the
/// request streams (preference weights, policies, densification, which
/// client carries the SLO tenant).
Schedule MakeSchedule(uint64_t seed, Workload workload);

/// Order statistics -------------------------------------------------------

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
std::size_t SamplesBeyond(std::size_t n, double p);

/// Smallest sample count for which percentile `p` has at least `min_tail`
/// samples beyond it.
std::size_t MinSamplesFor(double p, std::size_t min_tail);

/// The highest of the p50/p90/p95/p99/p99.9 ladder that has at least
/// `min_tail` samples beyond it among `n`; 0 when not even p50 does.
double HighestResolvablePercentile(std::size_t n, std::size_t min_tail);

/// Keys a round sends, one per client, in client order.
std::vector<std::string> RoundKeys(const Schedule& schedule, int round);

/// Cache-key stand-in for a request plan: "job/tenant". Two plans with the
/// same key hit the same cached frontier.
std::string PlanKey(const Schedule& schedule, const RequestPlan& plan);

}  // namespace perfbench
}  // namespace udao

#endif  // UDAO_PERFBENCH_SCHEDULE_H_
