#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/random.h"
#include "workload/tpcxbb.h"

namespace udao {
namespace perfbench {

namespace {

// One independent random stream per (seed, workload).
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 31;
  z *= 0x94D049BB133111EBULL;
  return z ^ (z >> 29);
}

// 1-based nearest rank ceil(p/100 * n), in integer per-mille so that p95 of
// 200 samples is rank 190 exactly, not a rounding error away from it.
std::size_t NearestRank(std::size_t n, double p) {
  const auto permille = static_cast<std::size_t>(std::llround(p * 10.0));
  const std::size_t rank = (permille * n + 999) / 1000;
  return std::clamp<std::size_t>(rank, 1, n);
}

// Jittered stratified weight: cell `cell` of `cells` equal cells over
// [0.1, 0.9], at a seeded position inside the cell. Cells are fixed per
// request slot, so every seed asks for nearly the same trade-offs and
// per-request averages do not drift with the seed.
double CellWeight(int cell, int cells, Rng* rng) {
  return 0.1 + 0.8 * (cell + rng->Uniform()) / cells;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w :
       {Workload::kColdFrontier, Workload::kWarmHit, Workload::kStageRefine}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kColdFrontier:
      return "cold_frontier";
    case Workload::kWarmHit:
      return "warm_hit";
    case Workload::kStageRefine:
      return "stage_refine";
  }
  return "?";
}

std::vector<JobPlan> JobPool() {
  std::vector<JobPlan> jobs;
  for (int t = 1; t <= kJobs; ++t) {
    JobPlan job;
    job.job = ((t - 1) % kVariants) * kNumTpcxbbTemplates + t;
    job.trace_seed = 1000 + static_cast<uint64_t>(job.job);
    job.slo_quantile = kSloQuantile;
    jobs.push_back(job);
  }
  return jobs;
}

Schedule MakeSchedule(uint64_t seed, Workload workload) {
  static_assert(kJobs == kNumTpcxbbTemplates && kJobs % kVariants == 0);
  Schedule s;
  Rng rng(StreamSeed(seed, 1 + static_cast<uint64_t>(workload)));
  s.jobs = JobPool();
  rng.Shuffle(&s.jobs);

  if (workload == Workload::kColdFrontier) {
    for (int j = 0; j < kJobs; ++j) {
      std::array<RequestPlan, kClients> round;
      const int slo_client = rng.UniformInt(0, kClients - 1);
      for (int c = 0; c < kClients; ++c) {
        RequestPlan& p = round[c];
        p.job_index = j;
        p.tenant = c == slo_client ? 1 : 0;
        const int slot = s.jobs[j].job % kJobs * kTenants + p.tenant;
        p.latency_weight = CellWeight(slot, kJobs * kTenants, &rng);
      }
      s.rounds.push_back(round);
    }
    return s;
  }
  // Warm/stage: per job, kRequestsPerJob slots with fixed weight cells and a
  // fixed mix -- a third per policy, half per slope side, one warm request
  // in four densified -- in seeded order.
  const int n = kJobs * kRequestsPerJob;
  for (int c = 0; c < kClients; ++c) {
    std::vector<RequestPlan>& seq = s.sequences[c];
    for (int j = 0; j < kJobs; ++j) {
      for (int k = 0; k < kRequestsPerJob; ++k) {
        RequestPlan p;
        p.job_index = j;
        const int slot = k * kJobs + s.jobs[j].job % kJobs;
        p.latency_weight = CellWeight(slot, n, &rng);
        const int mix = slot + c;
        p.policy = mix % 3 == 0   ? RecommendPolicy::kWun
                   : mix % 3 == 1 ? RecommendPolicy::kKnee
                                  : RecommendPolicy::kSlope;
        p.slope_side = mix % 2 == 0 ? SlopeSide::kLeft : SlopeSide::kRight;
        if (workload == Workload::kWarmHit && k % 4 == c % 4) {
          p.densify_samples = kDensifySamples;
        }
        seq.push_back(p);
      }
    }
    rng.Shuffle(&seq);
  }
  return s;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t rank = NearestRank(values.size(), p);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

std::size_t MinSamplesFor(double p, std::size_t min_tail) {
  std::size_t n = 1;
  while (SamplesBeyond(n, p) < min_tail) ++n;
  return n;
}

double HighestResolvablePercentile(std::size_t n, std::size_t min_tail) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    if (SamplesBeyond(n, p) >= min_tail) best = p;
  }
  return best;
}

std::string PlanKey(const Schedule& schedule, const RequestPlan& plan) {
  return std::to_string(schedule.jobs[plan.job_index].job) + "/t" +
         std::to_string(plan.tenant);
}

std::vector<std::string> RoundKeys(const Schedule& schedule, int round) {
  std::vector<std::string> keys;
  for (const RequestPlan& p : schedule.rounds[round]) {
    keys.push_back(PlanKey(schedule, p));
  }
  return keys;
}

}  // namespace perfbench
}  // namespace udao
