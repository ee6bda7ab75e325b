// Tests of the benchmark itself: the order statistics it reports, the
// seed -> schedule mapping, the cold_frontier round/tenant partition, and
// the pass-through model shell the traced run measures models with.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "model/model_server.h"
#include "serving/udao_service.h"
#include "spark/engine.h"
#include "workload/trace_gen.h"

#include "../src/instrument.h"
#include "../src/schedule.h"

namespace udao {
namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileTest, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(HighestResolvablePercentile(19, 10), 0.0);
  EXPECT_EQ(HighestResolvablePercentile(20, 10), 50.0);
  EXPECT_EQ(HighestResolvablePercentile(100, 10), 90.0);
  EXPECT_EQ(HighestResolvablePercentile(199, 10), 90.0);
  EXPECT_EQ(HighestResolvablePercentile(200, 10), 95.0);
  EXPECT_EQ(HighestResolvablePercentile(999, 10), 95.0);
  EXPECT_EQ(HighestResolvablePercentile(1000, 10), 99.0);
  EXPECT_EQ(HighestResolvablePercentile(10000, 10), 99.9);
  EXPECT_EQ(MinSamplesFor(95.0, 10), 200u);
  EXPECT_EQ(SamplesBeyond(200, 95.0), 10u);
  EXPECT_EQ(SamplesBeyond(199, 95.0), 9u);
}

TEST(PercentileTest, NearestRankOnSmallSamples) {
  EXPECT_EQ(Percentile({}, 95.0), 0.0);
  EXPECT_EQ(Percentile({7.0}, 95.0), 7.0);
  EXPECT_EQ(Percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.0);
  EXPECT_EQ(Percentile(OneTo(5), 95.0), 5.0);
  EXPECT_EQ(Percentile(OneTo(20), 95.0), 19.0);
  EXPECT_EQ(Percentile(OneTo(200), 95.0), 190.0);
  EXPECT_EQ(Percentile(OneTo(1000), 99.9), 999.0);
}

bool SamePlan(const RequestPlan& a, const RequestPlan& b) {
  return a.job_index == b.job_index && a.tenant == b.tenant &&
         a.latency_weight == b.latency_weight && a.policy == b.policy &&
         a.slope_side == b.slope_side &&
         a.densify_samples == b.densify_samples;
}

bool SameSchedule(const Schedule& a, const Schedule& b) {
  if (a.jobs.size() != b.jobs.size() || a.rounds.size() != b.rounds.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    if (a.jobs[i].job != b.jobs[i].job ||
        a.jobs[i].trace_seed != b.jobs[i].trace_seed ||
        a.jobs[i].slo_quantile != b.jobs[i].slo_quantile) {
      return false;
    }
  }
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    for (int c = 0; c < kClients; ++c) {
      if (!SamePlan(a.rounds[r][c], b.rounds[r][c])) return false;
    }
  }
  for (int c = 0; c < kClients; ++c) {
    if (a.sequences[c].size() != b.sequences[c].size()) return false;
    for (std::size_t i = 0; i < a.sequences[c].size(); ++i) {
      if (!SamePlan(a.sequences[c][i], b.sequences[c][i])) return false;
    }
  }
  return true;
}

TEST(ScheduleTest, SameSeedSameSchedule) {
  for (Workload w : {Workload::kColdFrontier, Workload::kWarmHit,
                     Workload::kStageRefine}) {
    EXPECT_TRUE(SameSchedule(MakeSchedule(7, w), MakeSchedule(7, w)));
    EXPECT_FALSE(SameSchedule(MakeSchedule(7, w), MakeSchedule(8, w)));
  }
}

TEST(ScheduleTest, FixedPoolEveryTemplateOnceVariantsBalanced) {
  std::vector<int> pool;
  for (const JobPlan& j : JobPool()) pool.push_back(j.job);
  std::sort(pool.begin(), pool.end());
  std::set<int> templates;
  std::vector<int> per_variant(kVariants, 0);
  for (int job : pool) {
    templates.insert((job - 1) % kJobs);
    ++per_variant[(job - 1) / kJobs];
  }
  EXPECT_EQ(templates.size(), static_cast<std::size_t>(kJobs));
  for (int n : per_variant) EXPECT_EQ(n, kJobs / kVariants);
  // Every seed and workload runs the pool, in its own order.
  for (uint64_t seed : {1ULL, 2ULL, 99ULL}) {
    for (Workload w : {Workload::kColdFrontier, Workload::kWarmHit,
                       Workload::kStageRefine}) {
      std::vector<int> jobs;
      for (const JobPlan& j : MakeSchedule(seed, w).jobs) jobs.push_back(j.job);
      std::sort(jobs.begin(), jobs.end());
      EXPECT_EQ(jobs, pool);
    }
  }
}

TEST(ScheduleTest, StreamsAreBalancedMixes) {
  // A key's weight stays in its fixed cell; only the position inside the
  // cell moves with the seed.
  auto weights = [](uint64_t seed) {
    const Schedule s = MakeSchedule(seed, Workload::kColdFrontier);
    std::map<std::string, double> w;
    for (int r = 0; r < kJobs; ++r) {
      for (const RequestPlan& p : s.rounds[r]) {
        w[PlanKey(s, p)] = p.latency_weight;
      }
    }
    return w;
  };
  const auto a = weights(4);
  const auto b = weights(5);
  ASSERT_EQ(a.size(), static_cast<std::size_t>(kJobs * kTenants));
  for (const auto& [key, w] : a) {
    EXPECT_NE(w, b.at(key));
    EXPECT_LT(std::abs(w - b.at(key)), 0.8 / (kJobs * kTenants)) << key;
  }
  const Schedule warm = MakeSchedule(4, Workload::kWarmHit);
  for (int c = 0; c < kClients; ++c) {
    int per_policy[3] = {0, 0, 0};
    for (const RequestPlan& p : warm.sequences[c]) {
      ++per_policy[static_cast<int>(p.policy)];
    }
    for (int n : per_policy) EXPECT_EQ(3 * n, kJobs * kRequestsPerJob);
  }
}

TEST(ScheduleTest, WarmDensifiesOneRequestInFour) {
  const Schedule warm = MakeSchedule(3, Workload::kWarmHit);
  const Schedule stage = MakeSchedule(3, Workload::kStageRefine);
  for (int c = 0; c < kClients; ++c) {
    int densified = 0;
    for (const RequestPlan& p : warm.sequences[c]) {
      densified += p.densify_samples > 0;
      EXPECT_EQ(p.tenant, 0);
    }
    EXPECT_EQ(4 * densified, static_cast<int>(warm.sequences[c].size()));
    for (const RequestPlan& p : stage.sequences[c]) {
      EXPECT_EQ(p.densify_samples, 0);
    }
  }
}

TEST(ScheduleTest, RoundsNeverShareAKeyAndPassesNeverRepeatOne) {
  for (uint64_t seed : {1ULL, 5ULL, 12345ULL}) {
    const Schedule s = MakeSchedule(seed, Workload::kColdFrontier);
    std::set<std::string> pass_keys;
    for (int r = 0; r < static_cast<int>(s.rounds.size()); ++r) {
      const std::vector<std::string> keys = RoundKeys(s, r);
      ASSERT_EQ(keys.size(), static_cast<std::size_t>(kClients));
      // Both clients ask for the same job, each as a different tenant.
      EXPECT_EQ(s.rounds[r][0].job_index, s.rounds[r][1].job_index);
      EXPECT_NE(keys[0], keys[1]);
      for (const std::string& k : keys) {
        EXPECT_TRUE(pass_keys.insert(k).second) << "key repeated: " << k;
      }
    }
    EXPECT_EQ(pass_keys.size(), static_cast<std::size_t>(kJobs * kTenants));
  }
}

bool BitwiseEqual(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(CountingModelTest, ShellLeavesFrontierBitsUnchanged) {
  SparkEngine engine;
  ModelServer server;
  const BatchWorkload job = MakeTpcxbbWorkload(9);
  Rng rng(11);
  CollectBatchTraces(engine, job,
                     SampleConfigs(BatchParamSpace(), 60,
                                   SamplingStrategy::kLatinHypercube, &rng),
                     &server);
  UdaoRequest plain;
  plain.workload_id = job.id;
  plain.space = &BatchParamSpace();
  plain.objectives = {{.name = objectives::kLatency},
                      {.name = objectives::kCostCores}};
  plain.preference_weights = {0.4, 0.6};

  Udao resolver(&server);
  auto resolved = resolver.ResolveObjectives(plain);
  ASSERT_TRUE(resolved.ok());
  UdaoRequest shelled = plain;
  shelled.objectives = *resolved;
  std::vector<std::shared_ptr<CountingModel>> shells;
  for (ObjectiveSpec& spec : shelled.objectives) {
    shells.push_back(std::make_shared<CountingModel>(spec.model));
    EXPECT_EQ(shells.back()->FuseIdentity(), spec.model->FuseIdentity());
    spec.model = shells.back();
  }

  // Two services: one service's coalescer memo would serve the second
  // request the first one's bits without evaluating through the shell.
  UdaoService plain_service(&server);
  UdaoService shelled_service(&server);
  auto a = plain_service.Submit(plain).Wait();
  auto b = shelled_service.Submit(shelled).Wait();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(a->frontier.frontier.empty());
  ASSERT_EQ(a->frontier.frontier.size(), b->frontier.frontier.size());
  for (std::size_t i = 0; i < a->frontier.frontier.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(a->frontier.frontier[i].objectives,
                             b->frontier.frontier[i].objectives));
    EXPECT_TRUE(BitwiseEqual(a->frontier.frontier[i].conf_encoded,
                             b->frontier.frontier[i].conf_encoded));
  }
  EXPECT_TRUE(BitwiseEqual(a->conf_raw, b->conf_raw));
  // The shell saw the traffic it is there to count.
  EXPECT_GT(shells[0]->counts().rows, 0);
  EXPECT_GE(shells[0]->counts().rows, shells[0]->counts().calls);
}

}  // namespace
}  // namespace perfbench
}  // namespace udao
