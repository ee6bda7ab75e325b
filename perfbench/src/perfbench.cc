// The repository benchmark: drives UdaoService in-process, through its public
// API, from one load-generator process with two closed-loop client threads.
//
//   perfbench --workload <cold_frontier|warm_hit|stage_refine> --seed N
//             --seconds S --trace <0|1> [--spans PATH]
//
// The job pool is fixed and the request streams come from --seed (see
// schedule.h). Every response is checked;
// the last stdout line is one JSON object {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics; --trace 1 runs a
// separate traced pass and reports the per-layer metrics (README.md has the
// definitions and the layer -> end-to-end map).
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "model/model_server.h"
#include "moo/densify.h"
#include "moo/pareto.h"
#include "moo/progressive_frontier.h"
#include "moo/solve_coalescer.h"
#include "serving/udao_service.h"
#include "spark/engine.h"
#include "tuning/udao.h"
#include "workload/trace_gen.h"

#include "instrument.h"
#include "schedule.h"

namespace udao {
namespace perfbench {
namespace {

constexpr int kTracesPerJob = 120;
constexpr int kSetupRepeats = 3;
/// Whole-overlay refine budget per stage (scaled by stage count in the
/// service). Far above the measured refine time, so a fallback is a
/// regression, never host jitter.
constexpr double kResolveBudgetMs = 1000.0;
constexpr double kTailPercentile = 95.0;
constexpr std::size_t kMinTail = 10;
/// Measurement windows. warm_hit / stage_refine time windows of
/// `--seconds / kWindows`; cold_frontier's windows are whole passes. A run
/// reports the kTimedWindows (kTimedPasses) windows with the least host
/// steal, and runs past its minimum -- up to kMaxWindows (kMaxPasses) --
/// while it has fewer quiet windows than that: steal arrives in episodes of
/// seconds, and a window that lost a fifth of its CPU to other tenants
/// measures them, not the program.
constexpr int kWindows = 10;
constexpr int kMaxWindows = 15;
constexpr int kTimedWindows = 5;
constexpr int kTimedPasses = 4;
constexpr int kMaxPasses = 5;
constexpr double kQuietSteal = 0.03;
/// cold_frontier requests replayed layer by layer in the traced run.
constexpr int kReplayRounds = 3;
/// stage_refine recommendations re-solved directly in the traced run.
constexpr int kStageDirectCalls = 60;

struct Args {
  Workload workload = Workload::kColdFrontier;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &a->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--spans") {
      a->spans_path = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && a->seconds > 0;
}

// ---------------------------------------------------------------- digests --

struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = (h ^ bits) * 1099511628211ULL;
    h ^= h >> 29;
  }
  void Add(const Vector& v) {
    Add(static_cast<double>(v.size()));
    for (double x : v) Add(x);
  }
};

uint64_t FrontierDigest(const PfResult& f) {
  Digest d;
  for (const MooPoint& p : f.frontier) {
    d.Add(p.objectives);
    d.Add(p.conf_encoded);
  }
  return d.h | 1;  // 0 means "not seen yet"
}

uint64_t RecommendationDigest(const UdaoRecommendation& rec) {
  Digest d;
  d.Add(rec.conf_raw);
  for (const auto& [stage, knobs] : rec.stage_overlay.overrides) {
    d.Add(static_cast<double>(stage));
    for (const auto& [knob, value] : knobs) {
      d.Add(static_cast<double>(knob));
      d.Add(value);
    }
  }
  return d.h | 1;
}

// ------------------------------------------------------------------ setup --

struct Job {
  JobPlan plan;
  BatchWorkload workload;
  double slo_s = 0;
  /// Measurement box (latency s, cores) from the job's training traces.
  Vector box_lo;
  Vector box_hi;
  /// Traced runs only: the resolved objectives behind pass-through shells.
  std::vector<ObjectiveSpec> shells;
  std::vector<std::shared_ptr<CountingModel>> counters;
};

UdaoServiceConfig ServiceConfig(Workload w, const SparkEngine* engine) {
  UdaoServiceConfig cfg;
  if (w == Workload::kStageRefine) cfg.engine = engine;
  return cfg;
}

int FrontierId(const RequestPlan& p) {
  return (p.job_index * kTenants + p.tenant) * 2 + (p.densify_samples > 0);
}
constexpr int kFrontierIds = kJobs * kTenants * 2;

UdaoRequest Bind(const Job& job, const RequestPlan& p, Workload w,
                 bool traced) {
  UdaoRequest r;
  r.workload_id = job.workload.id;
  r.space = &BatchParamSpace();
  if (traced) {
    r.objectives = job.shells;
  } else {
    r.objectives = {{.name = objectives::kLatency},
                    {.name = objectives::kCostCores}};
  }
  if (p.tenant == 1) r.objectives[0].upper = job.slo_s;
  r.preference_weights = {p.latency_weight, 1.0 - p.latency_weight};
  r.options.policy = p.policy;
  r.options.slope_side = p.slope_side;
  r.options.densify_samples = p.densify_samples;
  r.options.densify_radius = kDensifyRadius;
  if (w == Workload::kStageRefine) {
    r.flow = &job.workload.flow;
    r.options.adaptive.granularity = AdaptiveGranularity::kStage;
    r.options.adaptive.resolve_budget_ms = kResolveBudgetMs;
  }
  return r;
}

// Requests that fill the frontier cache before the timed phase: one per
// job, then (warm_hit) one per densified variant. Densification applies only
// to cache hits, so the variants go in a second wave, after every frontier
// is cached.
std::vector<std::vector<RequestPlan>> PrimingWaves(Workload w) {
  std::vector<std::vector<RequestPlan>> waves(w == Workload::kWarmHit ? 2 : 1);
  for (int j = 0; j < kJobs; ++j) {
    RequestPlan p;
    p.job_index = j;
    waves[0].push_back(p);
    if (w == Workload::kWarmHit) {
      p.densify_samples = kDensifySamples;
      waves[1].push_back(p);
    }
  }
  return waves;
}

// ------------------------------------------------------------ client logs --

struct Recorded {
  uint64_t digest = 0;  ///< 0 = not seen.
  Vector conf_raw;
  StageConfOverlay overlay;
};

struct SeenFrontier {
  uint64_t digest = 0;  ///< 0 = not seen.
  PfResult frontier;
};

/// One request's timing (floats keep the log small).
struct Sample {
  float e2e_ms = 0;
  float queue_ms = 0;    ///< UdaoRecommendation::queue_wait_ms.
  float service_ms = 0;  ///< UdaoRecommendation::seconds.
};

/// Latency samples per measurement window, reservoir-capped at kReservoir
/// per window: the log is part of the process's peak RSS, which must not
/// grow with the request rate.
struct SampleLog {
  static constexpr std::size_t kReservoir = 8192;
  std::vector<std::vector<Sample>> kept;
  std::vector<long long> seen;
  /// First and last completion time in each window (ms since the phase
  /// began), for a rate that is not quantized to whole requests.
  std::vector<double> first_ms;
  std::vector<double> last_ms;
  uint64_t rng = 0x9E3779B97F4A7C15ULL;

  void Grow(std::size_t windows) {
    if (windows <= kept.size()) return;
    kept.resize(windows);
    seen.resize(windows, 0);
    first_ms.resize(windows, 1e300);
    last_ms.resize(windows, -1e300);
  }
  void Add(int window, const Sample& sample, double done_ms) {
    Grow(window + 1);
    first_ms[window] = std::min(first_ms[window], done_ms);
    last_ms[window] = std::max(last_ms[window], done_ms);
    std::vector<Sample>& w = kept[window];
    const long long n = ++seen[window];
    if (w.size() < kReservoir) {
      w.push_back(sample);
      return;
    }
    rng ^= rng << 13;  // xorshift64: cheap, and only picks which sample goes
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const uint64_t j = rng % static_cast<uint64_t>(n);
    if (j < kReservoir) w[j] = sample;
  }
  void Merge(const SampleLog& other) {
    Grow(other.kept.size());
    for (std::size_t w = 0; w < other.kept.size(); ++w) {
      kept[w].insert(kept[w].end(), other.kept[w].begin(),
                     other.kept[w].end());
      seen[w] += other.seen[w];
      first_ms[w] = std::min(first_ms[w], other.first_ms[w]);
      last_ms[w] = std::max(last_ms[w], other.last_ms[w]);
    }
  }
  std::vector<Sample> All() const {
    std::vector<Sample> all;
    for (const auto& w : kept) all.insert(all.end(), w.begin(), w.end());
    return all;
  }
};

std::vector<double> E2eMs(const std::vector<Sample>& samples) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(s.e2e_ms);
  return v;
}

/// What one client saw. Merged (and cross-checked) after each phase.
struct ClientLog {
  SampleLog samples;
  long long attempted = 0;
  long long failed = 0;
  long long fallbacks = 0;  ///< stage requests served without an overlay.
  std::string first_error;
  std::vector<SeenFrontier> frontiers = std::vector<SeenFrontier>(kFrontierIds);
  std::map<int, Recorded> recs;  ///< By request descriptor.

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

/// Checks one response and records what it returned; failures count
/// against the log and name the first one.
void CheckResponse(const StatusOr<UdaoRecommendation>& rec,
                   const RequestPlan& plan, int descriptor, Workload w,
                   ClientLog* log) {
  if (!rec.ok()) {
    log->Fail("request failed: " + rec.status().ToString());
    return;
  }
  if (rec->degraded) {
    log->Fail("degraded response");
    return;
  }
  if (rec->frontier.frontier.empty()) {
    log->Fail("empty frontier");
    return;
  }
  if (w == Workload::kStageRefine && rec->stage_overlay.empty()) {
    ++log->fallbacks;
    log->Fail("stage request served without an overlay");
    return;
  }
  SeenFrontier& seen = log->frontiers[FrontierId(plan)];
  const uint64_t fd = FrontierDigest(rec->frontier);
  if (seen.digest == 0) {
    if (!MutuallyNonDominated(rec->frontier.frontier)) {
      log->Fail("frontier has a dominated point");
      return;
    }
    seen.digest = fd;
    seen.frontier = rec->frontier;
  } else if (seen.digest != fd) {
    log->Fail("frontier digest changed for a key");
    return;
  }
  Recorded& r = log->recs[descriptor];
  const uint64_t rd = RecommendationDigest(*rec);
  if (r.digest == 0) {
    r.digest = rd;
    r.conf_raw = rec->conf_raw;
    r.overlay = rec->stage_overlay;
  } else if (r.digest != rd) {
    log->Fail("recommendation changed for identical inputs");
  }
}

/// Folds `from` into `into`, failing on any digest that disagrees.
void MergeLog(ClientLog* into, ClientLog& from) {
  into->samples.Merge(from.samples);
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->fallbacks += from.fallbacks;
  if (into->first_error.empty()) into->first_error = from.first_error;
  for (int f = 0; f < kFrontierIds; ++f) {
    SeenFrontier& a = into->frontiers[f];
    SeenFrontier& b = from.frontiers[f];
    if (b.digest == 0) continue;
    if (a.digest == 0) {
      a = std::move(b);
    } else if (a.digest != b.digest) {
      into->Fail("clients saw different frontiers for one key");
    }
  }
  for (auto& [d, r] : from.recs) {
    auto [it, inserted] = into->recs.try_emplace(d, r);
    if (!inserted && it->second.digest != r.digest) {
      into->Fail("clients saw different recommendations for one request");
    }
  }
}

/// Cross-phase reference: the first digest ever seen per frontier key
/// (priming, the first pass, or the untraced phase of a traced run).
struct References {
  std::vector<uint64_t> frontier = std::vector<uint64_t>(kFrontierIds, 0);
  long long mismatches = 0;

  void Check(const ClientLog& log) {
    for (int f = 0; f < kFrontierIds; ++f) {
      const uint64_t d = log.frontiers[f].digest;
      if (d == 0) continue;
      if (frontier[f] == 0) {
        frontier[f] = d;
      } else if (frontier[f] != d) {
        ++mismatches;
      }
    }
  }
};

/// One setup's products. Member order matters: the service (last) is
/// destroyed before the server and the engine it points at.
struct World {
  SparkEngine engine;
  std::unique_ptr<ModelServer> server;
  std::vector<Job> jobs;
  std::unique_ptr<UdaoService> service;
  double collect_ms = 0;
  double train_ms = 0;
  double prime_ms = 0;
  /// Priming responses: the reference every later response must match.
  ClientLog prime_log;
};

/// (Re)builds world->service and fills its cache with every frontier the
/// workload's schedule can ask for, from kClients threads.
bool Prime(World* world, Workload w, bool traced) {
  const auto p0 = Clock::now();
  world->service.reset();
  world->service = std::make_unique<UdaoService>(
      world->server.get(), ServiceConfig(w, &world->engine));
  ClientLog logs[kClients];
  int descriptor = 0;
  for (const std::vector<RequestPlan>& plans : PrimingWaves(w)) {
    std::atomic<int> next{0};
    auto prime = [&](int c) {
      for (int i = next++; i < static_cast<int>(plans.size()); i = next++) {
        const Job& job = world->jobs[plans[i].job_index];
        auto rec =
            world->service->Submit(Bind(job, plans[i], w, traced)).Wait();
        ++logs[c].attempted;
        CheckResponse(rec, plans[i], -1 - descriptor - i, w, &logs[c]);
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(prime, c);
    for (std::thread& t : threads) t.join();
    descriptor += static_cast<int>(plans.size());
  }
  world->prime_ms = MsBetween(p0, Clock::now());
  world->prime_log = ClientLog();
  for (ClientLog& l : logs) MergeLog(&world->prime_log, l);
  if (world->prime_log.failed > 0) {
    std::fprintf(stderr, "priming failed: %s\n",
                 world->prime_log.first_error.c_str());
    return false;
  }
  return true;
}

std::unique_ptr<World> Setup(const Schedule& s, Workload w) {
  auto world = std::make_unique<World>();
  world->server = std::make_unique<ModelServer>();
  // Train in pool order, whatever the schedule's order: the model server
  // draws every model's initialization from one generator, so the training
  // order fixes the model bits.
  std::map<int, Job> trained;
  for (const JobPlan& plan : JobPool()) {
    Job job{.plan = plan, .workload = MakeTpcxbbWorkload(plan.job)};
    Rng rng(plan.trace_seed);
    const std::vector<Vector> configs =
        SampleConfigs(BatchParamSpace(), kTracesPerJob,
                      SamplingStrategy::kLatinHypercube, &rng);
    const auto t0 = Clock::now();
    const std::vector<TraceRecord> traces = CollectBatchTraces(
        world->engine, job.workload, configs, world->server.get());
    const auto t1 = Clock::now();
    world->collect_ms += MsBetween(t0, t1);
    auto model = world->server->GetModel(job.workload.id, objectives::kLatency);
    world->train_ms += MsBetween(t1, Clock::now());
    if (!model.ok()) {
      std::fprintf(stderr, "training job %d failed: %s\n", plan.job,
                   model.status().ToString().c_str());
      return nullptr;
    }
    // Measurement box: the Pareto set of the job's own training runs
    // (latency, cores); utopia and nadir are its corners.
    std::vector<double> lat;
    std::vector<MooPoint> observed;
    for (const TraceRecord& t : traces) {
      lat.push_back(t.metrics.latency_s);
      observed.push_back({{t.metrics.latency_s, CostInCores(t.conf_raw)}, {}});
    }
    job.box_lo = {1e300, 1e300};
    job.box_hi = {-1e300, -1e300};
    for (const MooPoint& p : ParetoFilter(std::move(observed))) {
      for (int d = 0; d < 2; ++d) {
        job.box_lo[d] = std::min(job.box_lo[d], p.objectives[d]);
        job.box_hi[d] = std::max(job.box_hi[d], p.objectives[d]);
      }
    }
    std::sort(lat.begin(), lat.end());
    job.slo_s = lat[static_cast<std::size_t>(plan.slo_quantile *
                                             (lat.size() - 1))];
    trained.emplace(plan.job, std::move(job));
  }
  for (const JobPlan& plan : s.jobs) {
    world->jobs.push_back(std::move(trained.at(plan.job)));
  }

  if (w != Workload::kColdFrontier && !Prime(world.get(), w, false)) {
    return nullptr;
  }
  return world;
}

/// Wraps every job's resolved objectives in pass-through CountingModel
/// shells; traced requests carry these as explicit models.
bool BuildShells(World* world) {
  Udao resolver(world->server.get());
  for (Job& job : world->jobs) {
    UdaoRequest r = Bind(job, RequestPlan(), Workload::kWarmHit, false);
    auto resolved = resolver.ResolveObjectives(r);
    if (!resolved.ok()) return false;
    for (ObjectiveSpec spec : *resolved) {
      auto shell = std::make_shared<CountingModel>(spec.model);
      job.counters.push_back(shell);
      spec.model = shell;
      job.shells.push_back(spec);
    }
  }
  return true;
}

// ------------------------------------------------------------ timed phase --

struct PhaseOptions {
  double seconds = 0;
  std::size_t min_samples = 0;
  int timed_windows = kTimedWindows;  ///< Windows (passes) reported.
  int max_windows = kMaxWindows;      ///< Cap on windows (passes) run.
  bool traced = false;
  Tracer* tracer = nullptr;  ///< Records one span per request when set.
};

struct CacheCounts {
  long long hits = 0;
  long long misses = 0;
  long long evictions = 0;
  long long invalidations = 0;
  void Add(const UdaoServiceStats& a, const UdaoServiceStats& b) {
    hits += b.cache_hits - a.cache_hits;
    misses += b.cache_misses - a.cache_misses;
    evictions += b.evictions - a.evictions;
    invalidations += b.invalidations - a.invalidations;
  }
};

/// One measurement window of a timed phase: a fixed slice of time
/// (warm_hit, stage_refine) or one pass over the job list (cold_frontier).
struct Window {
  double p50_ms = 0;
  double p95_ms = 0;
  double rps = 0;
  double cpu_ms_per_req = 0;
  double steal_frac = 0;  ///< Host steal over the window.
  std::size_t samples = 0;
};

struct PhaseResult {
  ClientLog log;
  std::vector<Window> windows;
  double wall_s = 0;
  double cpu_s = 0;
  CacheCounts cache;
  CacheCounts expected;
  std::vector<long long> pass_model_evals;  ///< cold: per pass.
  long long pass_requests = 0;              ///< cold: requests per pass.
  std::vector<std::string> gate_failures;
};

void RecordRequestSpans(Tracer* tracer, int64_t request, Clock::time_point t0,
                        Clock::time_point t1,
                        const StatusOr<UdaoRecommendation>& rec) {
  if (tracer == nullptr) return;
  const int64_t root = tracer->NextId();
  if (rec.ok()) {
    // The service reports how long the request queued and how long it was
    // in service; place both inside the client-observed span.
    const auto queue_end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(rec->queue_wait_ms));
    const auto service_end =
        queue_end + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(rec->seconds));
    tracer->Record("serving.queue_wait", root, request, t0, queue_end);
    tracer->Record("serving.in_service", root, request, queue_end,
                   service_end);
  }
  tracer->RecordWithId(root, "client.request", 0, request, t0, t1);
}

void LogSample(ClientLog* log, int window, Clock::time_point start,
               Clock::time_point t0, Clock::time_point t1,
               const StatusOr<UdaoRecommendation>& rec) {
  Sample s;
  s.e2e_ms = static_cast<float>(MsBetween(t0, t1));
  if (rec.ok()) {
    s.queue_ms = static_cast<float>(rec->queue_wait_ms);
    s.service_ms = static_cast<float>(1e3 * rec->seconds);
  }
  log->samples.Add(window, s, MsBetween(start, t1));
}

int QuietWindows(const std::vector<Window>& windows) {
  return static_cast<int>(
      std::count_if(windows.begin(), windows.end(), [](const Window& w) {
        return w.steal_frac <= kQuietSteal;
      }));
}

/// Indices of the `n` windows with the least host steal (earliest first on
/// ties), in time order.
std::vector<int> QuietestWindows(const std::vector<Window>& windows, int n) {
  std::vector<int> idx(windows.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
    return windows[a].steal_frac < windows[b].steal_frac;
  });
  idx.resize(std::min<std::size_t>(idx.size(), n));
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Per-shard frontier-cache capacity of a service (UdaoService's rule).
int PerShardCapacity(const UdaoService& service) {
  const UdaoServiceConfig& c = service.config();
  return std::max(1, c.frontier_cache_capacity / std::max(1, c.cache_shards));
}

long long ModelEvalsCounter() {
  return MetricsRegistry::Global().CounterValue("udao.mogd.model_evals");
}

/// cold_frontier: both clients ask for one job in lockstep rounds (one
/// tenant each); a fresh service per pass over the job list keeps every
/// request a miss on a never-seen key. Runs whole passes only, so every run
/// times each key equally often; each pass is one measurement window.
PhaseResult RunCold(World& world, const Schedule& s, const PhaseOptions& o) {
  PhaseResult out;
  ClientLog logs[kClients];
  std::unique_ptr<UdaoService> service;
  std::vector<long long> inserts;
  int round = 0;
  int pass = 0;
  long long pass_evals_start = 0;
  double pass_cpu_start = 0;
  HostCpu pass_host_start;
  Clock::time_point pass_start;
  std::atomic<int64_t> request_ids{0};
  UdaoServiceStats before;
  const Clock::time_point start = Clock::now();
  const long long pass_requests =
      static_cast<long long>(s.rounds.size()) * kClients;

  auto open_pass = [&] {
    service = std::make_unique<UdaoService>(
        world.server.get(), ServiceConfig(Workload::kColdFrontier, nullptr));
    inserts.assign(service->config().cache_shards, 0);
    before = service->stats();
    pass_evals_start = ModelEvalsCounter();
    pass_cpu_start = ProcessCpuSeconds();
    pass_host_start = ReadHostCpu();
    pass_start = Clock::now();
  };
  auto close_pass = [&] {
    Window win;
    win.samples = static_cast<std::size_t>(pass_requests);
    win.rps = pass_requests / (MsBetween(pass_start, Clock::now()) / 1e3);
    win.cpu_ms_per_req =
        1e3 * (ProcessCpuSeconds() - pass_cpu_start) / pass_requests;
    win.steal_frac = StealFraction(pass_host_start, ReadHostCpu());
    out.windows.push_back(win);
    out.cache.Add(before, service->stats());
    const long long cap = PerShardCapacity(*service);
    for (long long n : inserts) out.expected.evictions += std::max(0LL, n - cap);
    out.pass_model_evals.push_back(ModelEvalsCounter() - pass_evals_start);
    service.reset();
  };

  std::barrier sync(kClients + 1);
  std::atomic<bool> stop{false};
  auto client = [&](int c) {
    while (true) {
      sync.arrive_and_wait();  // round published
      if (stop) return;
      const RequestPlan& plan = s.rounds[round][c];
      const Job& job = world.jobs[plan.job_index];
      const UdaoRequest req = Bind(job, plan, Workload::kColdFrontier,
                                   o.traced);
      const int64_t id = ++request_ids;
      const auto t0 = Clock::now();
      auto rec = service->Submit(req).Wait();
      const auto t1 = Clock::now();
      ++logs[c].attempted;
      LogSample(&logs[c], pass, start, t0, t1, rec);
      RecordRequestSpans(o.tracer, id, t0, t1, rec);
      CheckResponse(rec, plan, plan.job_index * kTenants + plan.tenant,
                    Workload::kColdFrontier, &logs[c]);
      sync.arrive_and_wait();  // round done
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);

  const double cpu0 = ProcessCpuSeconds();
  while (true) {
    if (round == 0) open_pass();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    inserts[service->ShardOf(world.jobs[s.rounds[round][0].job_index]
                                 .workload.id)] += kClients;
    if (++round < static_cast<int>(s.rounds.size())) continue;
    close_pass();
    round = 0;
    ++pass;
    const std::size_t samples = logs[0].attempted + logs[1].attempted;
    if (samples >= o.min_samples &&
        MsBetween(start, Clock::now()) >= 1e3 * o.seconds &&
        (QuietWindows(out.windows) >= o.timed_windows ||
         pass >= o.max_windows)) {
      break;
    }
  }
  out.wall_s = MsBetween(start, Clock::now()) / 1e3;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  stop = true;
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();

  for (ClientLog& l : logs) MergeLog(&out.log, l);
  out.expected.misses = out.log.attempted;
  out.pass_requests = pass_requests;
  return out;
}

/// Windows of a time-sliced phase from the per-window samples.
std::vector<Window> SliceWindows(const SampleLog& log,
                                 const std::vector<double>& cpu_marks) {
  std::vector<Window> out;
  for (int w = 0; w + 1 < static_cast<int>(cpu_marks.size()); ++w) {
    Window win;
    if (w < static_cast<int>(log.kept.size())) {
      const std::vector<double> lat = E2eMs(log.kept[w]);
      win.samples = static_cast<std::size_t>(log.seen[w]);
      win.p50_ms = Percentile(lat, 50.0);
      win.p95_ms = Percentile(lat, kTailPercentile);
    }
    if (win.samples > 1) {
      win.rps = (win.samples - 1) /
                ((log.last_ms[w] - log.first_ms[w]) / 1e3);
    }
    if (win.samples > 0) {
      win.cpu_ms_per_req =
          1e3 * (cpu_marks[w + 1] - cpu_marks[w]) / win.samples;
    }
    out.push_back(win);
  }
  return out;
}

/// warm_hit / stage_refine: each client cycles through its own request
/// sequence against one primed service for at least kWindows windows of
/// `seconds / kWindows` (more while too few were quiet), then finishes its
/// current cycle, so every run sends whole cycles of the same mix.
PhaseResult RunLoop(World& world, UdaoService& service, const Schedule& s,
                    Workload w, const PhaseOptions& o) {
  PhaseResult out;
  ClientLog logs[kClients];
  std::vector<UdaoRequest> bound[kClients];
  for (int c = 0; c < kClients; ++c) {
    for (const RequestPlan& p : s.sequences[c]) {
      bound[c].push_back(Bind(world.jobs[p.job_index], p, w, o.traced));
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<int64_t> request_ids{0};
  const double window_ms = 1e3 * o.seconds / kWindows;
  const UdaoServiceStats before = service.stats();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  auto client = [&](int c) {
    const std::size_t n = bound[c].size();
    for (std::size_t i = 0; !(stop && i % n == 0); ++i) {
      const std::size_t k = i % n;
      const int64_t id = ++request_ids;
      const auto t0 = Clock::now();
      auto rec = service.Submit(bound[c][k]).Wait();
      const auto t1 = Clock::now();
      ++logs[c].attempted;
      // Window by completion time; the tail after the last window (the
      // clients finishing their cycles) is checked but not timed.
      const int window = std::min(
          kMaxWindows, static_cast<int>(MsBetween(start, t1) / window_ms));
      LogSample(&logs[c], window, start, t0, t1, rec);
      RecordRequestSpans(o.tracer, id, t0, t1, rec);
      CheckResponse(rec, s.sequences[c][k], c * static_cast<int>(n) + k, w,
                    &logs[c]);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  std::vector<double> cpu_marks = {cpu0};
  std::vector<HostCpu> host_marks = {ReadHostCpu()};
  std::vector<Window> steal_only;
  for (int k = 1; k <= o.max_windows; ++k) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(k * window_ms)));
    cpu_marks.push_back(ProcessCpuSeconds());
    host_marks.push_back(ReadHostCpu());
    steal_only.emplace_back().steal_frac =
        StealFraction(host_marks[k - 1], host_marks[k]);
    if (k >= kWindows && QuietWindows(steal_only) >= o.timed_windows) break;
  }
  stop = true;
  for (std::thread& t : threads) t.join();
  out.wall_s = MsBetween(start, Clock::now()) / 1e3;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  out.cache.Add(before, service.stats());
  for (ClientLog& l : logs) MergeLog(&out.log, l);
  out.windows = SliceWindows(out.log.samples, cpu_marks);
  for (std::size_t k = 0; k < out.windows.size(); ++k) {
    out.windows[k].steal_frac = steal_only[k].steal_frac;
  }

  // All hits: priming cached every key. A job pool that crowded one cache
  // shard past its capacity would miss and evict here, and the exact gates
  // would fail and say so.
  out.expected.hits = out.log.attempted;
  return out;
}

void GateCounts(PhaseResult* r) {
  auto gate = [r](const char* what, long long got, long long want) {
    if (got != want) {
      r->gate_failures.push_back(std::string(what) + ": got " +
                                 std::to_string(got) + ", expected " +
                                 std::to_string(want));
    }
  };
  gate("cache hits", r->cache.hits, r->expected.hits);
  gate("cache misses", r->cache.misses, r->expected.misses);
  gate("cache evictions", r->cache.evictions, r->expected.evictions);
  gate("cache invalidations", r->cache.invalidations, 0);
  for (long long evals : r->pass_model_evals) {
    gate("mogd.model_evals per pass", evals, r->pass_model_evals.front());
  }
  gate("stage refine fallbacks", r->log.fallbacks, 0);
}

// ---------------------------------------------------------------- quality --

struct Quality {
  double hv_frac = 0;
  double deployed_latency_s = 0;
  double deployed_cores = 0;
};

Quality ComputeQuality(const World& world, const Schedule& s, Workload w,
                       const ClientLog& log) {
  Quality q;
  int keys = 0;
  for (int f = 0; f < kFrontierIds; ++f) {
    const SeenFrontier& seen = log.frontiers[f];
    if (seen.digest == 0) continue;
    const Job& job = world.jobs[f / (2 * kTenants)];
    double box = 1.0;
    for (int d = 0; d < 2; ++d) box *= job.box_hi[d] - job.box_lo[d];
    q.hv_frac +=
        BoxHypervolume(seen.frontier.frontier, job.box_lo, job.box_hi) / box;
    ++keys;
  }
  if (keys > 0) q.hv_frac /= keys;

  double log_latency = 0;
  int n = 0;
  for (const auto& [descriptor, rec] : log.recs) {
    int job_index = 0;
    if (w == Workload::kColdFrontier) {
      job_index = descriptor / kTenants;
    } else {
      const int per_client = static_cast<int>(s.sequences[0].size());
      job_index = s.sequences[descriptor / per_client][descriptor % per_client]
                      .job_index;
    }
    const Dataflow& flow = world.jobs[job_index].workload.flow;
    const double latency =
        w == Workload::kStageRefine
            ? world.engine.RunWithOverlay(flow, rec.conf_raw, rec.overlay)
                  .latency_s
            : world.engine.Latency(flow, rec.conf_raw);
    log_latency += std::log(latency);
    q.deployed_cores += CostInCores(rec.conf_raw);
    ++n;
  }
  if (n > 0) {
    q.deployed_latency_s = std::exp(log_latency / n);
    q.deployed_cores /= n;
  }
  return q;
}

// ----------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, long long attempted, long long failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

struct Timing {
  double p50_ms = 0;
  double p95_ms = 0;
  double rps = 0;
  double cpu_ms_per_req = 0;
  bool tail_resolved = false;  ///< >= kMinTail samples beyond every p95.
  double steal_frac = 0;       ///< Highest steal among the timed windows.
};

/// Medians over the phase's quietest windows. cold_frontier's latency
/// percentiles pool the samples of its quietest passes instead: one pass is
/// too few samples for a p95.
Timing SummarizeTiming(const PhaseResult& r, Workload w, int timed) {
  Timing t;
  std::vector<double> p50, p95, rps, cpu, pooled;
  const std::vector<int> chosen = QuietestWindows(r.windows, timed);
  t.tail_resolved = !chosen.empty();
  for (int i : chosen) {
    const Window& win = r.windows[i];
    p50.push_back(win.p50_ms);
    p95.push_back(win.p95_ms);
    rps.push_back(win.rps);
    cpu.push_back(win.cpu_ms_per_req);
    t.steal_frac = std::max(t.steal_frac, win.steal_frac);
    if (w == Workload::kColdFrontier) {
      const std::vector<double> lat = E2eMs(r.log.samples.kept[i]);
      pooled.insert(pooled.end(), lat.begin(), lat.end());
    } else if (SamplesBeyond(win.samples, kTailPercentile) < kMinTail) {
      t.tail_resolved = false;
    }
  }
  t.rps = Median(rps);
  t.cpu_ms_per_req = Median(cpu);
  if (w == Workload::kColdFrontier) {
    t.p50_ms = Percentile(pooled, 50.0);
    t.p95_ms = Percentile(pooled, kTailPercentile);
    t.tail_resolved = t.tail_resolved &&
        SamplesBeyond(pooled.size(), kTailPercentile) >= kMinTail;
  } else {
    t.p50_ms = Median(p50);
    t.p95_ms = Median(p95);
  }
  return t;
}

PhaseOptions TimedOptions(Workload w, double seconds) {
  PhaseOptions o;
  o.seconds = seconds;
  if (w == Workload::kColdFrontier) {
    o.min_samples = MinSamplesFor(kTailPercentile, kMinTail);
    o.timed_windows = kTimedPasses;
    o.max_windows = kMaxPasses;
  }
  return o;
}

/// Runs the workload's timed phase against `world` (fresh services per
/// pass for cold_frontier, the primed service otherwise).
PhaseResult RunPhase(World& world, const Schedule& s, Workload w,
                     const PhaseOptions& o) {
  PhaseResult r = w == Workload::kColdFrontier
                      ? RunCold(world, s, o)
                      : RunLoop(world, *world.service, s, w, o);
  GateCounts(&r);
  return r;
}

int RunEndToEnd(const Args& a, const Schedule& s) {
  const HostCpu host0 = ReadHostCpu();
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetupRepeats; ++i) {
    world.reset();
    const auto t0 = Clock::now();
    world = Setup(s, a.workload);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
    if (world == nullptr) return 1;
  }
  // Priming responses are the reference every timed response must match.
  References refs;
  refs.Check(world->prime_log);
  const PhaseOptions o = TimedOptions(a.workload, a.seconds);
  PhaseResult r = RunPhase(*world, s, a.workload, o);
  refs.Check(r.log);

  const Quality q = ComputeQuality(*world, s, a.workload, r.log);
  const Timing t = SummarizeTiming(r, a.workload, o.timed_windows);
  const long long attempted = r.log.attempted;
  const long long ok_requests = std::max(
      0LL, attempted - r.log.failed -
               static_cast<long long>(r.gate_failures.size()));
  const bool correct = r.log.failed == 0 && r.gate_failures.empty() &&
                       refs.mismatches == 0 && t.tail_resolved;
  for (const std::string& g : r.gate_failures) {
    std::fprintf(stderr, "gate failed: %s\n", g.c_str());
  }
  if (refs.mismatches > 0) {
    std::fprintf(stderr, "gate failed: %lld frontier digests differ from "
                 "priming\n", refs.mismatches);
  }
  if (!t.tail_resolved) {
    std::fprintf(stderr, "gate failed: fewer than %zu samples beyond p95\n",
                 kMinTail);
  }
  if (!r.log.first_error.empty()) {
    std::fprintf(stderr, "first failure: %s\n", r.log.first_error.c_str());
  }

  const double steal = StealFraction(host0, ReadHostCpu());
  std::printf("{\"workload\": \"%s\", \"host\": %s, \"host.steal_frac\": "
              "%.4f, \"timed_windows_max_steal\": %.4f, \"samples\": %lld, "
              "\"windows\": %zu, \"timed_s\": %.3f, "
              "\"setup_runs_s\": [%.3f, %.3f, %.3f]}\n",
              WorkloadName(a.workload),
              HostInfoJson(ReadHostInfo(), a.seed).c_str(), steal,
              t.steal_frac, attempted, r.windows.size(), r.wall_s,
              setup_s[0], setup_s[1], setup_s[2]);

  const double done = static_cast<double>(attempted);
  std::vector<Metric> m = {
      {"setup_s", Median(setup_s), "s"},
      {"p50_ms", t.p50_ms, "ms"},
      {"p95_ms", t.p95_ms, "ms"},
      {"rps", t.rps, "req/s"},
      {"cpu_ms_per_req", t.cpu_ms_per_req, "ms"},
      {"ok_frac", static_cast<double>(ok_requests) / done, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"hv_frac", q.hv_frac, "ratio"},
      {"deployed_latency_s", q.deployed_latency_s, "s"},
      {"deployed_cores", q.deployed_cores, "cores"},
  };
  PrintResult(correct, attempted, attempted - ok_requests, m);
  return 0;
}

// ------------------------------------------------------------- traced run --

struct CounterDelta {
  std::map<std::string, long long> before;
  static std::map<std::string, long long> Now() {
    return MetricsRegistry::Global().Counters();
  }
  void Start() { before = Now(); }
  long long Get(const std::string& name) const {
    const auto now = Now();
    const auto a = before.find(name);
    const auto b = now.find(name);
    return (b == now.end() ? 0 : b->second) -
           (a == before.end() ? 0 : a->second);
  }
};

CountingModel::Counts ShellCounts(const World& world) {
  CountingModel::Counts total;
  for (const Job& job : world.jobs) {
    for (const auto& shell : job.counters) {
      const CountingModel::Counts c = shell->counts();
      total.calls += c.calls;
      total.rows += c.rows;
      total.seconds += c.seconds;
    }
  }
  return total;
}

/// Layer rows of cold_frontier requests replayed by direct calls, in the
/// service's order: ResolveObjectives -> ProgressiveFrontier::Run (through a
/// timing shell around a SolveCoalescer) -> ConservativeRank -> Recommend.
struct Replay {
  int requests = 0;
  double e2e_ms = 0;
  double resolve_ms = 0;
  double pf_ms = 0;
  double coalescer_wall_ms = 0;
  double solve_ms = 0;
  double rank_ms = 0;
  double recommend_us = 0;
  double problems_per_flush = 0;
  double shared_frac = 0;
  long long digest_mismatches = 0;
};

Replay ReplayCold(World& world, const Schedule& s, const References& refs,
                  Tracer* tracer) {
  Replay out;
  Udao udao(world.server.get());
  const UdaoServiceConfig defaults;
  SolveCoalescerConfig cc;
  cc.max_batch = defaults.coalesce_max_batch;
  cc.max_wait_us = defaults.coalesce_max_wait_us;
  cc.memo_capacity = defaults.coalesce_memo_capacity;
  cc.mogd = udao.options().pf.mogd;
  SolveCoalescer coalescer(cc);
  TimingCoSolver shell(&coalescer, tracer);
  PfConfig pf = udao.options().pf;
  pf.co_solver = &shell;
  int64_t request = 1000000000;
  for (int r = 0; r < kReplayRounds && r < static_cast<int>(s.rounds.size());
       ++r) {
    for (const RequestPlan& plan : s.rounds[r]) {
      const UdaoRequest req = Bind(world.jobs[plan.job_index], plan,
                                   Workload::kColdFrontier, false);
      ++request;
      const int64_t root = tracer->NextId();
      const int64_t pf_span = tracer->NextId();
      shell.ResetTotals();
      shell.SetContext(pf_span, request);
      const auto t0 = Clock::now();
      auto resolved = udao.ResolveObjectives(req);
      const auto t1 = Clock::now();
      if (!resolved.ok()) {
        ++out.digest_mismatches;
        continue;
      }
      const MooProblem problem(req.space, std::move(*resolved));
      ProgressiveFrontier frontier_run(&problem, pf);
      const PfResult frontier =
          frontier_run.Run(udao.options().frontier_points);
      const auto t2 = Clock::now();
      const std::vector<MooPoint> ranked =
          udao.ConservativeRank(problem, frontier.frontier);
      const auto t3 = Clock::now();
      auto rec = udao.Recommend(req, problem, frontier, &ranked);
      const auto t4 = Clock::now();
      tracer->Record("tuning.resolve", root, request, t0, t1);
      tracer->RecordWithId(pf_span, "pf.run", root, request, t1, t2);
      tracer->Record("tuning.rank", root, request, t2, t3);
      tracer->Record("tuning.recommend", root, request, t3, t4);
      tracer->RecordWithId(root, "replay.request", 0, request, t0, t4);
      if (!rec.ok() ||
          FrontierDigest(frontier) != refs.frontier[FrontierId(plan)]) {
        ++out.digest_mismatches;
      }
      ++out.requests;
      out.e2e_ms += MsBetween(t0, t4);
      out.resolve_ms += MsBetween(t0, t1);
      out.pf_ms += MsBetween(t1, t2);
      out.rank_ms += MsBetween(t2, t3);
      out.recommend_us += 1e3 * MsBetween(t3, t4);
      out.coalescer_wall_ms += 1e3 * shell.totals().wall_s;
      out.solve_ms += 1e3 * shell.totals().compute_s;
    }
  }
  const SolveCoalescer::Stats st = coalescer.stats();
  if (st.flushes > 0) {
    out.problems_per_flush = static_cast<double>(st.problems) / st.flushes;
  }
  const long long calls = st.submissions + st.min_solves;
  if (calls > 0) {
    out.shared_frac = static_cast<double>(st.dedup_hits + st.memo_hits +
                                          st.min_dedup_hits + st.min_memo_hits) /
                      calls;
  }
  return out;
}

int TracedMain(const Args& a, const Schedule& s) {
  const Workload w = a.workload;
  const HostCpu host0 = ReadHostCpu();
  std::unique_ptr<World> world = Setup(s, w);
  if (world == nullptr) return 1;
  const double prime_ms = world->prime_ms;
  References refs;
  refs.Check(world->prime_log);

  // Untraced phase: the baseline the tracing overhead is measured against,
  // and the source of the serving-layer and registry numbers.
  // One pass (cold_frontier) or the usual windows over half the time each:
  // these phases measure layers and overhead, not the p95.
  PhaseOptions o = TimedOptions(w, a.seconds / 2);
  if (w == Workload::kColdFrontier) {
    o.min_samples = 0;
    o.timed_windows = 1;
    o.max_windows = 1;
  }
  CounterDelta counters;
  counters.Start();
  PhaseResult plain = RunPhase(*world, s, w, o);
  const long long plain_iterations = counters.Get("udao.mogd.iterations");
  const long long plain_evals = counters.Get("udao.mogd.model_evals");
  const long long stage_fallbacks =
      counters.Get("udao.service.stage_refine_fallbacks");
  refs.Check(plain.log);

  // Traced phase: every model behind a counting shell, one span tree per
  // request. Its frontiers must match the untraced ones bit for bit.
  if (!BuildShells(world.get())) return 1;
  if (w != Workload::kColdFrontier) {
    if (!Prime(world.get(), w, /*traced=*/true)) return 1;
    refs.Check(world->prime_log);
  }
  const CountingModel::Counts shells0 = ShellCounts(*world);
  Tracer tracer;
  PhaseOptions to = o;
  to.traced = true;
  to.tracer = &tracer;
  PhaseResult traced = RunPhase(*world, s, w, to);
  refs.Check(traced.log);
  CountingModel::Counts model = ShellCounts(*world);
  model.calls -= shells0.calls;
  model.rows -= shells0.rows;
  model.seconds -= shells0.seconds;

  // Direct calls into single layers.
  Replay replay;
  double densify_ms = 0, kept_frac = 0, recommend_us = 0;
  double hier_ms = 0, hier_stages = 0, plan_us = 0, stage_evals = 0;
  Udao udao(world->server.get());
  if (w == Workload::kColdFrontier) {
    replay = ReplayCold(*world, s, refs, &tracer);
    if (replay.requests > 0) recommend_us = replay.recommend_us / replay.requests;
  } else if (w == Workload::kWarmHit) {
    int calls = 0;
    long long candidates = 0, added = 0;
    for (int j = 0; j < kJobs; ++j) {
      const PfResult& base = world->prime_log.frontiers[j * 2 * kTenants].frontier;
      auto resolved = udao.ResolveObjectives(
          Bind(world->jobs[j], RequestPlan(), w, false));
      if (!resolved.ok()) return 1;
      const MooProblem problem(&BatchParamSpace(), std::move(*resolved));
      DensifyConfig dc;
      dc.samples_per_point = kDensifySamples;
      dc.radius = kDensifyRadius;
      dc.seed = udao.options().pf.mogd.seed;
      DensifyStats ds;
      const auto t0 = Clock::now();
      DensifyFrontier(problem, base.frontier, dc, StopToken(), &ds);
      const auto t1 = Clock::now();
      tracer.Record("densify", 0, 0, t0, t1);
      densify_ms += MsBetween(t0, t1);
      candidates += ds.candidates;
      added += ds.added;
      // Recommend off a memoized rank, for this job's warm requests.
      const std::vector<MooPoint> ranked =
          udao.ConservativeRank(problem, base.frontier);
      for (const RequestPlan& p : s.sequences[0]) {
        if (p.job_index != j || p.densify_samples > 0) continue;
        const UdaoRequest req = Bind(world->jobs[j], p, w, false);
        const auto r0 = Clock::now();
        const bool ok = udao.Recommend(req, problem, base, &ranked).ok();
        recommend_us += 1e3 * MsBetween(r0, Clock::now());
        if (!ok) return 1;
        ++calls;
      }
    }
    densify_ms /= kJobs;
    kept_frac = candidates > 0 ? static_cast<double>(added) / candidates : 0;
    if (calls > 0) recommend_us /= calls;
  } else {
    CounterDelta evals;
    evals.Start();
    int calls = 0;
    for (const auto& [descriptor, rec] : plain.log.recs) {
      if (calls == kStageDirectCalls) break;
      const int per_client = static_cast<int>(s.sequences[0].size());
      const Job& job =
          world->jobs[s.sequences[descriptor / per_client]
                          [descriptor % per_client].job_index];
      const auto t0 = Clock::now();
      const std::vector<StageProfile> stages = world->engine.PlanStages(
          job.workload.flow, rec.conf_raw, /*planner_estimates=*/true);
      const auto t1 = Clock::now();
      // The same whole-overlay budget the service gives a kStage request.
      const StopToken budget(
          Deadline::AfterMs(kResolveBudgetMs *
                            static_cast<double>(std::max<std::size_t>(
                                1, stages.size()))),
          CancellationToken());
      auto overlay = world->service->ResolveStages(
          rec.conf_raw, stages, 0, job.workload.flow.workload_class(),
          budget);
      const auto t2 = Clock::now();
      tracer.Record("engine.plan_stages", 0, 0, t0, t1);
      tracer.Record("hierarchical.resolve_stages", 0, 0, t1, t2);
      if (!overlay.ok()) return 1;
      plan_us += 1e3 * MsBetween(t0, t1);
      hier_ms += MsBetween(t1, t2);
      hier_stages += static_cast<double>(stages.size());
      ++calls;
    }
    stage_evals = static_cast<double>(evals.Get("udao.mogd.model_evals"));
    if (calls > 0) {
      plan_us /= calls;
      hier_ms /= calls;
      hier_stages /= calls;
      stage_evals /= calls;
    }
  }

  if (!a.spans_path.empty() && !tracer.WriteJson(a.spans_path)) {
    std::fprintf(stderr, "could not write spans to %s\n",
                 a.spans_path.c_str());
  }

  // Per-request service numbers (untraced phase).
  std::vector<double> queue, in_service, handoff;
  for (const Sample& x : plain.log.samples.All()) {
    queue.push_back(x.queue_ms);
    in_service.push_back(x.service_ms);
    handoff.push_back(x.e2e_ms - x.queue_ms - x.service_ms);
  }
  const double n = std::max<double>(1, plain.log.attempted);
  const double tn = std::max<double>(1, traced.log.attempted);
  double mogd_evals = plain_evals / n;
  double mogd_iters = plain_iterations / n;
  if (w == Workload::kColdFrontier && !plain.pass_model_evals.empty()) {
    mogd_evals = static_cast<double>(plain.pass_model_evals.front()) /
                 plain.pass_requests;
  }
  if (w == Workload::kStageRefine) mogd_evals = stage_evals;
  // pf.* per key the run solved: the timed passes (cold_frontier) or
  // priming. Densified variants (odd frontier ids) are not solves.
  const ClientLog& solved =
      w == Workload::kColdFrontier ? plain.log : world->prime_log;
  double probes = 0, points = 0;
  int keys = 0;
  for (int f = 0; f < kFrontierIds; f += 2) {
    const SeenFrontier& seen = solved.frontiers[f];
    if (seen.digest == 0) continue;
    probes += seen.frontier.probes;
    points += static_cast<double>(seen.frontier.frontier.size());
    ++keys;
  }
  probes /= std::max(1, keys);
  points /= std::max(1, keys);
  const double rq = std::max(1, replay.requests);
  const double layer_sum =
      replay.e2e_ms > 0 ? (replay.resolve_ms + replay.pf_ms + replay.rank_ms +
                           replay.recommend_us / 1e3) /
                              replay.e2e_ms
                        : 0.0;
  const double p50_plain = Percentile(E2eMs(plain.log.samples.All()), 50.0);
  const double p50_traced =
      Percentile(E2eMs(traced.log.samples.All()), 50.0);

  std::vector<Metric> m = {
      {"serving.queue_wait_ms", Percentile(queue, 50.0), "ms"},
      {"serving.in_service_ms", Percentile(in_service, 50.0), "ms"},
      {"serving.handoff_ms", Percentile(handoff, 50.0), "ms"},
      {"serving.hit_frac", plain.cache.hits / n, "ratio"},
      {"serving.evictions", static_cast<double>(plain.cache.evictions),
       "count"},
      {"serving.invalidations", static_cast<double>(plain.cache.invalidations),
       "count"},
      {"tuning.resolve_ms", replay.resolve_ms / rq, "ms"},
      {"tuning.rank_ms", replay.rank_ms / rq, "ms"},
      {"tuning.recommend_us", recommend_us, "us"},
      {"pf.run_ms", replay.pf_ms / rq, "ms"},
      {"pf.probes", probes, "count"},
      {"pf.points", points, "count"},
      {"coalescer.wait_ms",
       (replay.coalescer_wall_ms - replay.solve_ms) / rq, "ms"},
      {"coalescer.problems_per_flush", replay.problems_per_flush, "count"},
      {"coalescer.shared_frac", replay.shared_frac, "ratio"},
      {"mogd.solve_ms", replay.solve_ms / rq, "ms"},
      {"mogd.iterations", mogd_iters, "count"},
      {"mogd.model_evals", mogd_evals, "count"},
      {"model.eval_ms", 1e3 * model.seconds / tn, "ms"},
      {"model.rows", model.rows / tn, "count"},
      {"model.rows_per_call",
       model.calls > 0 ? static_cast<double>(model.rows) / model.calls : 0.0,
       "count"},
      {"model.mrows_per_s",
       model.seconds > 0 ? model.rows / model.seconds / 1e6 : 0.0, "Mrows/s"},
      {"densify.ms", densify_ms, "ms"},
      {"densify.kept_frac", kept_frac, "ratio"},
      {"hierarchical.resolve_ms", hier_ms, "ms"},
      {"hierarchical.stages", hier_stages, "count"},
      {"hierarchical.fallbacks",
       static_cast<double>(plain.log.fallbacks + traced.log.fallbacks +
                           stage_fallbacks),
       "count"},
      {"engine.plan_us", plan_us, "us"},
      {"setup.collect_ms", world->collect_ms, "ms"},
      {"setup.train_ms", world->train_ms / kJobs, "ms"},
      {"setup.prime_ms", prime_ms, "ms"},
      {"proc.cores_busy", plain.cpu_s / plain.wall_s, "cores"},
      {"host.steal_frac", StealFraction(host0, ReadHostCpu()), "ratio"},
      {"trace.p50_untraced_ms", p50_plain, "ms"},
      {"trace.p50_traced_ms", p50_traced, "ms"},
      {"trace.overhead_frac", p50_plain > 0 ? p50_traced / p50_plain - 1 : 0,
       "ratio"},
      {"replay.layer_sum_frac", layer_sum, "ratio"},
  };

  std::vector<std::string> failures = plain.gate_failures;
  failures.insert(failures.end(), traced.gate_failures.begin(),
                  traced.gate_failures.end());
  if (refs.mismatches > 0) failures.push_back("frontier digests differ");
  if (replay.digest_mismatches > 0) {
    failures.push_back("replayed frontier differs from the service's");
  }
  if (w == Workload::kColdFrontier && std::fabs(layer_sum - 1.0) > 0.05) {
    failures.push_back("replay layer rows miss the request time by > 5%");
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "gate failed: %s\n", f.c_str());
  }
  const long long attempted = plain.log.attempted + traced.log.attempted;
  const long long failed = plain.log.failed + traced.log.failed;
  if (failed > 0) {
    std::fprintf(stderr, "first failure: %s\n",
                 (plain.log.first_error + traced.log.first_error).c_str());
  }
  std::printf("{\"workload\": \"%s\", \"host\": %s, \"traced\": true}\n",
              WorkloadName(w), HostInfoJson(ReadHostInfo(), a.seed).c_str());
  PrintResult(failed == 0 && failures.empty(), attempted,
              failed + static_cast<long long>(failures.size()), m);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace udao

int main(int argc, char** argv) {
  using namespace udao::perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cold_frontier|warm_hit|"
                 "stage_refine> --seed N --seconds S --trace <0|1> "
                 "[--spans PATH]\n");
    return 2;
  }
  const Schedule s = MakeSchedule(a.seed, a.workload);
  return a.trace ? TracedMain(a, s) : RunEndToEnd(a, s);
}
