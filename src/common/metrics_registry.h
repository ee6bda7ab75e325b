#ifndef UDAO_COMMON_METRICS_REGISTRY_H_
#define UDAO_COMMON_METRICS_REGISTRY_H_

// Zero-dependency observability substrate: a process-wide MetricsRegistry
// (counters, gauges, log-scale histograms) plus a TraceSpan scoped timer
// that records parent/child span trees per solve.
//
// Metric names follow the convention `udao.<subsystem>.<name>` (see
// DESIGN.md "Observability"). All registry operations are thread-safe; the
// name space is lock-striped so concurrent writers on unrelated metrics do
// not contend. Hot paths accumulate locally (e.g. SolvePerf) and flush once
// per solve, so the per-operation cost of the registry never sits inside an
// inner gradient-descent loop.
//
// Instrumentation call sites use the UDAO_METRIC_* / UDAO_TRACE_SPAN macros
// below, which compile to nothing when UDAO_METRICS_ENABLED is 0 (CMake
// option -DUDAO_METRICS=OFF). The registry itself stays linked either way so
// tools that read snapshots keep building.

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/sync.h"

#ifndef UDAO_METRICS_ENABLED
#define UDAO_METRICS_ENABLED 1
#endif

namespace udao {

/// One completed span in a trace tree. Spans form a forest per thread: a
/// span's parent is the span that was open on the same thread when it
/// started (-1 for roots). Offsets are relative to the root span's start so
/// trees are self-contained.
struct SpanNode {
  std::string name;
  int parent = -1;
  double start_ms = 0.0;     ///< Offset from the root span's start.
  double duration_ms = 0.0;  ///< 0 until the span closes.
};

/// Point-in-time view of one histogram.
struct HistogramSnapshot {
  long long count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< Meaningful only when count > 0.
  double max = 0.0;
  /// Occupancy per fixed log2-scale bucket (see MetricsRegistry::kNumBuckets
  /// and BucketLowerBound for the edge layout).
  std::vector<long long> buckets;
};

/// Process-wide metrics sink. Use MetricsRegistry::Global(); instances are
/// only constructed directly in tests.
class MetricsRegistry {
 public:
  /// Histogram layout: bucket 0 catches values < 2^-31 (including <= 0);
  /// bucket i in [1, kNumBuckets-2] covers [2^(i-32), 2^(i-31)); the last
  /// bucket catches everything >= 2^30. Fixed edges keep snapshots mergeable
  /// across processes and runs.
  static constexpr int kNumBuckets = 64;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  void AddCounter(const std::string& name, long long delta = 1);
  void SetGauge(const std::string& name, double value);
  void Observe(const std::string& name, double value);

  /// Appends one finished span tree (nodes in creation order, parents before
  /// children). Keeps the most recent kMaxTraces trees.
  void RecordTrace(std::vector<SpanNode> nodes);

  /// Point reads; 0 / empty snapshot when the metric does not exist.
  long long CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  HistogramSnapshot HistogramValue(const std::string& name) const;

  /// All counters, merged across stripes (sorted by name).
  std::map<std::string, long long> Counters() const;

  /// Whole-registry snapshot as a JSON object:
  ///   {"counters": {name: int, ...},
  ///    "gauges": {name: double, ...},
  ///    "histograms": {name: {"count", "sum", "min", "max",
  ///                          "buckets": [[lower_bound, count], ...]}, ...},
  ///    "traces": [[{"name", "parent", "start_ms", "duration_ms"}, ...], ...]}
  /// Histogram bucket lists carry only occupied buckets.
  std::string SnapshotJson() const;

  /// Clears every metric and recorded trace (bench harness / test isolation).
  void Reset();

  /// Inclusive lower edge of bucket `i` (0 for bucket 0).
  static double BucketLowerBound(int i);
  /// Index of the bucket that `value` lands in.
  static int BucketIndex(double value);

 private:
  static constexpr int kStripes = 16;
  static constexpr int kMaxTraces = 16;

  struct Histogram {
    long long count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<long long, kNumBuckets> buckets{};
  };

  struct Stripe {
    mutable Mutex mu;
    std::map<std::string, long long> counters UDAO_GUARDED_BY(mu);
    std::map<std::string, double> gauges UDAO_GUARDED_BY(mu);
    std::map<std::string, Histogram> histograms UDAO_GUARDED_BY(mu);
  };

  Stripe& StripeFor(const std::string& name);
  const Stripe& StripeFor(const std::string& name) const;

  std::array<Stripe, kStripes> stripes_;
  mutable Mutex traces_mu_;
  std::deque<std::vector<SpanNode>> traces_ UDAO_GUARDED_BY(traces_mu_);
};

/// Scoped timer recording one node in the current thread's span tree. The
/// tree a solve produces (root span plus nested children) is handed to
/// MetricsRegistry::Global() when the outermost span on the thread closes,
/// and every span feeds the histogram `udao.span.<name>_ms`. Spans opened on
/// pool worker threads form their own trees, which is the desired shape for
/// fan-out solves: one tree per worker chain.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
#if UDAO_METRICS_ENABLED
  int index_ = -1;
  uint64_t start_ns_ = 0;
#endif
};

}  // namespace udao

// Call-site macros: compiled out entirely under -DUDAO_METRICS=OFF so the
// bench suite can measure instrumented-vs-bare overhead. The metric name
// must be a string literal; it is materialized once per call site (function-
// local static) because the names outgrow the small-string buffer and a
// per-call heap allocation is what pushes instrumented hot paths over the
// overhead budget.
#if UDAO_METRICS_ENABLED
#define UDAO_METRIC_COUNTER_ADD(name, delta)                        \
  do {                                                              \
    static const ::std::string udao_metric_name_(name);            \
    ::udao::MetricsRegistry::Global().AddCounter(udao_metric_name_, \
                                                 (delta));          \
  } while (0)
#define UDAO_METRIC_GAUGE_SET(name, value)                                     \
  do {                                                                         \
    static const ::std::string udao_metric_name_(name);                       \
    ::udao::MetricsRegistry::Global().SetGauge(udao_metric_name_, (value));    \
  } while (0)
#define UDAO_METRIC_OBSERVE(name, value)                                    \
  do {                                                                      \
    static const ::std::string udao_metric_name_(name);                    \
    ::udao::MetricsRegistry::Global().Observe(udao_metric_name_, (value)); \
  } while (0)
#define UDAO_TRACE_SPAN_CONCAT2(a, b) a##b
#define UDAO_TRACE_SPAN_CONCAT(a, b) UDAO_TRACE_SPAN_CONCAT2(a, b)
#define UDAO_TRACE_SPAN(name) \
  ::udao::TraceSpan UDAO_TRACE_SPAN_CONCAT(udao_span_, __LINE__)(name)
#else
// The value sits in an unevaluated sizeof: nothing runs, yet a local that
// only feeds a metric still counts as used (no -Wunused-but-set-variable).
#define UDAO_METRIC_COUNTER_ADD(name, delta) ((void)sizeof(delta))
#define UDAO_METRIC_GAUGE_SET(name, value) ((void)sizeof(value))
#define UDAO_METRIC_OBSERVE(name, value) ((void)sizeof(value))
#define UDAO_TRACE_SPAN(name) ((void)0)
#endif

#endif  // UDAO_COMMON_METRICS_REGISTRY_H_
