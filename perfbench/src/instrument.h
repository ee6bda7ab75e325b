#ifndef UDAO_PERFBENCH_INSTRUMENT_H_
#define UDAO_PERFBENCH_INSTRUMENT_H_

// Measurement from outside the program: host fingerprint, process and host
// counters, an in-memory span recorder, and pass-through shells that time
// the model and solver layers without changing a bit of their results.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "model/objective_model.h"
#include "moo/mogd.h"

namespace udao {
namespace perfbench {

/// Host and build identity, recorded next to every result.
struct HostInfo {
  std::string cpu_model;
  int nproc = 0;
  std::string kernel_backend;  ///< Active UDAO_KERNEL table.
  std::string compiler;
  std::string build_type;
  bool metrics = false;        ///< UDAO_METRICS compiled in.
  std::string git_sha;
};
HostInfo ReadHostInfo();
std::string HostInfoJson(const HostInfo& host, uint64_t seed);

/// Aggregate CPU jiffies from /proc/stat; steal is time the hypervisor gave
/// this VM's vCPUs to someone else.
struct HostCpu {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
HostCpu ReadHostCpu();
/// Steal share of all CPU time between two readings (0 when unreadable).
double StealFraction(const HostCpu& begin, const HostCpu& end);

/// CPU seconds this process has used (all threads).
double ProcessCpuSeconds();
/// Peak resident set (VmHWM), MB.
double PeakRssMb();

using Clock = std::chrono::steady_clock;
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// In-memory span recorder. Spans carry a name, start, end, the id of the
/// span that caused them and a request id; they are written out at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t id = 0;
    int64_t parent = 0;   ///< 0 for a root.
    int64_t request = 0;
    double start_us = 0;  ///< Since the tracer was created.
    double end_us = 0;
  };

  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records a finished span and returns its id.
  int64_t Record(const std::string& name, int64_t parent, int64_t request,
                 Clock::time_point start, Clock::time_point end);
  /// Reserves an id for a span whose children finish before it does.
  int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void RecordWithId(int64_t id, const std::string& name, int64_t parent,
                    int64_t request, Clock::time_point start,
                    Clock::time_point end);

  std::vector<Span> Spans() const;
  /// Writes {"spans": [...]} to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  const Clock::time_point origin_;
  std::atomic<int64_t> next_id_{0};
  mutable Mutex mu_;
  std::vector<Span> spans_ UDAO_GUARDED_BY(mu_);
};

/// Pass-through model shell: forwards every compute virtual and
/// FuseIdentity to the wrapped model, so predictions and solve fusion are
/// unchanged, and counts calls, rows and time spent in the model.
class CountingModel : public ObjectiveModel {
 public:
  struct Counts {
    long long calls = 0;
    long long rows = 0;
    double seconds = 0;
  };

  explicit CountingModel(std::shared_ptr<const ObjectiveModel> base)
      : base_(std::move(base)) {}

  double Predict(const Vector& x) const override;
  void PredictWithUncertainty(const Vector& x, double* mean,
                              double* stddev) const override;
  Vector InputGradient(const Vector& x) const override;
  void PredictBatch(const Matrix& x, Vector* out) const override;
  void GradientBatch(const Matrix& x, Matrix* grads,
                     Vector* values = nullptr) const override;
  void PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                   Vector* stddev) const override;
  int input_dim() const override { return base_->input_dim(); }
  std::string Name() const override { return base_->Name(); }
  const void* FuseIdentity() const override { return base_->FuseIdentity(); }

  Counts counts() const;

 private:
  void Count(long long rows, Clock::time_point start) const;

  std::shared_ptr<const ObjectiveModel> base_;
  mutable std::atomic<long long> calls_{0};
  mutable std::atomic<long long> rows_{0};
  mutable std::atomic<long long> nanos_{0};
};

/// Timing shell around a CoBatchSolver (a SolveCoalescer in the replay).
/// Each call records a span under the caller's current parent and
/// accumulates wall time and the descent's compute span (the longest
/// per-problem SolvePerf::solve_seconds of the call), so coalescer wait =
/// wall - compute.
class TimingCoSolver : public CoBatchSolver {
 public:
  TimingCoSolver(CoBatchSolver* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<std::optional<CoResult>> SolveBatch(
      const MooProblem& problem, const std::vector<CoProblem>& problems,
      SolvePerf* perf, const StopToken& stop) override;
  CoResult Minimize(const MooProblem& problem, int target, SolvePerf* perf,
                    const StopToken& stop) override;

  /// Parent span and request id for the next calls (single caller thread).
  void SetContext(int64_t parent, int64_t request) {
    parent_ = parent;
    request_ = request;
  }

  struct Totals {
    double wall_s = 0;
    double compute_s = 0;  ///< Sum over calls of the longest descent.
  };
  const Totals& totals() const { return totals_; }
  void ResetTotals() { totals_ = Totals(); }

 private:
  CoBatchSolver* inner_;
  Tracer* tracer_;
  int64_t parent_ = 0;
  int64_t request_ = 0;
  Totals totals_;
};

}  // namespace perfbench
}  // namespace udao

#endif  // UDAO_PERFBENCH_INSTRUMENT_H_
