#include "instrument.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/metrics_registry.h"
#include "nn/kernels.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace udao {
namespace perfbench {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

HostInfo ReadHostInfo() {
  HostInfo h;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  h.kernel_backend =
      kernels::ActiveBackend() == kernels::Backend::kAvx2 ? "avx2" : "scalar";
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.metrics = UDAO_METRICS_ENABLED != 0;
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  h.git_sha = sha != nullptr && *sha != '\0' ? sha : "unknown";
  return h;
}

std::string HostInfoJson(const HostInfo& host, uint64_t seed) {
  std::ostringstream o;
  o << "{\"cpu_model\": \"" << JsonEscape(host.cpu_model)
    << "\", \"nproc\": " << host.nproc << ", \"kernel_backend\": \""
    << host.kernel_backend << "\", \"compiler\": \""
    << JsonEscape(host.compiler) << "\", \"build_type\": \""
    << host.build_type << "\", \"udao_metrics\": "
    << (host.metrics ? "true" : "false") << ", \"git_sha\": \""
    << JsonEscape(host.git_sha) << "\", \"seed\": " << seed << "}";
  return o.str();
}

HostCpu ReadHostCpu() {
  HostCpu c;
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return c;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  unsigned long long v[8] = {0};
  for (unsigned long long& x : v) {
    if (!(stat >> x)) return HostCpu();
  }
  for (unsigned long long x : v) c.total += x;
  c.steal = v[7];
  return c;
}

double StealFraction(const HostCpu& begin, const HostCpu& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

int64_t Tracer::Record(const std::string& name, int64_t parent,
                       int64_t request, Clock::time_point start,
                       Clock::time_point end) {
  const int64_t id = NextId();
  RecordWithId(id, name, parent, request, start, end);
  return id;
}

void Tracer::RecordWithId(int64_t id, const std::string& name, int64_t parent,
                          int64_t request, Clock::time_point start,
                          Clock::time_point end) {
  Span s{name, id, parent, request, 1e3 * MsBetween(origin_, start),
         1e3 * MsBetween(origin_, end)};
  MutexLock lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Tracer::Span> Tracer::Spans() const {
  MutexLock lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  bool first = true;
  char buf[96];
  for (const Span& s : Spans()) {
    out << (first ? "\n" : ",\n");
    first = false;
    std::snprintf(buf, sizeof(buf), "%.3f, \"end_us\": %.3f", s.start_us,
                  s.end_us);
    out << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_us\": " << buf << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void CountingModel::Count(long long rows, Clock::time_point start) const {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count();
  calls_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(rows, std::memory_order_relaxed);
  nanos_.fetch_add(ns, std::memory_order_relaxed);
}

double CountingModel::Predict(const Vector& x) const {
  const auto t0 = Clock::now();
  const double v = base_->Predict(x);
  Count(1, t0);
  return v;
}

void CountingModel::PredictWithUncertainty(const Vector& x, double* mean,
                                           double* stddev) const {
  const auto t0 = Clock::now();
  base_->PredictWithUncertainty(x, mean, stddev);
  Count(1, t0);
}

Vector CountingModel::InputGradient(const Vector& x) const {
  const auto t0 = Clock::now();
  Vector g = base_->InputGradient(x);
  Count(1, t0);
  return g;
}

void CountingModel::PredictBatch(const Matrix& x, Vector* out) const {
  const auto t0 = Clock::now();
  base_->PredictBatch(x, out);
  Count(x.rows(), t0);
}

void CountingModel::GradientBatch(const Matrix& x, Matrix* grads,
                                  Vector* values) const {
  const auto t0 = Clock::now();
  base_->GradientBatch(x, grads, values);
  Count(x.rows(), t0);
}

void CountingModel::PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                                Vector* stddev) const {
  const auto t0 = Clock::now();
  base_->PredictWithUncertaintyBatch(x, mean, stddev);
  Count(x.rows(), t0);
}

CountingModel::Counts CountingModel::counts() const {
  Counts c;
  c.calls = calls_.load(std::memory_order_relaxed);
  c.rows = rows_.load(std::memory_order_relaxed);
  c.seconds = 1e-9 * static_cast<double>(nanos_.load(std::memory_order_relaxed));
  return c;
}

std::vector<std::optional<CoResult>> TimingCoSolver::SolveBatch(
    const MooProblem& problem, const std::vector<CoProblem>& problems,
    SolvePerf* perf, const StopToken& stop) {
  SolvePerf local;
  const auto t0 = Clock::now();
  auto out = inner_->SolveBatch(problem, problems, &local, stop);
  const auto t1 = Clock::now();
  tracer_->Record("coalescer.solve_batch", parent_, request_, t0, t1);
  // The problems of one call descend in parallel chunks, so the call's
  // compute span is its longest descent, not the sum. Infeasible problems
  // return no per-problem counters; the mean per problem stands in for them.
  double longest = 0;
  for (const auto& r : out) {
    if (r.has_value()) longest = std::max(longest, r->perf.solve_seconds);
  }
  if (!problems.empty()) {
    longest = std::max(longest, local.solve_seconds /
                                    static_cast<double>(problems.size()));
  }
  totals_.wall_s += MsBetween(t0, t1) / 1e3;
  totals_.compute_s += longest;
  if (perf != nullptr) perf->Merge(local);
  return out;
}

CoResult TimingCoSolver::Minimize(const MooProblem& problem, int target,
                                  SolvePerf* perf, const StopToken& stop) {
  SolvePerf local;
  const auto t0 = Clock::now();
  CoResult out = inner_->Minimize(problem, target, &local, stop);
  const auto t1 = Clock::now();
  tracer_->Record("coalescer.minimize", parent_, request_, t0, t1);
  totals_.wall_s += MsBetween(t0, t1) / 1e3;
  totals_.compute_s += local.solve_seconds;
  if (perf != nullptr) perf->Merge(local);
  return out;
}

}  // namespace perfbench
}  // namespace udao
