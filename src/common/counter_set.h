#ifndef UDAO_COMMON_COUNTER_SET_H_
#define UDAO_COMMON_COUNTER_SET_H_

#include <atomic>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/metrics_registry.h"

namespace udao {

/// A component's event counters: a fixed table pairing fields of its stats
/// struct `Stats` with registry counter names, backed by per-instance
/// relaxed atomics. Add() bumps the field's atomic and, when
/// UDAO_METRICS_ENABLED, the process-wide registry counter of the same name,
/// so each event is counted once and the component's stats() (Read()) and
/// the registry cannot drift apart. Instances may share names (e.g. one set
/// per cache shard); the registry then holds their sum.
template <typename Stats>
class CounterSet {
 public:
  using Field = long long Stats::*;

  // Owned name strings: the registry keys by std::string, and building one
  // per Add would allocate on every counted event.
  explicit CounterSet(
      std::initializer_list<std::pair<Field, const char*>> table)
      : values_(table.size()) {
    for (const auto& [field, name] : table) {
      fields_.push_back(field);
      names_.emplace_back(name);
    }
  }

  /// `field` must be in the table. Adding 0 writes nothing, so callers that
  /// batch counts need no guard.
  void Add(Field field, long long n = 1) {
    if (n == 0) return;
    std::size_t i = 0;
    while (fields_[i] != field) UDAO_CHECK(++i < fields_.size());
    values_[i].fetch_add(n, std::memory_order_relaxed);
#if UDAO_METRICS_ENABLED
    MetricsRegistry::Global().AddCounter(names_[i], n);
#endif
  }

  /// This instance's counts in the table's fields (others stay default).
  /// Other instances may add to the same registry names.
  Stats Read() const {
    Stats stats;
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      stats.*fields_[i] = values_[i].load(std::memory_order_relaxed);
    }
    return stats;
  }

 private:
  std::vector<Field> fields_;
  std::vector<std::string> names_;
  std::vector<std::atomic<long long>> values_;
};

}  // namespace udao

#endif  // UDAO_COMMON_COUNTER_SET_H_
