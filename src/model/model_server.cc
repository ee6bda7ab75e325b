#include "model/model_server.h"

#include <cmath>

#include "common/check.h"
#include "common/fault_injector.h"
#include "common/metrics_registry.h"

namespace udao {

ModelServer::ModelServer(ModelServerConfig config)
    : config_(config), rng_(config.seed) {}

Status ModelServer::Ingest(const std::string& workload_id,
                           const std::string& objective,
                           const Vector& encoded_conf, double value) {
  const TraceRows one{&workload_id, &objective, &encoded_conf, &value, 1};
  return IngestBatch({&one, 1});
}

Status ModelServer::IngestBatch(std::span<const TraceRows> sets) {
  MutexLock lock(mu_);
  // Each touched pair's dimension: its resident traces', else its first
  // staged row's. Sorted, so one workload's pairs are adjacent below.
  std::map<std::pair<std::string, std::string>, size_t> dims;
  for (const TraceRows& set : sets) {
    if (set.rows == 0) continue;
    const auto [dim, fresh] = dims.try_emplace(
        {*set.workload, *set.objective}, set.x[0].size());
    auto it = fresh ? entries_.find(dim->first) : entries_.end();
    if (it != entries_.end() && !it->second.data.x.empty()) {
      dim->second = it->second.data.x.front().size();
    }
    for (size_t r = 0; r < set.rows; ++r) {
      std::string bad;
      if (set.x[r].empty()) {
        bad = "empty encoded configuration";
      } else if (!std::isfinite(set.y[r])) {
        bad = "non-finite objective value";
      } else if (set.x[r].size() != dim->second) {
        bad = "configuration dimension mismatch (got " +
              std::to_string(set.x[r].size()) + ", expected " +
              std::to_string(dim->second) + ")";
      }
      if (!bad.empty()) {
        return Status::InvalidArgument(bad + " for " + *set.workload + "/" +
                                       *set.objective);
      }
    }
  }
  long long ingested = 0;
  for (const TraceRows& set : sets) {
    if (set.rows == 0) continue;
    Entry& entry = entries_[{*set.workload, *set.objective}];
    entry.data.x.insert(entry.data.x.end(), set.x, set.x + set.rows);
    entry.data.y.insert(entry.data.y.end(), set.y, set.y + set.rows);
    entry.pending += static_cast<int>(set.rows);
    ingested += static_cast<long long>(set.rows);
  }
  // One bump per touched workload, after every row is in (see
  // GenerationShard for why bumps follow the data).
  const std::string* bumped = nullptr;
  for (const auto& [pair, unused] : dims) {
    if (bumped == nullptr || *bumped != pair.first) BumpGeneration(pair.first);
    bumped = &pair.first;
  }
  UDAO_METRIC_COUNTER_ADD("udao.model.ingests", ingested);
  return Status::Ok();
}

Status ModelServer::IngestMetrics(const std::string& workload_id,
                                  const RuntimeMetrics& metrics) {
  const Vector v = metrics.ToVector();
  MutexLock lock(mu_);
  std::vector<Vector>& rows = metrics_[workload_id];
  if (!rows.empty() && rows.front().size() != v.size()) {
    return Status::InvalidArgument("metrics dimension mismatch for " +
                                   workload_id);
  }
  rows.push_back(v);
  return Status::Ok();
}

StatusOr<std::shared_ptr<const ObjectiveModel>> ModelServer::TrainFreshLocked(
    const DataSet& data) {
  Matrix x = Matrix::FromRows(data.x);
  if (config_.kind == ModelKind::kGp) {
    StatusOr<std::shared_ptr<GpModel>> gp =
        GpModel::Fit(x, data.y, config_.gp);
    if (!gp.ok()) return gp.status();
    return std::shared_ptr<const ObjectiveModel>(*gp);
  }
  StatusOr<std::shared_ptr<MlpModel>> dnn =
      MlpModel::Fit(x, data.y, config_.dnn, &rng_);
  if (!dnn.ok()) return dnn.status();
  return std::shared_ptr<const ObjectiveModel>(*dnn);
}

StatusOr<std::shared_ptr<const ObjectiveModel>> ModelServer::GetModel(
    const std::string& workload_id, const std::string& objective) {
  // Fault-injection site for degradation testing: an armed failure surfaces
  // exactly like a real model-resolution error (the serving layer's
  // stale-cache shed path keys off it), an armed delay simulates a slow
  // model store. Checked outside the lock so injected latency never
  // serializes unrelated lookups.
  if (Status fault = UDAO_FAULT_SITE("model_server.get_model"); !fault.ok()) {
    return fault;
  }
  MutexLock lock(mu_);
  auto it = entries_.find({workload_id, objective});
  if (it == entries_.end() || it->second.data.x.empty()) {
    return Status::NotFound("no traces for workload " + workload_id +
                            " objective " + objective);
  }
  Entry& entry = it->second;
  UDAO_METRIC_COUNTER_ADD("udao.model.get_model", 1);
  if (entry.model == nullptr || entry.pending >= config_.retrain_threshold) {
    // First model, or a large trace update: full retrain.
    UDAO_TRACE_SPAN("model.train_full");
    UDAO_METRIC_COUNTER_ADD("udao.model.train_full", 1);
    UDAO_METRIC_OBSERVE("udao.model.train_traces",
                        static_cast<double>(entry.data.x.size()));
    StatusOr<std::shared_ptr<const ObjectiveModel>> model =
        TrainFreshLocked(entry.data);
    if (!model.ok()) return model.status();
    entry.model = *model;
    entry.pending = 0;
    BumpGeneration(workload_id);
  } else if (entry.pending >= config_.finetune_threshold) {
    UDAO_TRACE_SPAN("model.finetune");
    UDAO_METRIC_COUNTER_ADD("udao.model.finetune", 1);
    if (config_.kind == ModelKind::kDnn) {
      // Small update: fine-tune from the latest checkpoint. Handles already
      // returned by GetModel are immutable snapshots, so training happens on
      // a deep copy that is swapped in once it is ready.
      const auto* dnn = dynamic_cast<const MlpModel*>(entry.model.get());
      UDAO_CHECK(dnn != nullptr);
      std::shared_ptr<MlpModel> tuned = dnn->Clone();
      Matrix x = Matrix::FromRows(entry.data.x);
      tuned->FineTune(x, entry.data.y, config_.finetune_epochs, &rng_);
      entry.model = std::move(tuned);
    } else {
      // GPs have no incremental path; refit on all data.
      StatusOr<std::shared_ptr<const ObjectiveModel>> model =
          TrainFreshLocked(entry.data);
      if (!model.ok()) return model.status();
      entry.model = *model;
    }
    entry.pending = 0;
    BumpGeneration(workload_id);
  } else {
    // Served straight from the trained snapshot: the cache-hit path that
    // keeps GetModel off the few-seconds MOO budget.
    UDAO_METRIC_COUNTER_ADD("udao.model.cache_hits", 1);
  }
  return entry.model;
}

bool ModelServer::HasTraces(const std::string& workload_id,
                            const std::string& objective) const {
  MutexLock lock(mu_);
  auto it = entries_.find({workload_id, objective});
  return it != entries_.end() && !it->second.data.x.empty();
}

StatusOr<ModelServer::DataSet> ModelServer::GetData(
    const std::string& workload_id, const std::string& objective) const {
  MutexLock lock(mu_);
  auto it = entries_.find({workload_id, objective});
  if (it == entries_.end()) {
    return Status::NotFound("no traces for workload " + workload_id);
  }
  return it->second.data;
}

StatusOr<Vector> ModelServer::MeanMetrics(
    const std::string& workload_id) const {
  MutexLock lock(mu_);
  auto it = metrics_.find(workload_id);
  if (it == metrics_.end() || it->second.empty()) {
    return Status::NotFound("no metrics for workload " + workload_id);
  }
  Vector mean(it->second.front().size(), 0.0);
  for (const Vector& v : it->second) {
    for (size_t i = 0; i < mean.size(); ++i) mean[i] += v[i];
  }
  for (double& m : mean) m /= static_cast<double>(it->second.size());
  return mean;
}

std::vector<std::string> ModelServer::WorkloadsWithMetrics() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for (const auto& [id, unused] : metrics_) out.push_back(id);
  return out;
}

int ModelServer::NumTraces(const std::string& workload_id,
                           const std::string& objective) const {
  MutexLock lock(mu_);
  auto it = entries_.find({workload_id, objective});
  if (it == entries_.end()) return 0;
  return static_cast<int>(it->second.data.x.size());
}

ModelServer::GenerationShard& ModelServer::GenerationShardFor(
    const std::string& workload_id) const {
  const size_t h = std::hash<std::string>{}(workload_id);
  return generation_shards_[h % kGenerationShards];
}

void ModelServer::BumpGeneration(const std::string& workload_id) {
  GenerationShard& shard = GenerationShardFor(workload_id);
  MutexLock lock(shard.mu);
  ++shard.generations[workload_id];
}

uint64_t ModelServer::Generation(const std::string& workload_id) const {
  GenerationShard& shard = GenerationShardFor(workload_id);
  MutexLock lock(shard.mu);
  auto it = shard.generations.find(workload_id);
  return it == shard.generations.end() ? 0 : it->second;
}

}  // namespace udao
