#include "model/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <functional>
#include <ostream>
#include <utility>
#include <vector>

#include "common/check.h"

namespace udao {

namespace {

namespace fs = std::filesystem;

// Workload/objective names become file names; keep them path-safe.
std::string Sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '_';
  }
  return out;
}

// Writes `path` through `<path>.tmp` and a rename, so a crash or a failed
// write never leaves a torn file where the previous one stood.
Status WriteFileAtomically(const fs::path& path,
                           const std::function<void(std::ostream&)>& write) {
  const fs::path tmp = path.string() + ".tmp";
  std::ofstream out(tmp);
  if (!out) return Status::InvalidArgument("cannot open " + tmp.string());
  write(out);
  out.close();
  std::error_code ec;
  if (!out) {
    fs::remove(tmp, ec);
    return Status::InvalidArgument("write failed: " + tmp.string());
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    return Status::InvalidArgument("cannot rename " + tmp.string() + ": " +
                                   ec.message());
  }
  return Status::Ok();
}

// One parsed .traces file, staged until every file has parsed.
struct StagedTraces {
  std::string file;
  std::string workload;
  std::string objective;
  std::vector<Vector> x;
  Vector y;
};

StatusOr<StagedTraces> ParseTraceFile(const fs::path& path) {
  StagedTraces staged;
  staged.file = path.string();
  std::ifstream in(path);
  std::string magic;
  std::getline(in, magic);
  if (magic != "udao-traces-v1") {
    return Status::InvalidArgument("not a trace file: " + staged.file);
  }
  // One name per line, as written: ids may contain spaces.
  std::getline(in, staged.workload);
  std::getline(in, staged.objective);
  size_t rows = 0;
  size_t cols = 0;
  in >> rows >> cols;
  if (!in || cols == 0 || cols > 4096 || rows > (1u << 22)) {
    return Status::InvalidArgument("corrupt trace file: " + staged.file);
  }
  for (size_t r = 0; r < rows; ++r) {
    Vector x(cols);
    for (double& v : x) in >> v;
    double y = 0.0;
    in >> y;
    if (!in) {
      return Status::InvalidArgument("truncated trace file: " + staged.file);
    }
    staged.x.push_back(std::move(x));
    staged.y.push_back(y);
  }
  return staged;
}

}  // namespace

Status SaveMlpModel(const MlpModel& model, const std::string& path) {
  return WriteFileAtomically(
      path, [&model](std::ostream& out) { model.SerializeTo(out); });
}

StatusOr<std::shared_ptr<MlpModel>> LoadMlpModel(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  return MlpModel::Deserialize(in);
}

Status SaveGpModel(const GpModel& model, const std::string& path) {
  return WriteFileAtomically(
      path, [&model](std::ostream& out) { model.SerializeTo(out); });
}

StatusOr<std::shared_ptr<GpModel>> LoadGpModel(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  return GpModel::Deserialize(in);
}

Status SaveModelServerData(const ModelServer& server,
                           const std::vector<std::string>& workload_ids,
                           const std::vector<std::string>& objective_names,
                           const std::string& directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) return Status::InvalidArgument("cannot create " + directory);
  for (const std::string& workload : workload_ids) {
    for (const std::string& objective : objective_names) {
      StatusOr<ModelServer::DataSet> data =
          server.GetData(workload, objective);
      if (!data.ok()) continue;  // pair never observed: nothing to persist
      const fs::path path = fs::path(directory) / (Sanitize(workload) +
                                                   "__" +
                                                   Sanitize(objective) +
                                                   ".traces");
      Status written = WriteFileAtomically(path, [&](std::ostream& out) {
        out << "udao-traces-v1\n";
        out << workload << '\n' << objective << '\n';
        out << data->x.size() << ' '
            << (data->x.empty() ? 0 : data->x.front().size()) << '\n';
        out.precision(17);
        for (size_t i = 0; i < data->x.size(); ++i) {
          for (double v : data->x[i]) out << v << ' ';
          out << data->y[i] << '\n';
        }
      });
      if (!written.ok()) return written;
    }
  }
  return Status::Ok();
}

Status LoadModelServerData(const std::string& directory, ModelServer* server) {
  UDAO_CHECK(server != nullptr);
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    return Status::NotFound("no such directory: " + directory);
  }
  // All or nothing: every file parses before any row is ingested, and
  // IngestBatch checks every row's dimension against the resident traces
  // and the other files before it appends any, so a failed load leaves the
  // server untouched and a good one bumps each workload's generation once.
  std::vector<StagedTraces> staged;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    if (entry.path().extension() != ".traces") continue;
    StatusOr<StagedTraces> parsed = ParseTraceFile(entry.path());
    if (!parsed.ok()) return parsed.status();
    staged.push_back(std::move(*parsed));
  }
  std::vector<ModelServer::TraceRows> sets;
  sets.reserve(staged.size());
  for (const StagedTraces& file : staged) {
    sets.push_back({&file.workload, &file.objective, file.x.data(),
                    file.y.data(), file.x.size()});
  }
  return server->IngestBatch(sets);
}

}  // namespace udao
