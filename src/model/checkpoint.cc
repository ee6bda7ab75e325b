#include "model/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <sstream>

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

}  // namespace

Status SaveMlpModel(const MlpModel& model, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open " + path);
  model.SerializeTo(out);
  if (!out) return Status::InvalidArgument("write failed: " + path);
  return Status::Ok();
}

StatusOr<std::shared_ptr<MlpModel>> LoadMlpModel(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  return MlpModel::Deserialize(in);
}

Status SaveGpModel(const GpModel& model, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open " + path);
  model.SerializeTo(out);
  if (!out) return Status::InvalidArgument("write failed: " + path);
  return Status::Ok();
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
      std::ofstream out(path);
      if (!out) return Status::InvalidArgument("cannot open " + path.string());
      out << "udao-traces-v1\n";
      out << workload << '\n' << objective << '\n';
      out << data->x.size() << ' '
          << (data->x.empty() ? 0 : data->x.front().size()) << '\n';
      out.precision(17);
      for (size_t i = 0; i < data->x.size(); ++i) {
        for (double v : data->x[i]) out << v << ' ';
        out << data->y[i] << '\n';
      }
      if (!out) return Status::InvalidArgument("write failed");
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
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    if (entry.path().extension() != ".traces") continue;
    std::ifstream in(entry.path());
    std::string magic;
    std::getline(in, magic);
    if (magic != "udao-traces-v1") {
      return Status::InvalidArgument("not a trace file: " +
                                     entry.path().string());
    }
    // One name per line, as written: ids may contain spaces.
    std::string workload;
    std::string objective;
    std::getline(in, workload);
    std::getline(in, objective);
    size_t rows = 0;
    size_t cols = 0;
    in >> rows >> cols;
    if (!in || cols == 0 || cols > 4096 || rows > (1u << 22)) {
      return Status::InvalidArgument("corrupt trace file: " +
                                     entry.path().string());
    }
    for (size_t r = 0; r < rows; ++r) {
      Vector x(cols);
      for (double& v : x) in >> v;
      double y = 0.0;
      in >> y;
      if (!in) {
        return Status::InvalidArgument("truncated trace file: " +
                                       entry.path().string());
      }
      if (Status s = server->Ingest(workload, objective, x, y); !s.ok()) {
        // A dimension clash between the file and already-resident traces is
        // corrupt input, not a programming error.
        return Status::InvalidArgument("rejected trace in " +
                                       entry.path().string() + ": " +
                                       s.ToString());
      }
    }
  }
  return Status::Ok();
}

}  // namespace udao
