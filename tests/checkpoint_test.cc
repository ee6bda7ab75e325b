#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "model/checkpoint.h"

namespace udao {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("udao_ckpt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  fs::path dir_;
};

std::shared_ptr<MlpModel> TrainSmallMlp(Rng* rng, bool log_targets = false) {
  Matrix x(40, 2);
  Vector y(40);
  for (int i = 0; i < 40; ++i) {
    x(i, 0) = rng->Uniform();
    x(i, 1) = rng->Uniform();
    y[i] = 3.0 + 2.0 * x(i, 0) - x(i, 1);
  }
  MlpModelConfig cfg;
  cfg.hidden = {8};
  cfg.activation = Activation::kTanh;
  cfg.train.epochs = 100;
  cfg.log_transform_targets = log_targets;
  auto model = MlpModel::Fit(x, y, cfg, rng);
  EXPECT_TRUE(model.ok());
  return *model;
}

TEST_F(CheckpointTest, MlpRoundTripsExactly) {
  Rng rng(1);
  auto model = TrainSmallMlp(&rng);
  ASSERT_TRUE(SaveMlpModel(*model, Path("m.ckpt")).ok());
  auto loaded = LoadMlpModel(Path("m.ckpt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (double a : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Vector p = {a, 1.0 - a};
    EXPECT_DOUBLE_EQ(model->Predict(p), (*loaded)->Predict(p));
    Vector g1 = model->InputGradient(p);
    Vector g2 = (*loaded)->InputGradient(p);
    EXPECT_DOUBLE_EQ(g1[0], g2[0]);
    EXPECT_DOUBLE_EQ(g1[1], g2[1]);
  }
}

TEST_F(CheckpointTest, MlpLogTransformSurvivesRoundTrip) {
  Rng rng(2);
  auto model = TrainSmallMlp(&rng, /*log_targets=*/true);
  ASSERT_TRUE(SaveMlpModel(*model, Path("m.ckpt")).ok());
  auto loaded = LoadMlpModel(Path("m.ckpt"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(model->Predict({0.3, 0.7}), (*loaded)->Predict({0.3, 0.7}));
}

TEST_F(CheckpointTest, GpRoundTripsPredictions) {
  Rng rng(3);
  Matrix x(30, 2);
  Vector y(30);
  for (int i = 0; i < 30; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = std::sin(3 * x(i, 0)) + x(i, 1);
  }
  GpConfig cfg;
  cfg.hyper_opt_steps = 20;
  auto gp = GpModel::Fit(x, y, cfg);
  ASSERT_TRUE(gp.ok());
  ASSERT_TRUE(SaveGpModel(**gp, Path("g.ckpt")).ok());
  auto loaded = LoadGpModel(Path("g.ckpt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (double a : {0.1, 0.5, 0.9}) {
    double m1 = 0.0;
    double s1 = 0.0;
    double m2 = 0.0;
    double s2 = 0.0;
    (*gp)->PredictWithUncertainty({a, a}, &m1, &s1);
    (*loaded)->PredictWithUncertainty({a, a}, &m2, &s2);
    EXPECT_NEAR(m1, m2, 1e-9);
    EXPECT_NEAR(s1, s2, 1e-9);
  }
}

TEST_F(CheckpointTest, LoadRejectsGarbage) {
  {
    std::ofstream out(Path("junk"));
    out << "not a checkpoint at all";
  }
  EXPECT_FALSE(LoadMlpModel(Path("junk")).ok());
  EXPECT_FALSE(LoadGpModel(Path("junk")).ok());
  EXPECT_FALSE(LoadMlpModel(Path("missing")).ok());
}

TEST_F(CheckpointTest, DeserializeRejectsTruncatedStream) {
  Rng rng(4);
  auto model = TrainSmallMlp(&rng);
  std::ostringstream full;
  model->SerializeTo(full);
  const std::string text = full.str();
  std::istringstream cut(text.substr(0, text.size() / 2));
  EXPECT_FALSE(MlpModel::Deserialize(cut).ok());
}

TEST_F(CheckpointTest, ModelServerDataRoundTrips) {
  ModelServer original;
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    Vector conf = {rng.Uniform(), rng.Uniform()};
    original.Ingest("w1", "latency", conf, 10.0 + conf[0]);
    original.Ingest("w1", "cost", conf, conf[1]);
    original.Ingest("w/2", "latency", conf, 5.0);
  }
  ASSERT_TRUE(SaveModelServerData(original, {"w1", "w/2"},
                                  {"latency", "cost"}, dir_.string())
                  .ok());
  ModelServer restored;
  ASSERT_TRUE(LoadModelServerData(dir_.string(), &restored).ok());
  EXPECT_EQ(restored.NumTraces("w1", "latency"), 12);
  EXPECT_EQ(restored.NumTraces("w1", "cost"), 12);
  EXPECT_EQ(restored.NumTraces("w/2", "latency"), 12);
  auto data = restored.GetData("w1", "latency");
  ASSERT_TRUE(data.ok());
  auto orig = original.GetData("w1", "latency");
  for (size_t i = 0; i < data->y.size(); ++i) {
    EXPECT_DOUBLE_EQ(data->y[i], orig->y[i]);
  }
}

TEST_F(CheckpointTest, ModelServerDataKeepsNamesWithSpaces) {
  ModelServer original;
  for (int i = 0; i < 3; ++i) {
    original.Ingest("tpcx bb", "cpu hours", {0.25 * i, 0.5}, 1.0 + i);
  }
  ASSERT_TRUE(SaveModelServerData(original, {"tpcx bb"}, {"cpu hours"},
                                  dir_.string())
                  .ok());
  ModelServer restored;
  const Status loaded = LoadModelServerData(dir_.string(), &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(restored.NumTraces("tpcx bb", "cpu hours"), 3);
}

// The serialized text of `model` with line `line` (0-based) replaced.
std::string WithLine(const MlpModel& model, int line,
                     const std::string& replacement) {
  std::ostringstream full;
  model.SerializeTo(full);
  std::istringstream in(full.str());
  std::string out;
  std::string text;
  for (int i = 0; std::getline(in, text); ++i) {
    out += (i == line ? replacement : text) + "\n";
  }
  return out;
}

StatusCode DeserializeCode(const std::string& text) {
  std::istringstream in(text);
  return MlpModel::Deserialize(in).status().code();
}

TEST_F(CheckpointTest, MlpDeserializeRejectsInvalidHeaders) {
  Rng rng(6);
  auto model = TrainSmallMlp(&rng);  // layers {2, 8, 1}, tanh
  // Line 1 holds the layer sizes, line 2 activation / l2 / dropout /
  // mc_samples / log flag, line 4 the weight count.
  EXPECT_EQ(DeserializeCode(WithLine(*model, 1, "3 2 0 1")),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeCode(WithLine(*model, 1, "3 2 -8 1")),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeCode(WithLine(*model, 2, "7 0.0001 0.1 32 0")),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeCode(WithLine(*model, 2, "1 0.0001 1 32 0")),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeCode(WithLine(*model, 2, "1 0.0001 0.1 0 0")),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DeserializeCode(WithLine(*model, 4, "32")),
            StatusCode::kInvalidArgument);
  // The unmodified text still loads.
  EXPECT_EQ(DeserializeCode(WithLine(*model, 4, "33")), StatusCode::kOk);
}

TEST_F(CheckpointTest, GpDeserializeRejectsOversizedHeader) {
  // 2^20 rows x 4096 columns: rejected before the training matrix is
  // allocated.
  std::istringstream in("udao-gp-v1\n1048576 4096 0\n");
  EXPECT_EQ(GpModel::Deserialize(in).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CheckpointTest, FailedSaveKeepsPreviousCheckpoint) {
  Rng rng(7);
  auto first = TrainSmallMlp(&rng);
  auto second = TrainSmallMlp(&rng);
  const Vector p = {0.3, 0.6};
  ASSERT_NE(first->Predict(p), second->Predict(p));
  ASSERT_TRUE(SaveMlpModel(*first, Path("m.ckpt")).ok());
  // A directory where the temporary file goes makes the write fail.
  fs::create_directories(Path("m.ckpt.tmp"));
  EXPECT_FALSE(SaveMlpModel(*second, Path("m.ckpt")).ok());
  auto loaded = LoadMlpModel(Path("m.ckpt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Predict(p), first->Predict(p));
}

TEST_F(CheckpointTest, TruncatedTraceFileLoadsNothing) {
  ModelServer original;
  for (int i = 0; i < 3; ++i) {
    original.Ingest("w1", "latency", {0.25 * i, 0.5}, 1.0 + i);
    original.Ingest("w1", "cost", {0.25 * i, 0.5}, 2.0 + i);
  }
  ASSERT_TRUE(SaveModelServerData(original, {"w1"}, {"latency", "cost"},
                                  dir_.string())
                  .ok());
  // Drop the last row of one file; its header still declares 3 rows.
  const std::string file = Path("w1__cost.traces");
  std::string text;
  {
    std::ifstream in(file);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  text.pop_back();  // trailing newline
  text.erase(text.rfind('\n') + 1);
  {
    std::ofstream out(file, std::ios::trunc);
    out << text;
  }
  ModelServer restored;
  const uint64_t generation = restored.Generation("w1");
  const Status loaded = LoadModelServerData(dir_.string(), &restored);
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument) << loaded.ToString();
  EXPECT_EQ(restored.GetData("w1", "latency").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(restored.GetData("w1", "cost").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(restored.Generation("w1"), generation);
}

TEST_F(CheckpointTest, LoadAdvancesGenerationOncePerLoad) {
  ModelServer original;
  for (int i = 0; i < 5; ++i) {
    original.Ingest("w", "latency", {0.2 * i, 0.5}, 1.0 + i);
  }
  ASSERT_TRUE(
      SaveModelServerData(original, {"w"}, {"latency"}, dir_.string()).ok());
  ModelServer restored;
  ASSERT_EQ(restored.Generation("w"), 0u);
  const Status loaded = LoadModelServerData(dir_.string(), &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(restored.NumTraces("w", "latency"), 5);
  EXPECT_EQ(restored.Generation("w"), 1u);
}

TEST_F(CheckpointTest, TwoFileLoadForOneWorkloadAdvancesGenerationByOne) {
  ModelServer original;
  for (int i = 0; i < 3; ++i) {
    original.Ingest("w", "latency", {0.25 * i, 0.5}, 1.0 + i);
    original.Ingest("w", "cost", {0.25 * i, 0.5}, 2.0 + i);
  }
  ASSERT_TRUE(SaveModelServerData(original, {"w"}, {"latency", "cost"},
                                  dir_.string())
                  .ok());
  ModelServer restored;
  ASSERT_TRUE(restored.Ingest("w", "latency", {0.9, 0.9}, 4.0).ok());
  ASSERT_TRUE(restored.Ingest("other", "latency", {0.9, 0.9}, 4.0).ok());
  const uint64_t before = restored.Generation("w");
  const Status loaded = LoadModelServerData(dir_.string(), &restored);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  EXPECT_EQ(restored.NumTraces("w", "latency"), 4);
  EXPECT_EQ(restored.NumTraces("w", "cost"), 3);
  EXPECT_EQ(restored.Generation("w"), before + 1);
  EXPECT_EQ(restored.Generation("other"), 1u);
}

TEST_F(CheckpointTest, FilesDisagreeingOnDimensionLoadNothing) {
  // Two files for one pair: each parses, but their column counts differ.
  {
    std::ofstream a(Path("a.traces"));
    a << "udao-traces-v1\nw\nlatency\n1 2\n0.1 0.2 1.0\n";
    std::ofstream b(Path("b.traces"));
    b << "udao-traces-v1\nw\nlatency\n1 3\n0.1 0.2 0.3 1.0\n";
  }
  ModelServer restored;
  const Status loaded = LoadModelServerData(dir_.string(), &restored);
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument) << loaded.ToString();
  EXPECT_EQ(restored.GetData("w", "latency").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(restored.Generation("w"), 0u);
}

TEST_F(CheckpointTest, LoadFromMissingDirectoryFails) {
  ModelServer server;
  EXPECT_FALSE(LoadModelServerData(Path("nope"), &server).ok());
}

}  // namespace
}  // namespace udao
