#include <gtest/gtest.h>

#include <cmath>

#include "common/matrix.h"
#include "common/random.h"
#include "nn/adam.h"
#include "nn/mlp.h"
#include "nn/train.h"
#include "model_reference.h"

namespace udao {
namespace {

using testing_reference::ReferenceMlpInputGradient;
using testing_reference::ReferenceMlpPredict;
using testing_reference::ReferenceMlpUncertainty;

MlpConfig SmallConfig(Activation act = Activation::kTanh) {
  MlpConfig cfg;
  cfg.layer_sizes = {3, 8, 8, 1};
  cfg.activation = act;
  cfg.l2 = 0.0;
  return cfg;
}

Matrix OneRow(const Vector& x) { return Matrix::FromRows({x}); }

double PredictOne(const Mlp& mlp, const Vector& x) {
  Vector out;
  mlp.PredictBatch(OneRow(x), &out);
  return out[0];
}

Vector GradientOne(const Mlp& mlp, const Vector& x) {
  Matrix grad;
  mlp.InputGradientBatch(OneRow(x), &grad);
  return grad.Row(0);
}

void UncertaintyOne(const Mlp& mlp, const Vector& x, int samples,
                    uint64_t seed, double* mean, double* stddev) {
  std::vector<Rng> rngs(1, Rng(seed));
  Vector m;
  Vector s;
  mlp.PredictWithUncertaintyBatch(OneRow(x), samples, &rngs, &m, &s);
  *mean = m[0];
  *stddev = s[0];
}

// ---------------------------------------------------------------- Mlp

TEST(MlpTest, ForwardShapeAndDeterminism) {
  Rng rng(1);
  Mlp mlp(SmallConfig(), &rng);
  Vector x = {0.1, 0.5, 0.9};
  Vector y1 = mlp.Forward(x);
  Vector y2 = mlp.Forward(x);
  ASSERT_EQ(y1.size(), 1u);
  EXPECT_DOUBLE_EQ(y1[0], y2[0]);
}

TEST(MlpTest, SnapshotRestoreRoundTrips) {
  Rng rng(2);
  Mlp a(SmallConfig(), &rng);
  Mlp b(SmallConfig(), &rng);
  Vector x = {0.2, 0.4, 0.6};
  EXPECT_NE(PredictOne(a, x), PredictOne(b, x));
  b.Restore(a.Snapshot());
  EXPECT_DOUBLE_EQ(PredictOne(a, x), PredictOne(b, x));
}

// Central finite differences validate the analytic input gradient for both
// activations across random points -- the property MOGD depends on.
class InputGradientProperty
    : public ::testing::TestWithParam<std::tuple<int, Activation>> {};

TEST_P(InputGradientProperty, MatchesFiniteDifferences) {
  const auto [seed, act] = GetParam();
  Rng rng(seed);
  Mlp mlp(SmallConfig(act), &rng);
  const double h = 1e-6;
  for (int trial = 0; trial < 10; ++trial) {
    Vector x = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    Vector grad = GradientOne(mlp, x);
    ASSERT_EQ(grad.size(), x.size());
    for (size_t d = 0; d < x.size(); ++d) {
      Vector xp = x;
      Vector xm = x;
      xp[d] += h;
      xm[d] -= h;
      const double fd =
          (PredictOne(mlp, xp) - PredictOne(mlp, xm)) / (2 * h);
      EXPECT_NEAR(grad[d], fd, 1e-4) << "dim " << d << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndActivations, InputGradientProperty,
    ::testing::Combine(::testing::Values(10, 11, 12, 13),
                       ::testing::Values(Activation::kTanh,
                                         Activation::kRelu)));

// Weight gradients also validated against finite differences on a tiny batch.
TEST(MlpTest, WeightGradientsMatchFiniteDifferences) {
  Rng rng(3);
  Mlp mlp(SmallConfig(Activation::kTanh), &rng);
  Matrix x = Matrix::FromRows({{0.1, 0.2, 0.3}, {0.9, 0.8, 0.7}});
  Vector y = {1.0, -1.0};

  std::vector<Mlp::LayerGrad> grads = mlp.ZeroGrads();
  mlp.ForwardBackward(x, y, &grads);
  Vector flat;
  for (const auto& g : grads) {
    flat.insert(flat.end(), g.dw.data().begin(), g.dw.data().end());
    flat.insert(flat.end(), g.db.begin(), g.db.end());
  }

  auto loss_at = [&](const Vector& params) {
    Mlp probe(SmallConfig(Activation::kTanh), &rng);
    probe.Restore(params);
    double loss = 0.0;
    for (int n = 0; n < x.rows(); ++n) {
      const double err = probe.Forward(x.Row(n))[0] - y[n];
      loss += err * err;
    }
    return loss / x.rows();
  };

  Vector params = mlp.Snapshot();
  const double h = 1e-6;
  // Spot-check a spread of parameter indices.
  for (size_t i = 0; i < params.size(); i += 7) {
    Vector pp = params;
    Vector pm = params;
    pp[i] += h;
    pm[i] -= h;
    const double fd = (loss_at(pp) - loss_at(pm)) / (2 * h);
    EXPECT_NEAR(flat[i], fd, 1e-4) << "param " << i;
  }
}

TEST(MlpTest, L2PenaltyIncreasesLossAndGradients) {
  Rng rng(4);
  MlpConfig cfg = SmallConfig();
  Mlp plain(cfg, &rng);
  MlpConfig cfg_l2 = cfg;
  cfg_l2.l2 = 0.1;
  Rng rng2(4);
  Mlp reg(cfg_l2, &rng2);  // same seed -> same weights
  Matrix x = Matrix::FromRows({{0.5, 0.5, 0.5}});
  Vector y = {0.0};
  auto g1 = plain.ZeroGrads();
  auto g2 = reg.ZeroGrads();
  const double l_plain = plain.ForwardBackward(x, y, &g1);
  const double l_reg = reg.ForwardBackward(x, y, &g2);
  EXPECT_GT(l_reg, l_plain);
}

TEST(MlpTest, DropoutUncertaintyIsNonNegativeAndMeanReasonable) {
  Rng rng(5);
  MlpConfig cfg = SmallConfig();
  cfg.dropout = 0.2;
  Mlp mlp(cfg, &rng);
  Vector x = {0.3, 0.3, 0.3};
  double mean = 0.0;
  double stddev = -1.0;
  UncertaintyOne(mlp, x, 200, 99, &mean, &stddev);
  EXPECT_GE(stddev, 0.0);
  // MC-dropout mean should be in the ballpark of the deterministic output.
  EXPECT_NEAR(mean, PredictOne(mlp, x), 5.0 * (stddev + 0.05));
}

// Seven points, the last two duplicating earlier ones.
Matrix ReferencePoints() {
  Matrix x(7, 3);
  Rng points(11);
  for (int r = 0; r < 5; ++r) {
    for (int d = 0; d < 3; ++d) x(r, d) = points.Uniform();
  }
  for (int d = 0; d < 3; ++d) {
    x(5, d) = x(0, d);
    x(6, d) = x(3, d);
  }
  return x;
}

// The batched forward and backward must reproduce the per-point reference
// arithmetic (model_reference.h) bitwise, for both activations.
TEST(MlpTest, BatchedForwardAndGradientMatchReferenceBitwise) {
  for (const Activation act : {Activation::kRelu, Activation::kTanh}) {
    Rng rng(7);
    Mlp mlp(SmallConfig(act), &rng);
    const Matrix x = ReferencePoints();
    Vector values;
    mlp.PredictBatch(x, &values);
    Matrix grads;
    Vector fused;
    mlp.InputGradientBatch(x, &grads, &fused);
    for (int r = 0; r < x.rows(); ++r) {
      const double want = ReferenceMlpPredict(mlp, x.Row(r));
      EXPECT_EQ(values[r], want) << "row " << r;
      EXPECT_EQ(fused[r], want) << "row " << r;
      EXPECT_EQ(grads.Row(r), ReferenceMlpInputGradient(mlp, x.Row(r)))
          << "row " << r;
    }
  }
}

// Batched MC-dropout must match the per-point reference bitwise per row
// (same per-row Rng stream, same per-element operations), for both
// activations: the recommendation re-ranker relies on it.
TEST(MlpTest, BatchedUncertaintyMatchesScalarBitwise) {
  for (const Activation act : {Activation::kRelu, Activation::kTanh}) {
    Rng rng(7);
    MlpConfig cfg = SmallConfig(act);
    cfg.dropout = 0.2;
    Mlp mlp(cfg, &rng);
    const Matrix x = ReferencePoints();
    const int rows = x.rows();
    const int samples = 16;
    std::vector<Rng> rngs;
    for (int r = 0; r < rows; ++r) rngs.emplace_back(100 + r);
    Vector mean;
    Vector stddev;
    mlp.PredictWithUncertaintyBatch(x, samples, &rngs, &mean, &stddev);
    ASSERT_EQ(mean.size(), static_cast<size_t>(rows));
    ASSERT_EQ(stddev.size(), static_cast<size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      Rng mc(100 + r);
      double m = 0.0;
      double s = 0.0;
      ReferenceMlpUncertainty(mlp, x.Row(r), samples, &mc, &m, &s);
      EXPECT_EQ(mean[r], m) << "row " << r;
      EXPECT_EQ(stddev[r], s) << "row " << r;
    }
  }
}

TEST(MlpTest, ZeroDropoutGivesZeroUncertainty) {
  Rng rng(6);
  MlpConfig cfg = SmallConfig();
  cfg.dropout = 0.0;
  Mlp mlp(cfg, &rng);
  double mean = 0.0;
  double stddev = -1.0;
  UncertaintyOne(mlp, {0.1, 0.2, 0.3}, 32, 1, &mean, &stddev);
  EXPECT_DOUBLE_EQ(stddev, 0.0);
  EXPECT_DOUBLE_EQ(mean, PredictOne(mlp, {0.1, 0.2, 0.3}));
}

TEST(MlpTest, MultiOutputTrainingLearnsVectorTargets) {
  Rng rng(20);
  MlpConfig cfg;
  cfg.layer_sizes = {2, 16, 2};
  cfg.activation = Activation::kTanh;
  cfg.l2 = 0.0;
  Mlp mlp(cfg, &rng);
  const int n = 120;
  Matrix x(n, 2);
  Matrix y(n, 2);
  for (int i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y(i, 0) = 0.7 * x(i, 0) - 0.2 * x(i, 1);
    y(i, 1) = 0.3 * x(i, 1) + 0.1;
  }
  TrainConfig tc;
  tc.epochs = 300;
  tc.learning_rate = 5e-3;
  TrainResult result = TrainMlpMulti(&mlp, x, y, tc, &rng);
  EXPECT_LT(result.best_loss, 5e-3);
  Vector out = mlp.Forward({0.5, 0.5});
  EXPECT_NEAR(out[0], 0.7 * 0.5 - 0.2 * 0.5, 0.08);
  EXPECT_NEAR(out[1], 0.3 * 0.5 + 0.1, 0.08);
}

TEST(MlpTest, LayerActivationsMatchManualForward) {
  Rng rng(21);
  MlpConfig cfg;
  cfg.layer_sizes = {2, 3, 1};
  cfg.activation = Activation::kTanh;
  Mlp mlp(cfg, &rng);
  Vector x = {0.2, 0.8};
  const Vector hidden = mlp.LayerActivations(x, 0);
  ASSERT_EQ(hidden.size(), 3u);
  // Recompute layer 0 by hand from the weights.
  const Mlp::Layer& layer = mlp.layers()[0];
  for (int i = 0; i < 3; ++i) {
    double z = layer.b[i];
    for (int c = 0; c < 2; ++c) z += layer.w(i, c) * x[c];
    EXPECT_NEAR(hidden[i], std::tanh(z), 1e-12);
  }
  // The last layer's activation is the network output itself.
  EXPECT_DOUBLE_EQ(mlp.LayerActivations(x, 1)[0], mlp.Forward(x)[0]);
}

TEST(MlpTest, MultiOutputGradientsMatchFiniteDifferences) {
  Rng rng(22);
  MlpConfig cfg;
  cfg.layer_sizes = {2, 4, 3};
  cfg.activation = Activation::kTanh;
  cfg.l2 = 0.0;
  Mlp mlp(cfg, &rng);
  Matrix x = Matrix::FromRows({{0.3, 0.7}});
  Matrix y = Matrix::FromRows({{0.1, -0.2, 0.4}});
  auto grads = mlp.ZeroGrads();
  mlp.ForwardBackwardMulti(x, y, &grads);
  Vector flat;
  for (const auto& g : grads) {
    flat.insert(flat.end(), g.dw.data().begin(), g.dw.data().end());
    flat.insert(flat.end(), g.db.begin(), g.db.end());
  }
  auto loss_at = [&](const Vector& params) {
    Mlp probe(cfg, &rng);
    probe.Restore(params);
    const Vector out = probe.Forward(x.Row(0));
    double loss = 0.0;
    for (int o = 0; o < 3; ++o) {
      const double err = out[o] - y(0, o);
      loss += err * err / 3.0;
    }
    return loss;
  };
  const Vector params = mlp.Snapshot();
  const double h = 1e-6;
  for (size_t i = 0; i < params.size(); i += 3) {
    Vector pp = params;
    Vector pm = params;
    pp[i] += h;
    pm[i] -= h;
    const double fd = (loss_at(pp) - loss_at(pm)) / (2 * h);
    EXPECT_NEAR(flat[i], fd, 1e-5) << "param " << i;
  }
}

// ---------------------------------------------------------------- Adam

TEST(AdamTest, ConvergesOnQuadraticBowl) {
  // minimize f(p) = (p0-3)^2 + (p1+2)^2
  Vector p = {0.0, 0.0};
  Adam adam(2, AdamConfig{.learning_rate = 0.1});
  for (int i = 0; i < 2000; ++i) {
    Vector grad = {2 * (p[0] - 3), 2 * (p[1] + 2)};
    adam.Step(&p, grad);
  }
  EXPECT_NEAR(p[0], 3.0, 1e-3);
  EXPECT_NEAR(p[1], -2.0, 1e-3);
}

TEST(AdamTest, ResetClearsMoments) {
  Vector p = {1.0};
  Adam adam(1);
  adam.Step(&p, {1.0});
  EXPECT_EQ(adam.step_count(), 1);
  adam.Reset();
  EXPECT_EQ(adam.step_count(), 0);
}

TEST(AdamTest, FirstStepHasMagnitudeNearLearningRate) {
  // Adam's bias correction makes the first step ~lr regardless of grad scale.
  Vector p = {0.0};
  Adam adam(1, AdamConfig{.learning_rate = 0.01});
  adam.Step(&p, {1234.5});
  EXPECT_NEAR(p[0], -0.01, 1e-5);
}

// ---------------------------------------------------------------- Training

TEST(TrainTest, LearnsLinearFunction) {
  Rng rng(7);
  MlpConfig cfg;
  cfg.layer_sizes = {2, 16, 1};
  cfg.activation = Activation::kTanh;
  cfg.l2 = 0.0;
  Mlp mlp(cfg, &rng);
  const int n = 128;
  Matrix x(n, 2);
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    x(i, 0) = rng.Uniform();
    x(i, 1) = rng.Uniform();
    y[i] = 0.5 * x(i, 0) - 0.3 * x(i, 1) + 0.1;
  }
  TrainConfig tc;
  tc.epochs = 300;
  tc.learning_rate = 5e-3;
  TrainResult result = TrainMlp(&mlp, x, y, tc, &rng);
  EXPECT_LT(result.best_loss, 1e-3);
  // Generalizes to a held-out point.
  EXPECT_NEAR(PredictOne(mlp, {0.5, 0.5}), 0.5 * 0.5 - 0.3 * 0.5 + 0.1, 0.05);
}

TEST(TrainTest, EarlyStoppingHaltsBeforeMaxEpochs) {
  Rng rng(8);
  MlpConfig cfg;
  cfg.layer_sizes = {1, 4, 1};
  cfg.l2 = 0.0;
  Mlp mlp(cfg, &rng);
  Matrix x = Matrix::FromRows({{0.0}, {1.0}});
  Vector y = {0.0, 0.0};  // trivially learnable
  TrainConfig tc;
  tc.epochs = 10000;
  tc.early_stop_patience = 5;
  TrainResult result = TrainMlp(&mlp, x, y, tc, &rng);
  EXPECT_LT(result.epochs_run, 10000);
}

TEST(TrainTest, FineTuningImprovesShiftedTarget) {
  Rng rng(9);
  MlpConfig cfg;
  cfg.layer_sizes = {1, 16, 1};
  cfg.activation = Activation::kTanh;
  cfg.l2 = 0.0;
  Mlp mlp(cfg, &rng);
  const int n = 64;
  Matrix x(n, 1);
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / n;
    y[i] = std::sin(3 * x(i, 0));
  }
  TrainConfig tc;
  tc.epochs = 200;
  TrainMlp(&mlp, x, y, tc, &rng);

  // Shift targets slightly; a short fine-tune should track the shift.
  Vector y2 = y;
  for (double& v : y2) v += 0.2;
  double before = 0.0;
  for (int i = 0; i < n; ++i) {
    const double e = PredictOne(mlp, x.Row(i)) - y2[i];
    before += e * e;
  }
  TrainConfig ft;
  ft.epochs = 100;
  ft.learning_rate = 1e-3;
  TrainResult result = TrainMlp(&mlp, x, y2, ft, &rng);
  EXPECT_LT(result.best_loss, before / n);
}

}  // namespace
}  // namespace udao
