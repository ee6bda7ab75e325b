// The batched model-inference surface: PredictBatch / GradientBatch /
// PredictWithUncertaintyBatch must give every row exactly what that row
// gives alone, for every ObjectiveModel subclass, and the Mlp model's batch
// paths must match the per-point reference arithmetic in model_reference.h
// bitwise. The solvers built on top must return identical solutions
// regardless of thread count or repetition, and MOGD's lockstep multistarts
// must match the one-start-at-a-time reference in mogd_reference.h bitwise.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/random.h"
#include "common/thread_pool.h"
#include "model/analytic_models.h"
#include "model/gp_model.h"
#include "model/mlp_model.h"
#include "model/objective_model.h"
#include "moo/mogd.h"
#include "moo/problem.h"
#include "moo/progressive_frontier.h"
#include "model_reference.h"
#include "mogd_reference.h"
#include "test_problems.h"

namespace udao {
namespace {

using testing_problems::ConvexProblem;
using testing_problems::UnitSpace2;
using testing_reference::ReferenceMinimize;
using testing_reference::ReferenceMlpModelGradient;
using testing_reference::ReferenceMlpModelPredict;
using testing_reference::ReferenceMlpModelUncertainty;
using testing_reference::ReferenceSolveCo;

Matrix RandomPoints(int n, int dim, uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, dim);
  for (double& v : x.data()) v = rng.Uniform();
  return x;
}

Vector Row(const Matrix& x, int i) {
  return Vector(x.RowPtr(i), x.RowPtr(i) + x.cols());
}

// `n` uniform points whose last two rows duplicate rows 0 and 1.
Matrix PointsWithDuplicates(int n, int dim, uint64_t seed) {
  Matrix x = RandomPoints(n, dim, seed);
  for (int d = 0; d < dim; ++d) {
    x(n - 2, d) = x(0, d);
    x(n - 1, d) = x(1, d);
  }
  return x;
}

// Asserts row i of each batch entry point equals row i evaluated alone (the
// one-row wrappers Predict / InputGradient / PredictWithUncertainty),
// bitwise, on every row of `x`.
void ExpectRowsIndependent(const ObjectiveModel& model, const Matrix& x) {
  const int n = x.rows();
  const int dim = x.cols();
  ASSERT_GE(n, 7);

  Vector batch_values;
  model.PredictBatch(x, &batch_values);
  ASSERT_EQ(static_cast<int>(batch_values.size()), n);

  Matrix batch_grads;
  Vector fused_values;
  model.GradientBatch(x, &batch_grads, &fused_values);
  ASSERT_EQ(batch_grads.rows(), n);
  ASSERT_EQ(batch_grads.cols(), dim);
  ASSERT_EQ(static_cast<int>(fused_values.size()), n);

  Matrix grads_only;
  model.GradientBatch(x, &grads_only);

  Vector batch_mean;
  Vector batch_std;
  model.PredictWithUncertaintyBatch(x, &batch_mean, &batch_std);
  ASSERT_EQ(static_cast<int>(batch_mean.size()), n);
  ASSERT_EQ(static_cast<int>(batch_std.size()), n);

  for (int i = 0; i < n; ++i) {
    const Vector xi = Row(x, i);
    const double alone = model.Predict(xi);
    EXPECT_EQ(batch_values[i], alone) << "PredictBatch row " << i;
    EXPECT_EQ(fused_values[i], alone) << "fused values row " << i;
    const Vector grad_alone = model.InputGradient(xi);
    for (int d = 0; d < dim; ++d) {
      EXPECT_EQ(batch_grads(i, d), grad_alone[d])
          << "GradientBatch row " << i << " dim " << d;
      EXPECT_EQ(grads_only(i, d), grad_alone[d])
          << "GradientBatch (no values) row " << i << " dim " << d;
    }
    double mean = 0.0;
    double stddev = 0.0;
    model.PredictWithUncertainty(xi, &mean, &stddev);
    EXPECT_EQ(batch_mean[i], mean) << "uncertainty mean row " << i;
    EXPECT_EQ(batch_std[i], stddev) << "uncertainty std row " << i;
  }
}

// Asserts the Mlp model's batch entry points equal the per-point reference
// arithmetic (model_reference.h) bitwise on every row of `x`.
void ExpectMlpModelMatchesReference(const MlpModel& model, const Matrix& x) {
  Vector values;
  model.PredictBatch(x, &values);
  Matrix grads;
  Vector fused;
  model.GradientBatch(x, &grads, &fused);
  Vector mean;
  Vector stddev;
  model.PredictWithUncertaintyBatch(x, &mean, &stddev);
  for (int i = 0; i < x.rows(); ++i) {
    const Vector xi = Row(x, i);
    const double want = ReferenceMlpModelPredict(model, xi);
    EXPECT_EQ(values[i], want) << "PredictBatch row " << i;
    EXPECT_EQ(fused[i], want) << "fused values row " << i;
    EXPECT_EQ(grads.Row(i), ReferenceMlpModelGradient(model, xi))
        << "GradientBatch row " << i;
    double m = 0.0;
    double s = 0.0;
    ReferenceMlpModelUncertainty(model, xi, &m, &s);
    EXPECT_EQ(mean[i], m) << "uncertainty mean row " << i;
    EXPECT_EQ(stddev[i], s) << "uncertainty std row " << i;
  }
}

std::shared_ptr<MlpModel> FitTinyMlp(int dim, bool log_targets) {
  Rng rng(11);
  Matrix x = RandomPoints(48, dim, 5);
  Vector y(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    y[i] = 1.5 + x(i, 0) * 2.0 + (dim > 1 ? x(i, 1) * x(i, 1) : 0.0);
  }
  MlpModelConfig cfg;
  cfg.hidden = {16, 16};
  cfg.train.epochs = 60;
  cfg.log_transform_targets = log_targets;
  auto fitted = MlpModel::Fit(x, y, cfg, &rng);
  EXPECT_TRUE(fitted.ok());
  return *fitted;
}

std::shared_ptr<GpModel> FitTinyGp(int dim, bool log_targets) {
  Matrix x = RandomPoints(32, dim, 6);
  Vector y(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    y[i] = 2.0 + x(i, 0) + 0.5 * x(i, dim - 1);
  }
  GpConfig cfg;
  cfg.hyper_opt_steps = 20;
  cfg.log_transform_targets = log_targets;
  auto fitted = GpModel::Fit(x, y, cfg);
  EXPECT_TRUE(fitted.ok());
  return *fitted;
}

TEST(BatchEvalTest, MlpModelMatchesReference) {
  const auto model = FitTinyMlp(4, false);
  const Matrix x = PointsWithDuplicates(17, 4, 21);
  ExpectMlpModelMatchesReference(*model, x);
  ExpectRowsIndependent(*model, x);
}

TEST(BatchEvalTest, MlpModelLogTargetsMatchesReference) {
  const auto model = FitTinyMlp(3, true);
  const Matrix x = PointsWithDuplicates(9, 3, 22);
  ExpectMlpModelMatchesReference(*model, x);
  ExpectRowsIndependent(*model, x);
}

TEST(BatchEvalTest, GpModelRowsAreIndependent) {
  ExpectRowsIndependent(*FitTinyGp(4, false), PointsWithDuplicates(13, 4, 23));
}

TEST(BatchEvalTest, GpModelLogTargetsRowsAreIndependent) {
  ExpectRowsIndependent(*FitTinyGp(3, true), PointsWithDuplicates(7, 3, 24));
}

TEST(BatchEvalTest, AnalyticModelsRowsAreIndependent) {
  const int batch_dim = BatchParamSpace().EncodedDim();
  const int stream_dim = StreamParamSpace().EncodedDim();
  auto latency = MakeAnalyticBatchLatencyModel(AnalyticWorkload{});
  ExpectRowsIndependent(*latency, PointsWithDuplicates(11, batch_dim, 31));
  ExpectRowsIndependent(*MakeCostCoresModel(),
                        PointsWithDuplicates(11, batch_dim, 32));
  ExpectRowsIndependent(*MakeStreamCostCoresModel(),
                        PointsWithDuplicates(11, stream_dim, 33));
  ExpectRowsIndependent(*MakeCpuHourModel(latency),
                        PointsWithDuplicates(11, batch_dim, 34));
  ExpectRowsIndependent(*MakeFig3LatencyModel(),
                        PointsWithDuplicates(11, 2, 35));
  ExpectRowsIndependent(*MakeFig3CostModel(), PointsWithDuplicates(11, 2, 36));
}

// A per-point callable with no gradient: the row loop plus batched central
// differences. The gradient must be exactly (f(x + h e_d) - f(x - h e_d)) /
// (2h) with h = 1e-5 -- the stage models' descents depend on these bits.
TEST(BatchEvalTest, CallableModelFiniteDifferencesRowsAreIndependent) {
  const auto f = [](const Vector& x) {
    return x[0] * x[0] + 2.0 * x[1] + std::sin(x[2]);
  };
  CallableModel model("quad", 3, f);
  const Matrix x = PointsWithDuplicates(7, 3, 41);
  ExpectRowsIndependent(model, x);
  Matrix grads;
  model.GradientBatch(x, &grads);
  const double h = 1e-5;
  for (int i = 0; i < x.rows(); ++i) {
    for (int d = 0; d < 3; ++d) {
      Vector plus = Row(x, i);
      Vector minus = plus;
      plus[d] = plus[d] + h;
      minus[d] = minus[d] - h;
      EXPECT_EQ(grads(i, d), (f(plus) - f(minus)) / (2.0 * h))
          << "row " << i << " dim " << d;
    }
  }
}

TEST(BatchEvalTest, WrapperModelsRowsAreIndependent) {
  ExpectRowsIndependent(NonNegativeModel(FitTinyMlp(3, false)),
                        PointsWithDuplicates(9, 3, 51));
  ExpectRowsIndependent(NonNegativeModel(FitTinyGp(3, false)),
                        PointsWithDuplicates(9, 3, 52));
}

// A DNN-backed bi-objective problem over UnitSpace2, exercising the GEMM
// batch path inside the solvers.
MooProblem DnnProblem(std::shared_ptr<MlpModel>* keep_alive) {
  *keep_alive = FitTinyMlp(2, false);
  auto cost = std::make_shared<CallableModel>(
      "cost", 2, [](const Vector& x) { return x[0] + 0.3 * x[1]; },
      [](const Vector& x) {
        (void)x;
        return Vector{1.0, 0.3};
      });
  return MooProblem(&UnitSpace2(),
                    {ObjectiveSpec{"lat", *keep_alive},
                     ObjectiveSpec{"cost", cost}});
}

MogdConfig SmallConfig() {
  MogdConfig cfg;
  cfg.multistart = 4;
  cfg.max_iters = 40;
  return cfg;
}

CoProblem CenterBox(const MooProblem& problem) {
  MogdSolver solver(SmallConfig());
  CoResult a = solver.Minimize(problem, 0);
  CoResult b = solver.Minimize(problem, 1);
  CoProblem co;
  co.target = 0;
  co.lower = {std::min(a.objectives[0], b.objectives[0]),
              std::min(a.objectives[1], b.objectives[1])};
  co.upper = {std::max(a.objectives[0], b.objectives[0]),
              std::max(a.objectives[1], b.objectives[1])};
  return co;
}

// A GP-backed bi-objective problem over UnitSpace2: the GP latency rises
// with x0 while the callable cost falls with it, so the two conflict.
MooProblem GpProblem(std::shared_ptr<GpModel>* keep_alive) {
  *keep_alive = FitTinyGp(2, false);
  auto cost = std::make_shared<CallableModel>(
      "cost", 2,
      [](const Vector& x) { return (1.0 - x[0]) * (1.0 - x[0]) + 0.3 * x[1]; },
      [](const Vector& x) { return Vector{-2.0 * (1.0 - x[0]), 0.3}; });
  return MooProblem(&UnitSpace2(),
                    {ObjectiveSpec{"gp_lat", *keep_alive},
                     ObjectiveSpec{"cost", cost}});
}

// Asserts MogdSolver reproduces the one-start-at-a-time reference
// (tests/mogd_reference.h) bitwise on `co` and on every objective's
// unconstrained minimization.
void ExpectMogdMatchesReference(const MooProblem& problem, const CoProblem& co,
                                const MogdConfig& cfg) {
  const MogdSolver solver(cfg);
  const auto got = solver.SolveCo(problem, co);
  const auto want = ReferenceSolveCo(problem, co, cfg);
  ASSERT_TRUE(want.has_value()) << "the case must have a feasible solution";
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->x, want->x);
  EXPECT_EQ(got->raw, want->raw);
  EXPECT_EQ(got->target_value, want->target_value);
  EXPECT_EQ(got->objectives, want->objectives);

  for (int target = 0; target < problem.NumObjectives(); ++target) {
    const CoResult m_got = solver.Minimize(problem, target);
    const CoResult m_want = ReferenceMinimize(problem, target, cfg);
    EXPECT_EQ(m_got.x, m_want.x) << "target " << target;
    EXPECT_EQ(m_got.target_value, m_want.target_value) << "target " << target;
    EXPECT_EQ(m_got.objectives, m_want.objectives) << "target " << target;
  }
}

// CenterBox plus a binding linear constraint a . F <= b with a = (0.5, 1):
// b sits halfway between the box solution (which violates it) and the
// objective-1 anchor (which satisfies it).
CoProblem WithBindingLinear(const MooProblem& problem, const CoProblem& box) {
  const MogdSolver solver(SmallConfig());
  const auto unconstrained = solver.SolveCo(problem, box);
  if (!unconstrained.has_value()) {
    ADD_FAILURE() << "the box solve must be feasible";
    return box;
  }
  const CoResult anchor = solver.Minimize(problem, 1);
  CoProblem co = box;
  const Vector normal{0.5, 1.0};
  const double violated = Dot(normal, unconstrained->objectives);
  const double satisfied = Dot(normal, anchor.objectives);
  EXPECT_LT(satisfied, violated);
  co.linear.push_back({normal, 0.5 * (violated + satisfied)});
  return co;
}

TEST(BatchEvalTest, MogdMatchesReferenceSolutions) {
  std::shared_ptr<MlpModel> mlp;
  const MooProblem dnn = DnnProblem(&mlp);
  std::shared_ptr<GpModel> gp;
  const MooProblem gp_problem = GpProblem(&gp);
  const MooProblem convex = ConvexProblem();

  for (const MooProblem* problem : {&dnn, &gp_problem, &convex}) {
    SCOPED_TRACE(problem->objective(0).name + "/" +
                 problem->objective(1).name);
    const CoProblem box = CenterBox(*problem);
    ExpectMogdMatchesReference(*problem, box, SmallConfig());

    // Uncertainty-adjusted values (MC dropout / GP posterior std): the
    // descent follows the mean's gradient, the ranking the adjusted values.
    MogdConfig conservative = SmallConfig();
    conservative.alpha = 0.5;
    ExpectMogdMatchesReference(*problem, box, conservative);
  }

  // Linear objective-space constraints on the problems whose objectives
  // conflict (the DNN problem's two objectives share one minimizer).
  for (const MooProblem* problem : {&gp_problem, &convex}) {
    SCOPED_TRACE(problem->objective(0).name + "/" +
                 problem->objective(1).name + " linear");
    ExpectMogdMatchesReference(
        *problem, WithBindingLinear(*problem, CenterBox(*problem)),
        SmallConfig());
  }
}

TEST(BatchEvalTest, SolveBatchStableAcrossThreadsAndRuns) {
  std::shared_ptr<MlpModel> keep;
  MooProblem problem = DnnProblem(&keep);
  std::vector<CoProblem> problems;
  const CoProblem base = CenterBox(problem);
  for (int i = 0; i < 6; ++i) {
    CoProblem co = base;
    const double span = base.upper[0] - base.lower[0];
    co.lower[0] = base.lower[0] + span * i / 6.0;
    co.upper[0] = base.lower[0] + span * (i + 1) / 6.0;
    problems.push_back(std::move(co));
  }

  MogdConfig inline_cfg = SmallConfig();  // pool == nullptr
  ThreadPool pool(8);
  MogdConfig pooled_cfg = SmallConfig();
  pooled_cfg.pool = &pool;

  auto inline_1 = MogdSolver(inline_cfg).SolveBatch(problem, problems);
  auto inline_2 = MogdSolver(inline_cfg).SolveBatch(problem, problems);
  auto pooled_1 = MogdSolver(pooled_cfg).SolveBatch(problem, problems);
  auto pooled_2 = MogdSolver(pooled_cfg).SolveBatch(problem, problems);

  for (size_t i = 0; i < problems.size(); ++i) {
    ASSERT_EQ(inline_1[i].has_value(), pooled_1[i].has_value()) << i;
    ASSERT_EQ(inline_1[i].has_value(), inline_2[i].has_value()) << i;
    ASSERT_EQ(pooled_1[i].has_value(), pooled_2[i].has_value()) << i;
    if (!inline_1[i].has_value()) continue;
    // Bitwise-stable: threads=1 vs threads=8, and run-to-run.
    EXPECT_EQ(inline_1[i]->x, pooled_1[i]->x) << i;
    EXPECT_EQ(inline_1[i]->target_value, pooled_1[i]->target_value) << i;
    EXPECT_EQ(inline_1[i]->x, inline_2[i]->x) << i;
    EXPECT_EQ(pooled_1[i]->x, pooled_2[i]->x) << i;
  }
}

TEST(BatchEvalTest, PerfCountersPopulated) {
  MooProblem problem = ConvexProblem();
  MogdConfig cfg = SmallConfig();
  MogdSolver solver(cfg);

  SolvePerf perf;
  const CoProblem co = CenterBox(problem);
  auto result = solver.SolveCo(problem, co, &perf);
  // multistart x (max_iters + 1 final) evaluations x 2 objectives.
  const long long expected_evals =
      2LL * cfg.multistart * (cfg.max_iters + 1);
  EXPECT_EQ(perf.model_evals, expected_evals);
  // Lockstep: one batch call per objective per evaluation round.
  EXPECT_EQ(perf.batch_calls, 2LL * (cfg.max_iters + 1));
  EXPECT_EQ(perf.iterations,
            static_cast<long long>(cfg.multistart) * cfg.max_iters);
  EXPECT_DOUBLE_EQ(perf.AvgBatch(), cfg.multistart);
  EXPECT_GE(perf.solve_seconds, perf.eval_seconds);
  EXPECT_GT(perf.solve_seconds, 0.0);
  if (result.has_value()) {
    EXPECT_EQ(result->perf.model_evals, expected_evals);
  }

  // PF aggregates counters across reference points and probes.
  PfConfig pf_cfg;
  pf_cfg.mogd = cfg;
  ProgressiveFrontier pf(&problem, pf_cfg);
  const PfResult& pf_result = pf.Run(6);
  EXPECT_GT(pf_result.perf.model_evals, 0);
  EXPECT_GT(pf_result.perf.batch_calls, 0);
  EXPECT_GT(pf_result.perf.iterations, 0);
  EXPECT_GT(pf_result.probes, 0);
}

}  // namespace
}  // namespace udao
