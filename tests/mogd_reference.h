#ifndef UDAO_TESTS_MOGD_REFERENCE_H_
#define UDAO_TESTS_MOGD_REFERENCE_H_

// Test-only reference MOGD: one start at a time, one point per model call,
// written directly from Eq. 3 over the scalar MooProblem surface. MogdSolver
// advances all starts in lockstep through the batched surface; batch model
// evaluation is row-independent and both use the same RNG draw order, the
// same Adam and the same first-best-wins rule, so the production solver must
// reproduce these solutions bitwise. No stop tokens, counters or metrics.

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "moo/mogd.h"
#include "moo/problem.h"
#include "nn/adam.h"

namespace udao {
namespace testing_reference {

// Start 0 is the box center; later starts are uniform draws, start-major.
inline Vector ReferenceStart(int start, int dim, Rng* rng) {
  Vector x(dim, 0.5);
  if (start > 0) {
    for (double& v : x) v = rng->Uniform();
  }
  return x;
}

inline void ReferenceClip(Vector* x) {
  for (double& v : *x) v = std::min(1.0, std::max(0.0, v));
}

/// MogdSolver::SolveCo(problem, co) with `config`, one start at a time.
inline std::optional<CoResult> ReferenceSolveCo(const MooProblem& problem,
                                                const CoProblem& co,
                                                const MogdConfig& config) {
  constexpr double kTol = 1e-6;  // feasibility slack
  const int k = problem.NumObjectives();
  const int dim = problem.EncodedDim();
  Vector span(k);
  for (int j = 0; j < k; ++j) span[j] = std::max(1e-9, co.upper[j] - co.lower[j]);

  // Values are uncertainty-adjusted when alpha > 0; the gradient is always
  // the mean's.
  Vector f(k);
  std::vector<Vector> grad(k);
  auto evaluate = [&](const Vector& x) {
    for (int j = 0; j < k; ++j) {
      if (config.alpha > 0.0) {
        double mean = 0.0;
        double stddev = 0.0;
        problem.EvaluateWithUncertainty(j, x, &mean, &stddev);
        f[j] = mean + config.alpha * stddev;
      } else {
        f[j] = problem.EvaluateOne(j, x);
      }
      grad[j] = problem.Gradient(j, x);
    }
  };

  // Feasible points rank by target value; the first strict best wins.
  std::optional<CoResult> best;
  auto consider = [&](const Vector& x) {
    for (int j = 0; j < k; ++j) {
      const double fn = (f[j] - co.lower[j]) / span[j];
      if (fn < -kTol || fn > 1.0 + kTol) return;
    }
    for (const CoProblem::LinearConstraint& lc : co.linear) {
      if (Dot(lc.normal, f) - lc.offset > kTol) return;
    }
    if (best.has_value() && !(f[co.target] < best->target_value)) return;
    best = CoResult{x, problem.space().Decode(x), f, f[co.target], {}};
  };

  Rng rng(config.seed);
  for (int start = 0; start < config.multistart; ++start) {
    Vector x = ReferenceStart(start, dim, &rng);
    Adam adam(dim, AdamConfig{.learning_rate = config.learning_rate});
    for (int iter = 0; iter < config.max_iters; ++iter) {
      evaluate(x);
      consider(x);
      // dL/dx of Eq. 3: out-of-box objectives pull toward the box center,
      // the in-box target toward its lower bound, and each violated linear
      // constraint a . F <= b adds the gradient of (a . F - b)^2.
      Vector loss_grad(dim, 0.0);
      for (int j = 0; j < k; ++j) {
        const double fn = (f[j] - co.lower[j]) / span[j];
        double coeff = 0.0;
        if (fn < 0.0 || fn > 1.0) {
          coeff = 2.0 * (fn - 0.5) / span[j];
        } else if (j == co.target) {
          coeff = 2.0 * fn / span[j];
        }
        if (coeff == 0.0) continue;
        for (int d = 0; d < dim; ++d) loss_grad[d] += coeff * grad[j][d];
      }
      for (const CoProblem::LinearConstraint& lc : co.linear) {
        const double g = Dot(lc.normal, f) - lc.offset;
        if (g <= 0.0) continue;
        for (int j = 0; j < k; ++j) {
          if (lc.normal[j] == 0.0) continue;
          for (int d = 0; d < dim; ++d) {
            loss_grad[d] += 2.0 * g * lc.normal[j] * grad[j][d];
          }
        }
      }
      adam.Step(&x, loss_grad);
      ReferenceClip(&x);
    }
    evaluate(x);
    consider(x);
  }
  return best;
}

/// MogdSolver::Minimize(problem, target) with `config`: unconstrained
/// descent on one objective, each stepped point considered.
inline CoResult ReferenceMinimize(const MooProblem& problem, int target,
                                  const MogdConfig& config) {
  const int dim = problem.EncodedDim();
  CoResult best;
  best.target_value = std::numeric_limits<double>::infinity();
  Rng rng(config.seed + 7 * target);
  for (int start = 0; start < config.multistart; ++start) {
    Vector x = ReferenceStart(start, dim, &rng);
    Adam adam(dim, AdamConfig{.learning_rate = config.learning_rate});
    for (int iter = 0; iter < config.max_iters; ++iter) {
      adam.Step(&x, problem.Gradient(target, x));
      ReferenceClip(&x);
      const double v = problem.EvaluateOne(target, x);
      if (v < best.target_value) {
        best.x = x;
        best.target_value = v;
      }
    }
  }
  best.raw = problem.space().Decode(best.x);
  best.objectives = problem.Evaluate(best.x);
  return best;
}

}  // namespace testing_reference
}  // namespace udao

#endif  // UDAO_TESTS_MOGD_REFERENCE_H_
