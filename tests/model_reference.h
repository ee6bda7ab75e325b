#ifndef UDAO_TESTS_MODEL_REFERENCE_H_
#define UDAO_TESTS_MODEL_REFERENCE_H_

// Test-only reference model arithmetic: one point at a time, written over
// the public Mlp::layers()/config() with Matrix::Apply (forward) and
// Matrix::ApplyTranspose (backward). Mlp and MlpModel evaluate whole
// batches through fused layer kernels (nn/kernels.h) that perform, per
// output element, the same operations in the same order, and MC-dropout
// draws each row's masks from the same per-row stream, so the production
// batch paths must reproduce these values bitwise within a kernel backend.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "model/mlp_model.h"
#include "nn/mlp.h"

namespace udao {
namespace testing_reference {

/// Forward pass of one point. Hidden activations are multiplied by
/// (*masks)[l] after the activation when `masks` is non-null (inverted
/// dropout). `pre`/`post`, when non-null, receive every layer's pre- and
/// post-activation values.
inline Vector ReferenceMlpForward(const Mlp& mlp, const Vector& x,
                                  const std::vector<Vector>* masks,
                                  std::vector<Vector>* pre = nullptr,
                                  std::vector<Vector>* post = nullptr) {
  const std::vector<Mlp::Layer>& layers = mlp.layers();
  const int num_layers = static_cast<int>(layers.size());
  Vector cur = x;
  for (int l = 0; l < num_layers; ++l) {
    Vector z = layers[l].w.Apply(cur);
    for (size_t i = 0; i < z.size(); ++i) z[i] += layers[l].b[i];
    if (pre != nullptr) pre->push_back(z);
    const bool is_output = l == num_layers - 1;
    Vector a = z;
    if (!is_output) {
      for (double& v : a) {
        v = mlp.config().activation == Activation::kRelu
                ? (v > 0.0 ? v : 0.0)
                : std::tanh(v);
      }
      if (masks != nullptr) {
        for (size_t i = 0; i < a.size(); ++i) a[i] *= (*masks)[l][i];
      }
    }
    if (post != nullptr) post->push_back(a);
    cur = std::move(a);
  }
  return cur;
}

inline double ReferenceMlpPredict(const Mlp& mlp, const Vector& x) {
  return ReferenceMlpForward(mlp, x, nullptr)[0];
}

/// Input gradient of the scalar output; the ReLU subgradient at 0 is 0.
inline Vector ReferenceMlpInputGradient(const Mlp& mlp, const Vector& x) {
  std::vector<Vector> pre;
  std::vector<Vector> post;
  ReferenceMlpForward(mlp, x, nullptr, &pre, &post);
  const int num_layers = static_cast<int>(mlp.layers().size());
  Vector delta(1, 1.0);
  for (int l = num_layers - 1; l >= 0; --l) {
    if (l != num_layers - 1) {
      for (size_t i = 0; i < delta.size(); ++i) {
        delta[i] *= mlp.config().activation == Activation::kRelu
                        ? (pre[l][i] > 0.0 ? 1.0 : 0.0)
                        : 1.0 - post[l][i] * post[l][i];
      }
    }
    delta = mlp.layers()[l].w.ApplyTranspose(delta);
  }
  return delta;
}

/// MC-dropout mean and sample standard deviation over `samples` passes,
/// masks drawn from `rng` in (sample, layer, unit) order.
inline void ReferenceMlpUncertainty(const Mlp& mlp, const Vector& x,
                                    int samples, Rng* rng, double* mean,
                                    double* stddev) {
  const std::vector<Mlp::Layer>& layers = mlp.layers();
  const int num_hidden = static_cast<int>(layers.size()) - 1;
  const double keep = 1.0 - mlp.config().dropout;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int s = 0; s < samples; ++s) {
    std::vector<Vector> masks(layers.size());
    for (int l = 0; l < num_hidden; ++l) {
      masks[l].assign(layers[l].b.size(), 0.0);
      for (double& m : masks[l]) m = rng->Bernoulli(keep) ? 1.0 / keep : 0.0;
    }
    const double y = ReferenceMlpForward(mlp, x, &masks)[0];
    sum += y;
    sum_sq += y * y;
  }
  *mean = sum / samples;
  const double var =
      samples > 1 ? std::max(0.0, (sum_sq - sum * sum / samples) / (samples - 1))
                  : 0.0;
  *stddev = std::sqrt(var);
}

/// MlpModel's MC-dropout seed for one query point.
inline uint64_t ReferenceSeedFromPoint(const Vector& x) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (double v : x) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h ^= bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

/// Network output z -> objective value (de-standardize, undo the log).
inline double ReferenceFromNet(const MlpModel& model, double z) {
  const double t = z * model.target_std() + model.target_mean();
  return model.config().log_transform_targets ? std::exp(t) : t;
}

inline double ReferenceMlpModelPredict(const MlpModel& model, const Vector& x) {
  return ReferenceFromNet(model, ReferenceMlpPredict(model.mlp(), x));
}

inline Vector ReferenceMlpModelGradient(const MlpModel& model,
                                        const Vector& x) {
  Vector grad = ReferenceMlpInputGradient(model.mlp(), x);
  double scale = model.target_std();
  if (model.config().log_transform_targets) {
    // d exp(t(x)) / dx = exp(t(x)) * dt/dx.
    scale *= ReferenceMlpModelPredict(model, x);
  }
  for (double& g : grad) g *= scale;
  return grad;
}

inline void ReferenceMlpModelUncertainty(const MlpModel& model,
                                         const Vector& x, double* mean,
                                         double* stddev) {
  if (model.config().dropout <= 0.0 || model.config().mc_samples < 2) {
    *mean = ReferenceMlpModelPredict(model, x);
    *stddev = 0.0;
    return;
  }
  Rng rng(ReferenceSeedFromPoint(x));
  double zm = 0.0;
  double zs = 0.0;
  ReferenceMlpUncertainty(model.mlp(), x, model.config().mc_samples, &rng,
                          &zm, &zs);
  const double t_mean = zm * model.target_std() + model.target_mean();
  const double t_std = zs * model.target_std();
  if (model.config().log_transform_targets) {
    // Delta method around the log-space mean.
    *mean = std::exp(t_mean);
    *stddev = *mean * t_std;
  } else {
    *mean = t_mean;
    *stddev = t_std;
  }
}

}  // namespace testing_reference
}  // namespace udao

#endif  // UDAO_TESTS_MODEL_REFERENCE_H_
