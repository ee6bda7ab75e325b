#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace udao {

Mlp::Mlp(MlpConfig config, Rng* rng) : config_(std::move(config)) {
  UDAO_CHECK_GE(config_.layer_sizes.size(), 2u);
  const int num_layers = static_cast<int>(config_.layer_sizes.size()) - 1;
  layers_.reserve(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    const int fan_in = config_.layer_sizes[l];
    const int fan_out = config_.layer_sizes[l + 1];
    UDAO_CHECK_GT(fan_in, 0);
    UDAO_CHECK_GT(fan_out, 0);
    Layer layer{Matrix(fan_out, fan_in), Vector(fan_out, 0.0)};
    // He initialization suits ReLU; it also works acceptably for tanh.
    const double scale = std::sqrt(2.0 / fan_in);
    for (int r = 0; r < fan_out; ++r) {
      for (int c = 0; c < fan_in; ++c) layer.w(r, c) = rng->Gaussian(0, scale);
    }
    layers_.push_back(std::move(layer));
  }
}

double Mlp::Act(double v) const {
  switch (config_.activation) {
    case Activation::kRelu:
      return v > 0.0 ? v : 0.0;
    case Activation::kTanh:
      return std::tanh(v);
  }
  return v;
}

double Mlp::ActGrad(double pre, double post) const {
  switch (config_.activation) {
    case Activation::kRelu:
      // Subgradient 0 at the kink (pre == 0), per the paper's
      // subdifferentiability discussion.
      return pre > 0.0 ? 1.0 : 0.0;
    case Activation::kTanh:
      return 1.0 - post * post;
  }
  return 1.0;
}

Vector Mlp::ForwardCached(const Vector& x, std::vector<Vector>* pre,
                          std::vector<Vector>* post) const {
  UDAO_CHECK_EQ(static_cast<int>(x.size()), input_dim());
  Vector cur = x;
  const int num_layers = static_cast<int>(layers_.size());
  for (int l = 0; l < num_layers; ++l) {
    Vector z = layers_[l].w.Apply(cur);
    for (size_t i = 0; i < z.size(); ++i) z[i] += layers_[l].b[i];
    if (pre != nullptr) pre->push_back(z);
    const bool is_output = (l == num_layers - 1);
    Vector a(z.size());
    for (size_t i = 0; i < z.size(); ++i) a[i] = is_output ? z[i] : Act(z[i]);
    if (post != nullptr) post->push_back(a);
    cur = std::move(a);
  }
  return cur;
}

const double* Mlp::ForwardArena(const Matrix& x, kernels::KernelArena* arena,
                                std::vector<const double*>* post,
                                const std::vector<double*>* masks) const {
  UDAO_CHECK_EQ(x.cols(), input_dim());
  const int rows = x.rows();
  const double* cur = x.data().data();
  const int num_layers = static_cast<int>(layers_.size());
  // One table load for the whole pass: every layer of a forward runs on the
  // same backend even if a concurrent test flips the dispatch mid-call.
  const kernels::KernelTable* t = kernels::ActiveTable();
  for (int l = 0; l < num_layers; ++l) {
    // out = fuse(cur * W^T + bias): one fused layer kernel for the whole
    // batch. Per output element the kernel performs dot, then + bias, then
    // the activation -- the operation sequence of Matrix::Apply plus bias
    // plus activation -- so a row's result does not depend on the batch it
    // came in. The kernel picks the fully-unrolled 128-wide dot whenever
    // fan_in == 128 (the paper's 4x128 topology).
    const Layer& layer = layers_[l];
    const int fan_in = layer.w.cols();
    const int fan_out = layer.w.rows();
    double* out =
        arena->Alloc(static_cast<size_t>(rows) * fan_out);
    const bool is_output = (l == num_layers - 1);
    const bool fuse_relu =
        !is_output && config_.activation == Activation::kRelu;
    t->layer_forward(cur, rows, fan_in, layer.w.data().data(),
                     layer.b.data(), fan_out,
                     fuse_relu ? kernels::Fused::kBiasRelu
                               : kernels::Fused::kBias,
                     out);
    if (!is_output && config_.activation == Activation::kTanh) {
      // tanh stays a scalar per-element call in every backend, matching
      // Act() exactly (libm's tanh is the dominant cost either way).
      const size_t count = static_cast<size_t>(rows) * fan_out;
      for (size_t i = 0; i < count; ++i) out[i] = std::tanh(out[i]);
    }
    if (!is_output && masks != nullptr) {
      // Dropout applies after the activation.
      const double* m = (*masks)[l];
      const size_t count = static_cast<size_t>(rows) * fan_out;
      for (size_t i = 0; i < count; ++i) out[i] *= m[i];
    }
    if (post != nullptr) post->push_back(out);
    cur = out;
  }
  return cur;
}

void Mlp::PredictBatch(const Matrix& x, Vector* out) const {
  UDAO_CHECK_EQ(output_dim(), 1);
  kernels::KernelArena& arena = kernels::KernelArena::ThreadLocal();
  kernels::KernelArena::Scope scope(&arena);
  const double* y = ForwardArena(x, &arena, nullptr);
  out->resize(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    (*out)[i] = y[i];
    UDAO_DCHECK_FINITE((*out)[i]);
  }
}

void Mlp::InputGradientBatch(const Matrix& x, Matrix* grad,
                             Vector* values) const {
  UDAO_CHECK_EQ(output_dim(), 1);
  const int rows = x.rows();
  kernels::KernelArena& arena = kernels::KernelArena::ThreadLocal();
  kernels::KernelArena::Scope scope(&arena);
  std::vector<const double*> post;
  ForwardArena(x, &arena, &post);
  const double* out = post.back();
  if (values != nullptr) {
    values->resize(rows);
    for (int i = 0; i < rows; ++i) {
      (*values)[i] = out[i];
      UDAO_DCHECK_FINITE((*values)[i]);
    }
  }
  const int num_layers = static_cast<int>(layers_.size());
  // Widest delta the backward pass produces (layer_sizes minus the input,
  // whose deltas land directly in *grad).
  size_t max_width = 1;
  for (int l = 1; l < static_cast<int>(config_.layer_sizes.size()); ++l) {
    max_width = std::max(max_width,
                         static_cast<size_t>(config_.layer_sizes[l]));
  }
  // Seed every row with d(out)/d(out) = 1 and back-propagate all points at
  // once; gemm_nn's axpy accumulation replicates a per-point
  // Matrix::ApplyTranspose exactly (same order, same zero skips), so a row's
  // gradient does not depend on its batch. Two arena buffers
  // ping-pong the deltas; the final product is written straight into *grad.
  double* delta = arena.Alloc(static_cast<size_t>(rows) * max_width);
  double* scratch = arena.Alloc(static_cast<size_t>(rows) * max_width);
  std::fill(delta, delta + rows, 1.0);
  int width = 1;
  grad->Resize(rows, input_dim());
  for (int l = num_layers - 1; l >= 0; --l) {
    if (l != num_layers - 1) {
      // Elementwise activation-gradient scaling stays plain (non-kernel)
      // code: it must not be FMA-contracted, or the batched path would drift
      // from a per-point delta * ActGrad within one backend.
      const double* p = post[l];
      const size_t count = static_cast<size_t>(rows) * width;
      if (config_.activation == Activation::kRelu) {
        // post > 0 iff pre > 0 for relu, so ActGrad needs no pre-activation.
        for (size_t i = 0; i < count; ++i) delta[i] *= p[i] > 0.0 ? 1.0 : 0.0;
      } else {
        for (size_t i = 0; i < count; ++i) delta[i] *= 1.0 - p[i] * p[i];
      }
    }
    const Layer& layer = layers_[l];
    double* out_buf = l == 0 ? grad->RowPtr(0) : scratch;
    kernels::GemmNn(delta, rows, width, layer.w.data().data(), layer.w.cols(),
                    out_buf);
    width = layer.w.cols();
    std::swap(delta, scratch);
  }
  // A non-finite entry here means the forward pass overflowed; fail loudly
  // before the solver averages NaN gradients into Adam's moments.
  for (const double g : grad->data()) UDAO_DCHECK_FINITE(g);
}

Vector Mlp::Forward(const Vector& x) const {
  return ForwardCached(x, nullptr, nullptr);
}

void Mlp::PredictWithUncertaintyBatch(const Matrix& x, int samples,
                                      std::vector<Rng>* rngs, Vector* mean,
                                      Vector* stddev) const {
  UDAO_CHECK_EQ(output_dim(), 1);
  UDAO_CHECK_GT(samples, 0);
  UDAO_CHECK_EQ(rngs->size(), static_cast<size_t>(x.rows()));
  const int rows = x.rows();
  const int num_layers = static_cast<int>(layers_.size());
  const int num_hidden = num_layers - 1;
  const double keep = 1.0 - config_.dropout;
  Vector sum(rows, 0.0);
  Vector sum_sq(rows, 0.0);
  kernels::KernelArena& arena = kernels::KernelArena::ThreadLocal();
  kernels::KernelArena::Scope outer(&arena);
  // Per-layer mask buffers ([rows x fan_out] each), refilled every sample.
  std::vector<double*> masks(num_hidden);
  for (int l = 0; l < num_hidden; ++l) {
    masks[l] = arena.Alloc(static_cast<size_t>(rows) * layers_[l].b.size());
  }
  for (int s = 0; s < samples; ++s) {
    // Row r's generator emits this sample's masks layer by layer, unit by
    // unit, so each row consumes its own stream whatever the batch.
    for (int r = 0; r < rows; ++r) {
      Rng& rng = (*rngs)[r];
      for (int l = 0; l < num_hidden; ++l) {
        const size_t width = layers_[l].b.size();
        double* m = masks[l] + static_cast<size_t>(r) * width;
        for (size_t i = 0; i < width; ++i) {
          // Inverted dropout keeps the expected activation unchanged.
          m[i] = rng.Bernoulli(keep) ? 1.0 / keep : 0.0;
        }
      }
    }
    kernels::KernelArena::Scope pass(&arena);
    const double* cur = ForwardArena(x, &arena, nullptr, &masks);
    for (int r = 0; r < rows; ++r) {
      const double y = cur[r];
      sum[r] += y;
      sum_sq[r] += y * y;
    }
  }
  mean->resize(rows);
  stddev->resize(rows);
  for (int r = 0; r < rows; ++r) {
    (*mean)[r] = sum[r] / samples;
    const double var =
        samples > 1
            ? std::max(0.0, (sum_sq[r] - sum[r] * sum[r] / samples) /
                                (samples - 1))
            : 0.0;
    (*stddev)[r] = std::sqrt(var);
    UDAO_DCHECK_FINITE((*mean)[r]);
    UDAO_DCHECK_FINITE((*stddev)[r]);
  }
}

std::vector<Mlp::LayerGrad> Mlp::ZeroGrads() const {
  std::vector<LayerGrad> grads;
  grads.reserve(layers_.size());
  for (const Layer& layer : layers_) {
    grads.push_back(LayerGrad{Matrix(layer.w.rows(), layer.w.cols()),
                              Vector(layer.b.size(), 0.0)});
  }
  return grads;
}

double Mlp::ForwardBackward(const Matrix& x, const Vector& y,
                            std::vector<Mlp::LayerGrad>* grads) const {
  UDAO_CHECK_EQ(output_dim(), 1);
  Matrix ym(static_cast<int>(y.size()), 1);
  for (size_t i = 0; i < y.size(); ++i) ym(static_cast<int>(i), 0) = y[i];
  return ForwardBackwardMulti(x, ym, grads);
}

Vector Mlp::LayerActivations(const Vector& x, int layer) const {
  UDAO_CHECK(layer >= 0 && layer < static_cast<int>(layers_.size()));
  std::vector<Vector> pre;
  std::vector<Vector> post;
  ForwardCached(x, &pre, &post);
  return post[layer];
}

double Mlp::ForwardBackwardMulti(const Matrix& x, const Matrix& y,
                                 std::vector<Mlp::LayerGrad>* grads) const {
  UDAO_CHECK_EQ(y.cols(), output_dim());
  UDAO_CHECK_EQ(x.rows(), y.rows());
  UDAO_CHECK_EQ(x.cols(), input_dim());
  UDAO_CHECK_EQ(grads->size(), layers_.size());
  const int batch = x.rows();
  UDAO_CHECK_GT(batch, 0);
  const int num_layers = static_cast<int>(layers_.size());
  double loss = 0.0;
  for (int n = 0; n < batch; ++n) {
    std::vector<Vector> pre;
    std::vector<Vector> post;
    const Vector input = x.Row(n);
    const Vector out = ForwardCached(input, &pre, &post);
    Vector delta(out.size());
    for (size_t o = 0; o < out.size(); ++o) {
      const double err = out[o] - y(n, static_cast<int>(o));
      loss += err * err / static_cast<double>(out.size());
      // d(per-sample MSE)/d(out); the 2/batch factor folds the batch mean.
      delta[o] = 2.0 * err / (batch * static_cast<double>(out.size()));
    }
    for (int l = num_layers - 1; l >= 0; --l) {
      if (l != num_layers - 1) {
        for (size_t i = 0; i < delta.size(); ++i) {
          delta[i] *= ActGrad(pre[l][i], post[l][i]);
        }
      }
      const Vector& in = (l == 0) ? input : post[l - 1];
      LayerGrad& g = (*grads)[l];
      for (int r = 0; r < g.dw.rows(); ++r) {
        const double d = delta[r];
        if (d == 0.0) continue;
        kernels::Axpy(g.dw.RowPtr(r), in.data(), d, g.dw.cols());
        g.db[r] += d;
      }
      delta = layers_[l].w.ApplyTranspose(delta);
    }
  }
  loss /= batch;
  // L2 regularization on weights (not biases).
  if (config_.l2 > 0.0) {
    for (int l = 0; l < num_layers; ++l) {
      const Matrix& w = layers_[l].w;
      Matrix& dw = (*grads)[l].dw;
      for (size_t i = 0; i < w.data().size(); ++i) {
        loss += config_.l2 * w.data()[i] * w.data()[i];
        dw.data()[i] += 2.0 * config_.l2 * w.data()[i];
      }
    }
  }
  return loss;
}

Vector Mlp::Snapshot() const {
  Vector snap;
  for (const Layer& layer : layers_) {
    snap.insert(snap.end(), layer.w.data().begin(), layer.w.data().end());
    snap.insert(snap.end(), layer.b.begin(), layer.b.end());
  }
  return snap;
}

void Mlp::Restore(const Vector& snapshot) {
  size_t pos = 0;
  for (Layer& layer : layers_) {
    for (double& v : layer.w.data()) v = snapshot[pos++];
    for (double& v : layer.b) v = snapshot[pos++];
  }
  UDAO_CHECK_EQ(pos, snapshot.size());
}

}  // namespace udao
