#ifndef UDAO_NN_MLP_H_
#define UDAO_NN_MLP_H_

#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "nn/kernels.h"

namespace udao {

/// Activation function for hidden layers. The paper's largest model uses ReLU
/// (4 hidden layers of 128 units); Tanh is provided for smoother surfaces in
/// small tests.
enum class Activation { kRelu, kTanh };

/// Architecture and regularization settings for an Mlp.
struct MlpConfig {
  /// Layer widths including input and output, e.g. {12, 128, 128, 128, 128, 1}
  /// for the paper's largest latency model.
  std::vector<int> layer_sizes;
  Activation activation = Activation::kRelu;
  /// L2 weight-decay coefficient applied during training (the paper notes the
  /// DNN "is regularized by the L2 loss").
  double l2 = 1e-4;
  /// Dropout probability used for MC-dropout uncertainty estimates
  /// (Gal & Ghahramani-style Bayesian approximation, paper ref [9]).
  double dropout = 0.1;
};

/// A feed-forward multi-layer perceptron with manual forward/backward passes.
///
/// The backward pass produces gradients with respect to the *weights* (used by
/// the trainer in train.h) and with respect to the *input* (used by the MOGD
/// solver, which descends on the configuration x while weights stay frozen).
/// Uncertainty estimates come from Monte-Carlo dropout. Inference (the
/// *Batch calls) runs on one batched forward over arena buffers; training
/// and LayerActivations run on a per-point forward that caches
/// pre-activations for the weight backward pass.
class Mlp {
 public:
  /// One dense layer: out = act(w * in + b); w has shape [fan_out, fan_in].
  struct Layer {
    Matrix w;
    Vector b;
  };

  /// Gradient of the training loss with respect to one layer's parameters.
  struct LayerGrad {
    Matrix dw;
    Vector db;
  };

  Mlp(MlpConfig config, Rng* rng);

  /// Deterministic forward pass (no dropout) of one input, through the
  /// training forward. `x` must match the input width; returns the output
  /// vector (usually 1-dimensional for regression).
  Vector Forward(const Vector& x) const;

  /// Batched scalar prediction for 1-output networks: rows of `x` are
  /// inputs. One fused layer kernel per layer (dispatched GEMM + bias +
  /// ReLU, see nn/kernels.h) over the whole batch -- the kernel behind
  /// ObjectiveModel::PredictBatch. Activation temporaries live on the
  /// thread-local KernelArena, so steady-state calls perform no heap
  /// allocation.
  void PredictBatch(const Matrix& x, Vector* out) const;

  /// Batched input gradients of the scalar output: row i of `*grad` is the
  /// gradient at row i of `x` (grad is Resize()d in place, so a caller-held
  /// matrix is reused across solver iterations without reallocating). ReLU
  /// is subdifferentiable; the subgradient at the kink is 0, which is
  /// exactly what the paper's MOGD solver requires. When `values` is
  /// non-null it receives the predictions from the same forward pass, so the
  /// MOGD hot path pays for one forward per Adam iteration instead of two.
  void InputGradientBatch(const Matrix& x, Matrix* grad,
                          Vector* values = nullptr) const;

  /// MC-dropout estimate: for every row, runs `samples` stochastic forward
  /// passes and reports mean and standard deviation of the scalar output.
  /// Row r's masks are drawn from (*rngs)[r] in (sample, layer, unit) order,
  /// so a row's result does not depend on the other rows; each stochastic
  /// pass runs as one fused layer kernel per layer over all rows. `rngs`
  /// must hold one generator per row.
  void PredictWithUncertaintyBatch(const Matrix& x, int samples,
                                   std::vector<Rng>* rngs, Vector* mean,
                                   Vector* stddev) const;

  /// Mini-batch forward+backward: accumulates into `grads` (pre-sized via
  /// ZeroGrads) the gradient of the mean-squared-error over the batch (plus L2
  /// on the weights), and returns that loss. Rows of `x` are inputs, `y` holds
  /// scalar targets.
  double ForwardBackward(const Matrix& x, const Vector& y,
                         std::vector<LayerGrad>* grads) const;

  /// Multi-output variant: rows of `y` are target vectors matching the
  /// network's output width (used to train autoencoders).
  double ForwardBackwardMulti(const Matrix& x, const Matrix& y,
                              std::vector<LayerGrad>* grads) const;

  /// Post-activation output of hidden layer `layer` (0-based); used to read
  /// an autoencoder's bottleneck encoding.
  Vector LayerActivations(const Vector& x, int layer) const;

  /// Allocates a zeroed gradient structure matching this network's layers.
  std::vector<LayerGrad> ZeroGrads() const;

  /// Flattens all parameters into a single vector (checkpointing).
  Vector Snapshot() const;
  /// Restores parameters from a Snapshot of the same architecture.
  void Restore(const Vector& snapshot);

  std::vector<Layer>& layers() { return layers_; }
  const std::vector<Layer>& layers() const { return layers_; }
  const MlpConfig& config() const { return config_; }
  int input_dim() const { return config_.layer_sizes.front(); }
  int output_dim() const { return config_.layer_sizes.back(); }

 private:
  double Act(double v) const;
  double ActGrad(double pre, double post) const;
  // Per-point training forward; `pre`/`post`, when non-null, receive every
  // layer's pre- and post-activation values.
  Vector ForwardCached(const Vector& x, std::vector<Vector>* pre,
                       std::vector<Vector>* post) const;
  // The inference forward: all rows of `x` over arena-owned buffers.
  // Returns the final layer's output buffer [x.rows() x output_dim]; when
  // `post` is non-null it receives each layer's post-activation buffer (the
  // backward pass needs only post-activations: relu's gradient is post > 0,
  // tanh's 1 - post^2). When `masks` is non-null, hidden layer l's
  // activations are multiplied by (*masks)[l] ([x.rows() x fan_out]), as
  // dropout does. Buffers live until the caller's KernelArena::Scope
  // unwinds.
  const double* ForwardArena(const Matrix& x, kernels::KernelArena* arena,
                             std::vector<const double*>* post,
                             const std::vector<double*>* masks = nullptr) const;

  MlpConfig config_;
  std::vector<Layer> layers_;
};

}  // namespace udao

#endif  // UDAO_NN_MLP_H_
