#ifndef UDAO_MODEL_OBJECTIVE_MODEL_H_
#define UDAO_MODEL_OBJECTIVE_MODEL_H_

#include <functional>
#include <memory>
#include <string>

#include "common/matrix.h"

namespace udao {

/// A predictive model Psi_i(x) of one task objective as a function of the
/// *encoded* configuration x in [0,1]^D (ParamSpace::Encode output).
///
/// This is the contract between the model server and the MOO layer
/// (Section II-B): MOO works with any model exposing a (sub)gradient and an
/// uncertainty estimate -- hand-crafted regression functions, Gaussian
/// Processes, or DNNs.
class ObjectiveModel {
 public:
  virtual ~ObjectiveModel() = default;

  /// Batched evaluation surface -- the one implementation of every model.
  /// Each row of `x` is one encoded point, and row i of every output
  /// depends on row i of `x` alone, bitwise, whatever the batch's size or
  /// other rows (the solve coalescer's coalesced-vs-solo contract rests on
  /// this). MOGD and PF-AP issue thousands of predictions per run through
  /// these entry points: GEMM MLP forwards, batched GP kernels, vectorized
  /// closed forms.
  virtual void PredictBatch(const Matrix& x, Vector* out) const = 0;

  /// Subgradients of PredictBatch for every row of `x`. Every model used by
  /// MOGD must be subdifferentiable (Section IV-B). When `values` is
  /// non-null it also receives the predictions, letting implementations
  /// share one forward pass between value and gradient -- the MOGD hot path
  /// evaluates both at every Adam step.
  virtual void GradientBatch(const Matrix& x, Matrix* grads,
                             Vector* values = nullptr) const = 0;

  /// Batched predictive mean and standard deviation. The default reports
  /// PredictBatch with stddev 0, for models without a native uncertainty
  /// notion.
  virtual void PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                           Vector* stddev) const;

  /// Per-point calls: one-row wrappers around the batch calls above, so
  /// they return exactly row i of a batch. Models do not override them
  /// (udao_lint's scalar-model-override rule); they stay virtual only so a
  /// pass-through shell can intercept every call.
  virtual double Predict(const Vector& x) const;
  virtual void PredictWithUncertainty(const Vector& x, double* mean,
                                      double* stddev) const;
  virtual Vector InputGradient(const Vector& x) const;

  /// Input dimensionality (encoded).
  virtual int input_dim() const = 0;

  /// Short description for logs ("gp", "dnn", "analytic-latency", ...).
  virtual std::string Name() const = 0;

  /// Identity for cross-request solve fusion: two models with the same
  /// FuseIdentity are guaranteed to produce bitwise-identical predictions
  /// and gradients for identical inputs, so the solve coalescer may
  /// evaluate both callers' points through either one. The default -- the
  /// instance itself -- is always safe (it merely forgoes fusion).
  /// Stateless pass-through wrappers forward to the wrapped model, which is
  /// what lets per-request NonNegativeModel shells around one shared
  /// server-side model coalesce. A retrained model is a new instance, so
  /// generation changes split fuse groups automatically.
  virtual const void* FuseIdentity() const { return this; }
};

/// A model defined by callables; the adapter used in tests and for the
/// hand-crafted regression models. It holds one batch value callable and an
/// optional batch gradient callable. Without a gradient callable,
/// GradientBatch takes central finite differences (h = 1e-5) through one
/// PredictBatch over every point's 2 * dim probe rows.
class CallableModel : public ObjectiveModel {
 public:
  using Fn = std::function<double(const Vector&)>;
  using GradFn = std::function<Vector(const Vector&)>;
  /// Fills (*out)[i] for every row i of x; `out` arrives sized x.rows().
  using BatchFn = std::function<void(const Matrix&, Vector*)>;
  /// Fills row i of *grads (zeroed, x.rows() x dim) and, when `values` is
  /// non-null (sized x.rows()), (*values)[i].
  using BatchGradFn = std::function<void(const Matrix&, Matrix*, Vector*)>;

  /// Builds from vectorized closed forms.
  CallableModel(std::string name, int dim, BatchFn fn,
                BatchGradFn grad = nullptr)
      : name_(std::move(name)), dim_(dim), fn_(std::move(fn)),
        grad_(std::move(grad)) {}

  /// Per-point adapter: wraps `fn` (and `grad`, when given) in a loop over
  /// the batch's rows.
  CallableModel(std::string name, int dim, Fn fn, GradFn grad = nullptr);

  void PredictBatch(const Matrix& x, Vector* out) const override;
  void GradientBatch(const Matrix& x, Matrix* grads,
                     Vector* values = nullptr) const override;
  int input_dim() const override { return dim_; }
  std::string Name() const override { return name_; }

 private:
  std::string name_;
  int dim_;
  BatchFn fn_;
  BatchGradFn grad_;
};

/// Wraps a learned model of a physically non-negative quantity (latency,
/// throughput, monetary cost): predictions are floored at zero so the
/// optimizer cannot chase fictitious negative extrapolations, and spurious
/// orderings among such garbage predictions collapse (all floored points tie
/// and get resolved by the other objectives). The gradient passes through
/// unfloored as a pseudo-gradient, which keeps constraint terms able to push
/// the solution back into the trained region.
class NonNegativeModel : public ObjectiveModel {
 public:
  explicit NonNegativeModel(std::shared_ptr<const ObjectiveModel> base)
      : base_(std::move(base)) {}

  void PredictBatch(const Matrix& x, Vector* out) const override;
  void GradientBatch(const Matrix& x, Matrix* grads,
                     Vector* values = nullptr) const override;
  void PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                   Vector* stddev) const override;
  int input_dim() const override { return base_->input_dim(); }
  std::string Name() const override { return base_->Name() + "+floor"; }
  /// The floor is stateless and deterministic, so two shells around one
  /// model are interchangeable for fusion purposes.
  const void* FuseIdentity() const override { return base_->FuseIdentity(); }

 private:
  std::shared_ptr<const ObjectiveModel> base_;
};

}  // namespace udao

#endif  // UDAO_MODEL_OBJECTIVE_MODEL_H_
