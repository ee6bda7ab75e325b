#include "model/objective_model.h"

#include <algorithm>

#include "common/check.h"

namespace udao {

double ObjectiveModel::Predict(const Vector& x) const {
  Vector out;
  PredictBatch(Matrix::FromRows({x}), &out);
  return out[0];
}

void ObjectiveModel::PredictWithUncertainty(const Vector& x, double* mean,
                                            double* stddev) const {
  Vector m;
  Vector s;
  PredictWithUncertaintyBatch(Matrix::FromRows({x}), &m, &s);
  *mean = m[0];
  *stddev = s[0];
}

Vector ObjectiveModel::InputGradient(const Vector& x) const {
  Matrix grads;
  GradientBatch(Matrix::FromRows({x}), &grads);
  return grads.Row(0);
}

void ObjectiveModel::PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                                 Vector* stddev) const {
  PredictBatch(x, mean);
  stddev->assign(x.rows(), 0.0);
}

CallableModel::CallableModel(std::string name, int dim, Fn fn, GradFn grad)
    : name_(std::move(name)), dim_(dim) {
  // The row loops copy each row into one reused point: finite differences
  // run 2 * dim + 1 rows per point, so a fresh Vector per row would be the
  // dominant cost of cheap closures.
  if (grad != nullptr) {
    grad_ = [fn, grad = std::move(grad)](const Matrix& x, Matrix* grads,
                                         Vector* values) {
      Vector point(x.cols());
      for (int i = 0; i < x.rows(); ++i) {
        std::copy(x.RowPtr(i), x.RowPtr(i) + x.cols(), point.begin());
        const Vector g = grad(point);
        UDAO_CHECK_EQ(static_cast<int>(g.size()), grads->cols());
        std::copy(g.begin(), g.end(), grads->RowPtr(i));
        if (values != nullptr) (*values)[i] = fn(point);
      }
    };
  }
  fn_ = [fn = std::move(fn)](const Matrix& x, Vector* out) {
    Vector point(x.cols());
    for (int i = 0; i < x.rows(); ++i) {
      std::copy(x.RowPtr(i), x.RowPtr(i) + x.cols(), point.begin());
      (*out)[i] = fn(point);
    }
  };
}

void CallableModel::PredictBatch(const Matrix& x, Vector* out) const {
  UDAO_CHECK_EQ(x.cols(), dim_);
  out->resize(x.rows());
  fn_(x, out);
}

void CallableModel::GradientBatch(const Matrix& x, Matrix* grads,
                                  Vector* values) const {
  UDAO_CHECK_EQ(x.cols(), dim_);
  // The callback contract hands user code a zeroed gradient matrix, so the
  // Resize is followed by an explicit fill.
  grads->Resize(x.rows(), dim_);
  std::fill(grads->data().begin(), grads->data().end(), 0.0);
  if (values != nullptr) values->resize(x.rows());
  if (grad_ != nullptr) {
    grad_(x, grads, values);
    return;
  }
  // Central differences: probe rows 2k and 2k + 1 are point i shifted by +h
  // and -h along dimension d, k = i * dim + d.
  constexpr double kH = 1e-5;
  Matrix probes(2 * x.rows() * dim_, dim_);
  for (int i = 0; i < x.rows(); ++i) {
    const double* point = x.RowPtr(i);
    for (int d = 0; d < dim_; ++d) {
      const int k = i * dim_ + d;
      double* plus = probes.RowPtr(2 * k);
      double* minus = probes.RowPtr(2 * k + 1);
      std::copy(point, point + dim_, plus);
      std::copy(point, point + dim_, minus);
      plus[d] = point[d] + kH;
      minus[d] = point[d] - kH;
    }
  }
  Vector f;
  PredictBatch(probes, &f);
  for (int k = 0; k < x.rows() * dim_; ++k) {
    grads->data()[k] = (f[2 * k] - f[2 * k + 1]) / (2.0 * kH);
  }
  if (values != nullptr) PredictBatch(x, values);
}

void NonNegativeModel::PredictBatch(const Matrix& x, Vector* out) const {
  base_->PredictBatch(x, out);
  for (double& v : *out) v = std::max(0.0, v);
}

void NonNegativeModel::GradientBatch(const Matrix& x, Matrix* grads,
                                     Vector* values) const {
  // Gradients pass through unfloored (pseudo-gradient); values get the floor.
  base_->GradientBatch(x, grads, values);
  if (values != nullptr) {
    for (double& v : *values) v = std::max(0.0, v);
  }
}

void NonNegativeModel::PredictWithUncertaintyBatch(const Matrix& x,
                                                   Vector* mean,
                                                   Vector* stddev) const {
  base_->PredictWithUncertaintyBatch(x, mean, stddev);
  for (double& v : *mean) v = std::max(0.0, v);
}

}  // namespace udao
