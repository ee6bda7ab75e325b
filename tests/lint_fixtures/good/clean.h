#ifndef UDAO_CLEAN_H_
#define UDAO_CLEAN_H_

// Clean fixture: exercises the patterns the udao_lint rules allow --
// correct include guard, annotated sync wrappers with a guarded member, a
// tagged pure-serialization mutex, and a model overriding only batch calls.
// Zero findings expected.

class Coordinator {
 public:
  void Touch();

 private:
  mutable udao::Mutex mu_;
  int value_ UDAO_GUARDED_BY(mu_) = 0;
  // Serializes Touch() calls without guarding data of its own.
  udao::Mutex phase_mu_;  // lint: standalone-mutex
};

class Model : public ObjectiveModel {
 public:
  void PredictBatch(const Matrix& x, Vector* out) const override;
  void PredictWithUncertaintyBatch(const Matrix& x, Vector* mean,
                                   Vector* stddev) const override;
  // Predict(const Vector& x) const override is a one-row wrapper.
};

#endif  // UDAO_CLEAN_H_
