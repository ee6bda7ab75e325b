// Seeded scalar-model-override violations (lines 8 and 9): models implement
// the batch calls only. Not compiled -- fixtures are only scanned by
// udao_lint.

class Model : public ObjectiveModel {
 public:
  void PredictBatch(const Matrix& x, Vector* out) const override;
  double Predict(const Vector& x) const override;
  void PredictWithUncertainty(const Vector& x, double* mean,
                              double* stddev) const override;
  Vector InputGradient(const Vector& x) const;
};
