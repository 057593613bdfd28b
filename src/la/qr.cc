#include "la/qr.h"

#include <cmath>
#include <vector>

#include "la/svd.h"
#include "util/check.h"

namespace lightne {

namespace {

// Householder factorization over a double-precision working copy for
// numerical robustness; inputs/outputs are float.
struct Workspace {
  uint64_t n, q;
  std::vector<double> a;     // n x q, column-major for locality per column
  std::vector<double> beta;  // q reflector scales (0 = skipped)

  double& At(uint64_t i, uint64_t j) { return a[j * n + i]; }
  double At(uint64_t i, uint64_t j) const { return a[j * n + i]; }
};

Matrix FactorizeInPlace(Workspace* w) {
  const uint64_t n = w->n, q = w->q;
  Matrix r(q, q);
  w->beta.assign(q, 0.0);
  std::vector<double> work(q);
  for (uint64_t k = 0; k < q; ++k) {
    // Householder vector from column k, rows k..n-1.
    double norm2 = 0;
    for (uint64_t i = k; i < n; ++i) norm2 += w->At(i, k) * w->At(i, k);
    const double norm = std::sqrt(norm2);
    if (norm < 1e-30) {
      // Zero column: skip the reflector; R row stays zero.
      for (uint64_t j = k; j < q; ++j) {
        r.At(k, j) = static_cast<float>(w->At(k, j));
      }
      continue;
    }
    const double x0 = w->At(k, k);
    const double alpha = x0 >= 0 ? -norm : norm;
    // v = x - alpha e1, stored in place of column k.
    w->At(k, k) = x0 - alpha;
    double vtv = 0;
    for (uint64_t i = k; i < n; ++i) vtv += w->At(i, k) * w->At(i, k);
    const double beta = 2.0 / vtv;
    w->beta[k] = beta;
    // Apply (I - beta v v^T) to the trailing columns.
    for (uint64_t j = k + 1; j < q; ++j) {
      double dot = 0;
      for (uint64_t i = k; i < n; ++i) dot += w->At(i, k) * w->At(i, j);
      const double scale = beta * dot;
      for (uint64_t i = k; i < n; ++i) w->At(i, j) -= scale * w->At(i, k);
    }
    r.At(k, k) = static_cast<float>(alpha);
    for (uint64_t j = k + 1; j < q; ++j) {
      r.At(k, j) = static_cast<float>(w->At(k, j));
    }
  }
  return r;
}

// Back-accumulates the thin Q (n x q) from the stored reflectors.
void AccumulateQ(const Workspace& w, Matrix* q_out) {
  const uint64_t n = w.n, q = w.q;
  *q_out = Matrix(n, q);
  // Start from the leading columns of the identity.
  std::vector<double> qd(n * q, 0.0);  // column-major
  for (uint64_t k = 0; k < q; ++k) qd[k * n + k] = 1.0;
  for (uint64_t k = q; k-- > 0;) {
    if (w.beta[k] == 0.0) continue;
    for (uint64_t j = 0; j < q; ++j) {
      double dot = 0;
      for (uint64_t i = k; i < n; ++i) dot += w.a[k * n + i] * qd[j * n + i];
      const double scale = w.beta[k] * dot;
      for (uint64_t i = k; i < n; ++i) qd[j * n + i] -= scale * w.a[k * n + i];
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = 0; j < q; ++j) {
      q_out->At(i, j) = static_cast<float>(qd[j * n + i]);
    }
  }
}

Workspace ToWorkspace(const Matrix& a) {
  Workspace w;
  w.n = a.rows();
  w.q = a.cols();
  w.a.resize(w.n * w.q);
  for (uint64_t i = 0; i < w.n; ++i) {
    for (uint64_t j = 0; j < w.q; ++j) w.a[j * w.n + i] = a.At(i, j);
  }
  return w;
}

}  // namespace

Matrix HouseholderQr(Matrix* a) {
  LIGHTNE_CHECK_GE(a->rows(), a->cols());
  Workspace w = ToWorkspace(*a);
  Matrix r = FactorizeInPlace(&w);
  AccumulateQ(w, a);
  return r;
}

Status Orthonormalize(Matrix* a) {
  // Gram eigenvalues below this fraction of the largest are rounding noise
  // of an exactly rank-deficient panel: those columns are set to zero
  // rather than blown up by lambda^{-1/2}.
  constexpr double kRankFloor = 1e-12;
  for (int pass = 0; pass < 2; ++pass) {
    Result<GramEigen> eig = GramEigenDecompose(*a);
    if (!eig.ok()) return eig.status();
    const double floor = kRankFloor * eig->lambda[0];
    std::vector<float> scale(a->cols());
    for (uint64_t j = 0; j < scale.size(); ++j) {
      const double lambda = eig->lambda[j];
      scale[j] = lambda > floor ? static_cast<float>(1.0 / std::sqrt(lambda))
                                : 0.0f;
    }
    eig->yv.ScaleColumns(scale);
    *a = std::move(eig->yv);
  }
  return Status::Ok();
}

}  // namespace lightne
