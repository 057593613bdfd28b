#include "la/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/fault_injection.h"

namespace lightne {

Result<SvdResult> JacobiSvd(const Matrix& a) {
  const uint64_t l = a.rows();
  const uint64_t q = a.cols();
  if (q == 0 || l < q) {
    return Status::InvalidArgument(
        "JacobiSvd needs an l x q matrix with l >= q >= 1 (got " +
        std::to_string(l) + " x " + std::to_string(q) + ")");
  }
  for (uint64_t k = 0; k < l * q; ++k) {
    if (!std::isfinite(a.data()[k])) {
      return Status::InvalidArgument("JacobiSvd input has non-finite entries");
    }
  }

  // Column-major double working copies: G starts as A, V as identity.
  std::vector<double> g(l * q), v(q * q, 0.0);
  for (uint64_t i = 0; i < l; ++i) {
    for (uint64_t j = 0; j < q; ++j) g[j * l + i] = a.At(i, j);
  }
  for (uint64_t j = 0; j < q; ++j) v[j * q + j] = 1.0;

  const double kTol = 1e-14;
  const int kMaxSweeps = 60;
  bool converged = false;
  for (int sweep = 0; sweep < kMaxSweeps && !converged; ++sweep) {
    bool rotated = false;
    for (uint64_t p = 0; p + 1 < q; ++p) {
      for (uint64_t r = p + 1; r < q; ++r) {
        double* gp = g.data() + p * l;
        double* gr = g.data() + r * l;
        double alpha = 0, beta = 0, gamma = 0;
        for (uint64_t i = 0; i < l; ++i) {
          alpha += gp[i] * gp[i];
          beta += gr[i] * gr[i];
          gamma += gp[i] * gr[i];
        }
        if (std::fabs(gamma) <= kTol * std::sqrt(alpha * beta) ||
            gamma == 0.0) {
          continue;
        }
        rotated = true;
        const double zeta = (beta - alpha) / (2.0 * gamma);
        const double t =
            (zeta >= 0 ? 1.0 : -1.0) /
            (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (uint64_t i = 0; i < l; ++i) {
          const double gpi = gp[i];
          gp[i] = c * gpi - s * gr[i];
          gr[i] = s * gpi + c * gr[i];
        }
        double* vp = v.data() + p * q;
        double* vr = v.data() + r * q;
        for (uint64_t i = 0; i < q; ++i) {
          const double vpi = vp[i];
          vp[i] = c * vpi - s * vr[i];
          vr[i] = s * vpi + c * vr[i];
        }
      }
    }
    if (!rotated) converged = true;
  }
  if (!converged) {
    // The sweep budget ran out while rotations were still firing. Tiny
    // rotations near machine precision (clustered singular values) are
    // benign; only a materially large remaining off-diagonal means the
    // factorization failed. Measure the residual explicitly.
    // Normalize against the dominant column norm (~ sigma_max^2): pairs of
    // numerically-zero columns have cos-angles of pure noise and must not
    // count, while any off-diagonal mass that matters for the result is
    // visible at this scale.
    double max_norm2 = 0.0;
    std::vector<double> norm2(q, 0.0);
    for (uint64_t j = 0; j < q; ++j) {
      const double* gj = g.data() + j * l;
      for (uint64_t i = 0; i < l; ++i) norm2[j] += gj[i] * gj[i];
      max_norm2 = std::max(max_norm2, norm2[j]);
    }
    double residual = 0.0;
    for (uint64_t p = 0; p + 1 < q; ++p) {
      for (uint64_t r = p + 1; r < q; ++r) {
        const double* gp = g.data() + p * l;
        const double* gr = g.data() + r * l;
        double gamma = 0;
        for (uint64_t i = 0; i < l; ++i) gamma += gp[i] * gr[i];
        residual = std::max(residual, std::fabs(gamma));
      }
    }
    converged = max_norm2 == 0.0 || residual <= 1e-7 * max_norm2;
  }
  // Fault point: pretend the sweep budget ran out so callers exercise their
  // non-convergence propagation path.
  if (LIGHTNE_FAULT_POINT("svd/converge")) converged = false;
  if (!converged) {
    return Status::Internal(
        "Jacobi SVD did not converge within " + std::to_string(kMaxSweeps) +
        " sweeps (" + std::to_string(l) + " x " + std::to_string(q) + ")");
  }

  // Singular values = column norms; sort descending.
  std::vector<double> sigma(q);
  for (uint64_t j = 0; j < q; ++j) {
    double norm2 = 0;
    for (uint64_t i = 0; i < l; ++i) norm2 += g[j * l + i] * g[j * l + i];
    sigma[j] = std::sqrt(norm2);
  }
  std::vector<uint64_t> order(q);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](uint64_t x, uint64_t y) { return sigma[x] > sigma[y]; });

  SvdResult out;
  out.u = Matrix(l, q);
  out.v = Matrix(q, q);
  out.sigma.resize(q);
  for (uint64_t jj = 0; jj < q; ++jj) {
    const uint64_t j = order[jj];
    out.sigma[jj] = static_cast<float>(sigma[j]);
    const double inv = sigma[j] > 1e-300 ? 1.0 / sigma[j] : 0.0;
    for (uint64_t i = 0; i < l; ++i) {
      out.u.At(i, jj) = static_cast<float>(g[j * l + i] * inv);
    }
    for (uint64_t i = 0; i < q; ++i) {
      out.v.At(i, jj) = static_cast<float>(v[j * q + i]);
    }
  }
  return out;
}

Result<GramEigen> GramEigenDecompose(const Matrix& y) {
  Result<SvdResult> eig = JacobiSvd(GemmTN(y, y));
  if (!eig.ok()) return eig.status();
  GramEigen out;
  out.yv = Gemm(y, eig->v);
  out.lambda = std::move(eig->sigma);
  return out;
}

}  // namespace lightne
