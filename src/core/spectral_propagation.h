// Step 2 of LightNE (§3.2): ProNE-style spectral propagation. The initial
// embedding X is filtered through a degree-k Chebyshev expansion of a
// Gaussian band-pass modulator g(lambda) on the normalized graph Laplacian,
// weighted by modified Bessel coefficients, matching the ProNE reference
// implementation (Zhang et al., IJCAI'19) step for step:
//
//   A' = A + I,  DA = rownorm(A'),  L = I - DA,  Mop = L - mu I
//   T_0 = X, T_1 = 0.5 Mop (Mop X) - X,
//   T_i = (Mop (Mop T_{i-1}) - 2 T_{i-1}) - T_{i-2}
//   conv = I_0(theta) T_0 + sum_{i>=1} (-1)^i 2 I_i(theta) T_i
//   result = smoothing( A' (X - conv) )
//
// Mop and A' are applied as operators directly over the graph (an SPMM per
// application — MKL Sparse BLAS in the paper, §4.3) so no extra sparse
// matrix is materialized.
#ifndef LIGHTNE_CORE_SPECTRAL_PROPAGATION_H_
#define LIGHTNE_CORE_SPECTRAL_PROPAGATION_H_

#include "graph/graph_view.h"
#include "graph/weights.h"
#include "la/matrix.h"
#include "la/special.h"
#include "parallel/parallel_for.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace lightne {

struct SpectralPropagationOptions {
  uint32_t order = 10;   // k: Chebyshev expansion terms (paper sets ~10)
  double mu = 0.2;       // band-pass center shift
  double theta = 0.5;    // Gaussian kernel scale
  bool svd_smoothing = true;
};

namespace internal {

/// Row u of (A + I) X into yu: the self loop, then the weighted neighbours
/// in adjacency order. The one row loop behind both operators below.
template <GraphView G>
void APlusIRow(const G& g, NodeId u, const Matrix& x, float* yu) {
  const uint64_t d = x.cols();
  const float* xu = x.Row(u);
  for (uint64_t j = 0; j < d; ++j) yu[j] = xu[j];
  MapNeighborsWeighted(g, u, [&](NodeId v, float w) {
    const float* xv = x.Row(v);
    for (uint64_t j = 0; j < d; ++j) yu[j] += w * xv[j];
  });
}

/// Y = Mop X where Mop = (1 - mu) I - rownorm(A + I). Weighted graphs use
/// weighted rows (self loop weight 1, the ProNE renormalization trick).
template <GraphView G>
Matrix MultiplyMop(const G& g, const Matrix& x, double mu) {
  Matrix y(x.rows(), x.cols());
  const uint64_t d = x.cols();
  const float one_minus_mu = static_cast<float>(1.0 - mu);
  g.MapVertices([&](NodeId u) {
    float* yu = y.Row(u);
    const float* xu = x.Row(u);
    APlusIRow(g, u, x, yu);
    const float scale =
        static_cast<float>(1.0 / (VertexWeightedDegree(g, u) + 1.0));
    for (uint64_t j = 0; j < d; ++j) {
      yu[j] = one_minus_mu * xu[j] - scale * yu[j];
    }
  });
  return y;
}

/// Y = (A + I) X.
template <GraphView G>
Matrix MultiplyAPlusI(const G& g, const Matrix& x) {
  Matrix y(x.rows(), x.cols());
  g.MapVertices([&](NodeId u) { APlusIRow(g, u, x, y.Row(u)); });
  return y;
}

}  // namespace internal

/// Final dense-SVD smoothing used by ProNE: factor mm ~ U S V^T through the
/// d x d Gram matrix, return rows of U sqrt(S), L2-normalized. Propagates
/// kInternal if the Gram eigen-decomposition does not converge.
Result<Matrix> DenseSvdSmoothing(const Matrix& mm);

/// Applies spectral propagation to embedding X over graph g. Fails with
/// kInvalidArgument when X's row count does not match the vertex count, and
/// propagates non-convergence from the smoothing SVD.
template <GraphView G>
Result<Matrix> SpectralPropagate(const G& g, const Matrix& x,
                                 const SpectralPropagationOptions& opt = {}) {
  if (static_cast<uint64_t>(g.NumVertices()) != x.rows()) {
    return Status::InvalidArgument(
        "SpectralPropagate: embedding has " + std::to_string(x.rows()) +
        " rows but the graph has " + std::to_string(g.NumVertices()) +
        " vertices");
  }
  if (opt.order <= 1) return x;
  const uint64_t total = x.rows() * x.cols();
  MetricsRegistry::Global().GetCounter("propagation/terms")->Add(opt.order);

  TraceSpan chebyshev_span("propagation/chebyshev");
  Matrix t0 = x;                                 // T_0
  Matrix t1 = internal::MultiplyMop(g, x, opt.mu);
  {
    Matrix mt1 = internal::MultiplyMop(g, t1, opt.mu);
    ParallelFor(0, total, [&](uint64_t k) {
      t1.data()[k] = 0.5f * mt1.data()[k] - x.data()[k];
    });
  }
  Matrix conv(x.rows(), x.cols());
  {
    const float c0 = static_cast<float>(BesselI(0, opt.theta));
    const float c1 = static_cast<float>(2.0 * BesselI(1, opt.theta));
    ParallelFor(0, total, [&](uint64_t k) {
      conv.data()[k] = c0 * t0.data()[k] - c1 * t1.data()[k];
    });
  }
  for (uint32_t i = 2; i < opt.order; ++i) {
    Matrix mt1 = internal::MultiplyMop(g, t1, opt.mu);
    Matrix t2 = internal::MultiplyMop(g, mt1, opt.mu);
    ParallelFor(0, total, [&](uint64_t k) {
      t2.data()[k] = (t2.data()[k] - 2.0f * t1.data()[k]) - t0.data()[k];
    });
    const float ci = static_cast<float>(2.0 * BesselI(i, opt.theta));
    const float sign = (i % 2 == 0) ? 1.0f : -1.0f;
    ParallelFor(0, total, [&](uint64_t k) {
      conv.data()[k] += sign * ci * t2.data()[k];
    });
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  Matrix diff(x.rows(), x.cols());
  ParallelFor(0, total, [&](uint64_t k) {
    diff.data()[k] = x.data()[k] - conv.data()[k];
  });
  Matrix mm = internal::MultiplyAPlusI(g, diff);
  chebyshev_span.End();
  if (!opt.svd_smoothing) return mm;
  TraceSpan smoothing_span("propagation/smoothing");
  return DenseSvdSmoothing(mm);  // Result<Matrix>: propagates SVD failure
}

}  // namespace lightne

#endif  // LIGHTNE_CORE_SPECTRAL_PROPAGATION_H_
