#include "core/spectral_propagation.h"

#include <cmath>

#include "la/svd.h"

namespace lightne {

Result<Matrix> DenseSvdSmoothing(const Matrix& mm) {
  const uint64_t d = mm.cols();
  // Gram step: mm = U S V^T  =>  mm^T mm = V S^2 V^T (lambda_j = S_j^2).
  Result<GramEigen> eig = GramEigenDecompose(mm);
  if (!eig.ok()) return eig.status();
  // ProNE's smoothing returns row-normalized U sqrt(S). Since
  //   U sqrt(S) = mm V S^{-1} S^{1/2} = mm V S^{-1/2},
  // scale the columns of mm*V by S_j^{-1/2} = lambda_j^{-1/4}.
  std::vector<float> scale(d);
  for (uint64_t j = 0; j < d; ++j) {
    const double s2 = std::max(0.0, static_cast<double>(eig->lambda[j]));
    scale[j] =
        s2 > 1e-12 ? static_cast<float>(1.0 / std::sqrt(std::sqrt(s2))) : 0.0f;
  }
  Matrix& mv = eig->yv;
  mv.ScaleColumns(scale);
  mv.NormalizeRows();
  return std::move(mv);
}

}  // namespace lightne
