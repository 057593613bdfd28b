// Dense SVD of small matrices via one-sided Jacobi — the LAPACKE_sgesvd
// counterpart applied to the projected matrix C in Algo 3 (line 9). C is
// (d + oversample)^2-sized, so a simple high-accuracy method is the right
// tool.
#ifndef LIGHTNE_LA_SVD_H_
#define LIGHTNE_LA_SVD_H_

#include <vector>

#include "la/matrix.h"
#include "util/status.h"

namespace lightne {

struct SvdResult {
  Matrix u;                  // l x q, orthonormal columns (zero where sigma=0)
  std::vector<float> sigma;  // q singular values, descending
  Matrix v;                  // q x q, orthogonal
};

/// Full thin SVD A = U diag(sigma) V^T for an l x q matrix with l >= q.
/// One-sided Jacobi in double precision; singular values sorted descending.
/// Fails with kInvalidArgument on degenerate shapes (l < q, empty, non-
/// finite entries) and kInternal if the sweep limit is hit before the
/// off-diagonal mass is annihilated (non-convergence is reported, never
/// silently truncated). Fault point: "svd/converge".
Result<SvdResult> JacobiSvd(const Matrix& a);

/// The Gram step shared by every tall-skinny factorization ("eigSVD"):
/// for an n x q matrix Y, G = Y^T Y = V diag(lambda) V^T, so Y V has
/// orthogonal columns with squared norms lambda_j. JacobiSvd of the
/// symmetric PSD G is its eigen-decomposition (sigma_j = lambda_j).
struct GramEigen {
  Matrix yv;                  // n x q: Y V
  std::vector<float> lambda;  // q eigenvalues of Y^T Y, descending
};

/// GemmTN for G, JacobiSvd of G, Gemm for Y V — nothing else, so the
/// result is bit-identical for any worker count (GemmTN blocks and Gemm
/// panels depend on shape only; JacobiSvd is sequential). Propagates
/// JacobiSvd's failures, including the "svd/converge" fault point.
Result<GramEigen> GramEigenDecompose(const Matrix& y);

}  // namespace lightne

#endif  // LIGHTNE_LA_SVD_H_
