// Randomized SVD following Algorithm 3 of the paper (Halko–Martinsson–Tropp
// with a two-sided projection), call-for-call. The comments name the MKL
// routine each step replaces in the paper's implementation.
#ifndef LIGHTNE_LA_RSVD_H_
#define LIGHTNE_LA_RSVD_H_

#include <vector>

#include "la/matrix.h"
#include "la/sparse.h"
#include "util/status.h"

namespace lightne {

struct RandomizedSvdOptions {
  uint64_t rank = 128;        // d: number of singular pairs to return
  uint64_t oversample = 10;   // extra projection columns
  uint64_t power_iters = 0;   // extra subspace iterations (0 = Algo 3 as-is)
  bool symmetric = false;     // skip the explicit transpose when A = A^T
  uint64_t seed = 1;
};

struct RandomizedSvdResult {
  Matrix u;                  // n x rank
  std::vector<float> sigma;  // rank, descending
  Matrix v;                  // n x rank
};

/// Approximate truncated SVD of a sparse n x n matrix. Fails with
/// kInvalidArgument on a non-square input or a rank that exceeds its
/// dimension, and propagates kInternal from any inner Jacobi SVD (the Gram
/// step of each Orthonormalize, or the projected problem) that does not
/// converge.
Result<RandomizedSvdResult> RandomizedSvd(const SparseMatrix& a,
                                          const RandomizedSvdOptions& opt);

/// The network-embedding convention: X = U * diag(sqrt(sigma)).
Matrix EmbeddingFromSvd(const RandomizedSvdResult& svd);

}  // namespace lightne

#endif  // LIGHTNE_LA_RSVD_H_
