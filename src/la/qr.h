// Orthonormalization of tall-skinny panels — the LAPACKE_sgeqrf +
// LAPACKE_sorgqr counterpart used by Algo 3 (lines 4 and 7), which only
// needs an orthonormal basis of each n x q panel, never R.
//
// It runs through the q x q Gram matrix (eigSVD, as in SketchNE/NetMF+ and
// LightNE 2.0): GramEigenDecompose (la/svd.h) gives Y V and the eigenvalues
// lambda of Y^T Y, and Y V diag(lambda^{-1/2}) is orthonormal. One pass
// leaves an error of order eps * cond(Y)^2 in Q^T Q; a second pass of the
// same step on that nearly orthonormal output brings it to float rounding.
// Every piece is GemmTN, JacobiSvd or Gemm, so the result is bit-identical
// for any worker count (GemmTN blocks and Gemm panels depend on shape only;
// JacobiSvd is sequential).
#ifndef LIGHTNE_LA_QR_H_
#define LIGHTNE_LA_QR_H_

#include "la/matrix.h"
#include "util/status.h"

namespace lightne {

/// Sequential level-2 Householder thin QR of an n x q matrix with n >= q.
/// On return *a holds the orthonormal Q (n x q); the returned matrix is the
/// upper-triangular R (q x q). Rank-deficient columns yield zero rows in R
/// and identity-like columns in Q; Q is always orthonormal. Kept compiled
/// only as the test oracle for Orthonormalize.
Matrix HouseholderQr(Matrix* a);

/// Replaces *a by an orthonormal basis of its column span, in two Gram
/// passes. Where *a has no rank, the basis has zero columns instead:
/// directions whose Gram eigenvalue falls below 1e-12 of the largest are
/// dropped, so the non-zero columns are orthonormal and Q Q^T A = A.
/// Propagates JacobiSvd's failures, including "svd/converge".
Status Orthonormalize(Matrix* a);

}  // namespace lightne

#endif  // LIGHTNE_LA_QR_H_
