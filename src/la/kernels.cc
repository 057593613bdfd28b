#include "la/kernels.h"

#include <algorithm>

#include "parallel/parallel_for.h"
#include "parallel/scratch.h"

namespace lightne {

// --------------------------------------------------------- naive references

Matrix NaiveGemm(const Matrix& a, const Matrix& b) {
  LIGHTNE_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  for (uint64_t i = 0; i < a.rows(); ++i) {
    for (uint64_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (uint64_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      c.At(i, j) = acc;
    }
  }
  return c;
}

Matrix NaiveGemmTN(const Matrix& a, const Matrix& b) {
  LIGHTNE_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.cols(), b.cols());
  for (uint64_t i = 0; i < a.cols(); ++i) {
    for (uint64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (uint64_t r = 0; r < a.rows(); ++r) {
        acc += static_cast<double>(a.At(r, i)) * b.At(r, j);
      }
      c.At(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Matrix NaiveSpmm(const SparseMatrix& a, const Matrix& x) {
  LIGHTNE_CHECK_EQ(a.cols(), x.rows());
  Matrix y(a.rows(), x.cols());
  const uint64_t d = x.cols();
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& vals = a.values();
  for (uint64_t i = 0; i < a.rows(); ++i) {
    float* yi = y.Row(i);
    for (uint64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      const float v = vals[k];
      const float* xr = x.Row(cols[k]);
      for (uint64_t j = 0; j < d; ++j) yi[j] += v * xr[j];
    }
  }
  return y;
}

// ------------------------------------------------------- shared primitives

namespace kernels {

void TransposeBlock(const float* __restrict src, uint64_t lds,
                    float* __restrict dst, uint64_t ldd, uint64_t rows,
                    uint64_t cols) {
  for (uint64_t i = 0; i < rows; ++i) {
    const float* __restrict s = src + i * lds;
    for (uint64_t j = 0; j < cols; ++j) dst[j * ldd + i] = s[j];
  }
}

void MicroGemm(const float* __restrict a, uint64_t lda,
               const float* __restrict b, uint64_t ldb, float* __restrict c,
               uint64_t ldc, uint64_t m, uint64_t k, uint64_t n) {
  for (uint64_t i = 0; i < m; ++i) {
    float* __restrict ci = c + i * ldc;
    for (uint64_t j = 0; j < n; ++j) ci[j] = 0.0f;
    const float* __restrict ai = a + i * lda;
    for (uint64_t p = 0; p < k; ++p) {
      const float aip = ai[p];
      const float* __restrict bp = b + p * ldb;
      for (uint64_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

uint64_t GemmTnBlocks(uint64_t rows, uint64_t m, uint64_t n) {
  // One block per ~1K rows caps the per-element reduction tree while giving
  // the pool parallelism on the tall-skinny inputs GemmTN is built for; the
  // byte budget caps the m*n*8-byte partial buffers when m, n are not small.
  constexpr uint64_t kBlockRows = 1024;
  constexpr uint64_t kMaxBlocks = 128;
  constexpr uint64_t kPartialBudgetBytes = 32ull << 20;
  uint64_t blocks = rows / kBlockRows;
  if (blocks > kMaxBlocks) blocks = kMaxBlocks;
  const uint64_t partial_bytes = m * n * sizeof(double);
  if (partial_bytes > 0) {
    const uint64_t mem_cap = kPartialBudgetBytes / partial_bytes;
    if (blocks > mem_cap) blocks = mem_cap;
  }
  return blocks == 0 ? 1 : blocks;
}

}  // namespace kernels

// ------------------------------------------------------- production kernels

// C = A * B as kMc-row panels of A/C, one MicroGemm over unpacked B each.
// Every output element is produced by exactly one task with products added
// in ascending k from 0.0f, so the result is bit-identical to NaiveGemm and
// independent of the worker count.
Matrix Gemm(const Matrix& a, const Matrix& b) {
  LIGHTNE_CHECK_EQ(a.cols(), b.rows());
  const uint64_t m = a.rows();
  const uint64_t k = a.cols();
  const uint64_t n = b.cols();
  Matrix c(m, n);
  if (m == 0 || k == 0 || n == 0) return c;
  ParallelFor(
      0, (m + kernels::kMc - 1) / kernels::kMc,
      [&](uint64_t ip) {
        const uint64_t i_lo = ip * kernels::kMc;
        kernels::MicroGemm(a.Row(i_lo), k, b.data(), n, c.Row(i_lo), n,
                           std::min(kernels::kMc, m - i_lo), k, n);
      },
      /*grain=*/1);
  return c;
}

// C = A^T * B for tall-skinny A, B. Rows are partitioned into
// GemmTnBlocks(...) contiguous blocks — a function of the shape only — each
// reduced into its own double-precision partial buffer (rows ascending),
// then merged block-ascending. The partial buffers come from the calling
// thread's scratch arena, so repeated calls of the same shape (the rSVD
// power-iteration loop) reuse warm memory instead of reallocating.
Matrix GemmTN(const Matrix& a, const Matrix& b) {
  LIGHTNE_CHECK_EQ(a.rows(), b.rows());
  const uint64_t rows = a.rows();
  const uint64_t m = a.cols();
  const uint64_t n = b.cols();
  Matrix c(m, n);
  if (rows == 0 || m == 0 || n == 0) return c;
  const uint64_t blocks = kernels::GemmTnBlocks(rows, m, n);
  ScratchArena::Scope scope(ScratchArena::ForCurrentThread());
  double* partials = scope.AllocArray<double>(blocks * m * n);
  ParallelFor(
      0, blocks,
      [&](uint64_t bidx) {
        double* __restrict acc = partials + bidx * m * n;
        for (uint64_t e = 0; e < m * n; ++e) acc[e] = 0.0;
        const uint64_t lo = rows * bidx / blocks;
        const uint64_t hi = rows * (bidx + 1) / blocks;
        for (uint64_t r = lo; r < hi; ++r) {
          const float* __restrict ar = a.Row(r);
          const float* __restrict br = b.Row(r);
          for (uint64_t i = 0; i < m; ++i) {
            const double ari = ar[i];
            if (ari == 0.0) continue;
            double* __restrict acc_row = acc + i * n;
            for (uint64_t j = 0; j < n; ++j) acc_row[j] += ari * br[j];
          }
        }
      },
      /*grain=*/1);
  ParallelFor(0, m * n, [&](uint64_t e) {
    double sum = 0.0;
    for (uint64_t bidx = 0; bidx < blocks; ++bidx) {
      sum += partials[bidx * m * n + e];
    }
    c.data()[e] = static_cast<float>(sum);
  });
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  kernels::TransposeBlock(a.data(), a.cols(), t.data(), a.rows(), a.rows(),
                          a.cols());
  return t;
}

}  // namespace lightne
