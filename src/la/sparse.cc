#include "la/sparse.h"

#include <algorithm>

#include "la/kernels.h"
#include "parallel/parallel_for.h"
#include "parallel/scan.h"
#include "parallel/sort.h"

namespace lightne {

SparseMatrix SparseMatrix::FromCsr(uint64_t rows, uint64_t cols,
                                   std::vector<uint64_t> row_offsets,
                                   std::vector<uint32_t> col_indices,
                                   std::vector<float> values) {
  LIGHTNE_CHECK_EQ(row_offsets.size(), rows + 1);
  LIGHTNE_CHECK_EQ(row_offsets.front(), 0u);
  LIGHTNE_CHECK_EQ(row_offsets.back(), col_indices.size());
  LIGHTNE_CHECK_EQ(col_indices.size(), values.size());
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_ = std::move(row_offsets);
  m.col_indices_ = std::move(col_indices);
  m.values_ = std::move(values);
  return m;
}

SparseMatrix SparseMatrix::FromEntries(
    uint64_t rows, uint64_t cols,
    std::vector<std::pair<uint64_t, double>> entries) {
  ParallelSort(entries.data(), entries.size(),
               [](const auto& a, const auto& b) { return a.first < b.first; });
  // Equal keys are now contiguous runs: pack the run heads, then sum each
  // run into one CSR entry.
  const uint64_t n = entries.size();
  const std::vector<uint64_t> heads = ParallelPack<uint64_t>(
      n,
      [&](uint64_t k) {
        return k == 0 || entries[k].first != entries[k - 1].first;
      },
      [](uint64_t k) { return k; });
  const uint64_t nnz = heads.size();
  std::vector<uint32_t> col_indices(nnz);
  std::vector<float> values(nnz);
  ParallelFor(
      0, nnz,
      [&](uint64_t h) {
        const uint64_t lo = heads[h];
        const uint64_t hi = (h + 1 < nnz) ? heads[h + 1] : n;
        double sum = 0;
        for (uint64_t k = lo; k < hi; ++k) sum += entries[k].second;
        const uint64_t key = entries[lo].first;
        LIGHTNE_CHECK_LT(key >> 32, rows);
        const uint32_t col = static_cast<uint32_t>(key & 0xffffffffull);
        LIGHTNE_CHECK_LT(col, cols);
        col_indices[h] = col;
        values[h] = static_cast<float>(sum);
      },
      /*grain=*/1024);
  // Row r starts at the first entry whose row is >= r, so entry h starts
  // every row after its predecessor's row up to its own (empty rows
  // included); h == nnz closes the rows after the last entry.
  const auto row_of = [&](uint64_t h) { return entries[heads[h]].first >> 32; };
  std::vector<uint64_t> row_offsets(rows + 1);
  ParallelFor(0, nnz + 1, [&](uint64_t h) {
    const uint64_t first = h == 0 ? 0 : row_of(h - 1) + 1;
    const uint64_t last = h == nnz ? rows : row_of(h);
    for (uint64_t r = first; r <= last; ++r) row_offsets[r] = h;
  });
  return FromCsr(rows, cols, std::move(row_offsets), std::move(col_indices),
                 std::move(values));
}

float SparseMatrix::At(uint64_t i, uint32_t j) const {
  auto cols = RowCols(i);
  auto it = std::lower_bound(cols.begin(), cols.end(), j);
  if (it == cols.end() || *it != j) return 0.0f;
  return values_[row_offsets_[i] + (it - cols.begin())];
}

void SparseMatrix::Prune(float threshold_exclusive) {
  std::vector<uint64_t> new_count(rows_ + 1, 0);
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        uint64_t kept = 0;
        for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
          if (values_[k] > threshold_exclusive) ++kept;
        }
        new_count[i + 1] = kept;
      },
      /*grain=*/512);
  std::vector<uint64_t> new_offsets(rows_ + 1, 0);
  for (uint64_t i = 0; i < rows_; ++i) {
    new_offsets[i + 1] = new_offsets[i] + new_count[i + 1];
  }
  std::vector<uint32_t> new_cols(new_offsets[rows_]);
  std::vector<float> new_vals(new_offsets[rows_]);
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        uint64_t w = new_offsets[i];
        for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
          if (values_[k] > threshold_exclusive) {
            new_cols[w] = col_indices_[k];
            new_vals[w] = values_[k];
            ++w;
          }
        }
      },
      /*grain=*/512);
  row_offsets_ = std::move(new_offsets);
  col_indices_ = std::move(new_cols);
  values_ = std::move(new_vals);
}

// Row-block SPMM (the mkl_sparse_s_mm substitute, tuned per DESIGN.md §8).
// The accumulator row is touched on every nnz iteration, so as long as it
// fits in L1 it stays resident no matter how the gathered X rows stream —
// measured on the baseline box, a single full-width pass beats column
// stripping at every RHS width up to 4096 (stripping re-reads the row's
// CSR indices per strip and chops the X-row streams into short gathers).
// Only once the accumulator row alone outgrows L1 (kSpmmStripMinCols) does
// the auto policy strip the RHS into kSpmmStrip-column tiles to restore
// residency. Stripping reorders only the iteration over output columns,
// never the nnz-ascending sum within an element, and each output row is
// owned by one task and written flat (no atomic adds), so every path is
// bit-identical to NaiveSpmm for any worker count and strip width.
Matrix SparseMatrix::Multiply(const Matrix& x, uint64_t column_strip) const {
  LIGHTNE_CHECK_EQ(cols_, x.rows());
  Matrix y(rows_, x.cols());
  const uint64_t d = x.cols();
  const uint64_t strip =
      column_strip > 0
          ? column_strip
          : (d >= kernels::kSpmmStripMinCols ? kernels::kSpmmStrip : d);
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        float* __restrict yi = y.Row(i);
        const uint64_t lo = row_offsets_[i];
        const uint64_t hi = row_offsets_[i + 1];
        for (uint64_t jb = 0; jb < d; jb += strip) {
          const uint64_t j_len = std::min(strip, d - jb);
          float* __restrict ys = yi + jb;
          for (uint64_t k = lo; k < hi; ++k) {
            const float v = values_[k];
            const float* __restrict xs = x.Row(col_indices_[k]) + jb;
            for (uint64_t j = 0; j < j_len; ++j) ys[j] += v * xs[j];
          }
        }
      },
      /*grain=*/64);
  return y;
}

SparseMatrix SparseMatrix::Transposed() const {
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  const uint64_t nnz = values_.size();
  // Count per target row (= source column), scan, scatter.
  std::vector<std::atomic<uint64_t>> count(cols_);
  ParallelFor(0, cols_, [&](uint64_t c) {
    count[c].store(0, std::memory_order_relaxed);
  });
  ParallelFor(0, nnz, [&](uint64_t k) {
    count[col_indices_[k]].fetch_add(1, std::memory_order_relaxed);
  });
  t.row_offsets_.assign(cols_ + 1, 0);
  for (uint64_t c = 0; c < cols_; ++c) {
    t.row_offsets_[c + 1] =
        t.row_offsets_[c] + count[c].load(std::memory_order_relaxed);
  }
  t.col_indices_.resize(nnz);
  t.values_.resize(nnz);
  std::vector<std::atomic<uint64_t>> cursor(cols_);
  ParallelFor(0, cols_, [&](uint64_t c) {
    cursor[c].store(t.row_offsets_[c], std::memory_order_relaxed);
  });
  // Scatter by source row so each target row receives sources in ascending
  // order only under sequential execution; sort rows afterward for a
  // deterministic canonical form.
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
          const uint64_t slot = cursor[col_indices_[k]].fetch_add(
              1, std::memory_order_relaxed);
          t.col_indices_[slot] = static_cast<uint32_t>(i);
          t.values_[slot] = values_[k];
        }
      },
      /*grain=*/256);
  ParallelFor(
      0, cols_,
      [&](uint64_t c) {
        const uint64_t lo = t.row_offsets_[c], hi = t.row_offsets_[c + 1];
        // Sort (col, value) pairs of this row by col.
        std::vector<std::pair<uint32_t, float>> row(hi - lo);
        for (uint64_t k = lo; k < hi; ++k) {
          row[k - lo] = {t.col_indices_[k], t.values_[k]};
        }
        std::sort(row.begin(), row.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (uint64_t k = lo; k < hi; ++k) {
          t.col_indices_[k] = row[k - lo].first;
          t.values_[k] = row[k - lo].second;
        }
      },
      /*grain=*/256);
  return t;
}

std::vector<double> SparseMatrix::RowSums() const {
  std::vector<double> sums(rows_, 0.0);
  ParallelFor(
      0, rows_,
      [&](uint64_t i) {
        double s = 0;
        for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
          s += values_[k];
        }
        sums[i] = s;
      },
      /*grain=*/512);
  return sums;
}

Matrix SparseMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  ParallelFor(0, rows_, [&](uint64_t i) {
    for (uint64_t k = row_offsets_[i]; k < row_offsets_[i + 1]; ++k) {
      d.At(i, col_indices_[k]) = values_[k];
    }
  });
  return d;
}

}  // namespace lightne
