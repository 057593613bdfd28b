// Parallel sparsifier construction (§3.2 + §4.2 of the paper):
// downsampled per-edge PathSampling (Algorithm 2) aggregated into the sparse
// parallel hash table, then built straight from the table's slots into a
// symmetric CSR SparseMatrix (internal::CanonicalToCsr).
//
// The estimator: with M the target number of path samples over the 2m
// directed edges, each directed edge e = (u, v) draws
//     n_e = floor(M / 2m) + Bernoulli(frac(M / 2m))
// attempts. With downsampling on, each attempt survives a coin flip with
//     p_e = min(1, C (1/d_u + 1/d_v)),   C = log(n) by default,
// and an accepted attempt runs Algo 1 with r ~ Uniform[1, T], adding weight
// 1/p_e to both (u', v') and (v', u'). The resulting matrix S is an unbiased
// estimator of
//     S*_{ab} = (M / (T m)) * d_a * sum_{r=1..T} (D^{-1} A)^r_{ab},
// which ApplyNetmfTransform (core/netmf.h) rescales into the NetMF matrix.
//
// Hash-table sizing: the table must hold one slot per *distinct* sampled
// pair, which for large M is far below the number of accepted samples (this
// is the memory advantage over NetSMF's per-sample buffers). We estimate the
// distinct count with a cheap pilot run (1/64 of the samples) extrapolated
// through a Poissonized support model, and fall back to doubling + resample
// if the estimate is exceeded.
#ifndef LIGHTNE_CORE_SPARSIFIER_H_
#define LIGHTNE_CORE_SPARSIFIER_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "core/aggregation.h"
#include "core/path_sampling.h"
#include "graph/graph_view.h"
#include "graph/walk_cursor.h"
#include "graph/weights.h"
#include "la/sparse.h"
#include "parallel/concurrent_hash_table.h"
#include "parallel/reduce.h"
#include "parallel/scan.h"
#include "parallel/scratch.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace lightne {

struct SparsifierOptions {
  /// Target number of path samples M. The paper parameterizes this as a
  /// multiple of T*m; see LightNeOptions::samples_ratio.
  uint64_t num_samples = 0;
  /// Context window size T (walk length upper bound).
  uint32_t window = 10;
  /// The paper's edge-downsampling technique (§3.2). Off reproduces plain
  /// NetSMF per-edge sampling.
  bool downsample = true;
  /// C in p_e = min(1, C (1/d_u + 1/d_v)); 0 means use log(n).
  double downsample_constant = 0.0;
  uint64_t seed = 1;
  /// Extra capacity factor on top of the estimated distinct-entry count.
  double table_slack = 1.6;
  /// How accepted samples are aggregated (§4.2). The shared hash table is
  /// the paper's choice; kSortHistogram is the per-worker-lists alternative
  /// the paper considered, kept for the ablation. Both yield bit-identical
  /// sparsifiers.
  AggregationStrategy aggregation = AggregationStrategy::kSharedHashTable;
  /// Optional memory-budget governor. When limited, the builder reserves the
  /// hash-table footprint before allocating and walks the degradation ladder
  /// (tighten downsampling, then cap table capacity) instead of OOM-dying;
  /// kResourceExhausted is returned only when no degradation fits. Null or
  /// unlimited = the exact paper behavior.
  MemoryBudget* memory_budget = nullptr;
  /// Byte budget for the walk accelerator (graph/walk_cursor.h): on
  /// compressed graphs, the hub-pinned decode cache shared by all sampling
  /// workers. 0 disables pinning (every draw then decodes its block).
  /// Pinning is a pure decode cache — the sparsifier is bit-identical with
  /// any value — so this is a perf/memory knob, not a semantic one. When a
  /// memory_budget governor is set, the actual footprint is reserved against
  /// it and capped so the hash table always has room.
  uint64_t walk_pin_budget_bytes = uint64_t{4} << 20;
};

struct SparsifierResult {
  SparseMatrix matrix;          // symmetric weighted sparsifier
  uint64_t samples_drawn = 0;   // sum of n_e
  uint64_t samples_accepted = 0;
  uint64_t distinct_entries = 0;
  uint64_t table_bytes = 0;     // hash table footprint at build time
  int attempts = 1;             // table-resize retries used
  /// True when the memory-budget governor changed the build (the sparsifier
  /// is still a valid unbiased estimator, just sparser than requested).
  bool degraded = false;
  /// Times the downsampling constant C was halved to fit the budget.
  int budget_tightenings = 0;
  /// True when the table capacity was clamped to the budget ceiling.
  bool capacity_capped = false;
  /// The C actually used (== the configured/log(n) one unless degraded).
  double downsample_constant_used = 0.0;
  /// Total sparsifier matrix mass (sum of all entries, diagonal and mirrored
  /// off-diagonal) in 2^-20 fixed point, rounded per accepted sample. The
  /// per-sample rounding makes the sum order-independent, so this value is
  /// bit-identical across worker counts — the measurement channel for the
  /// edge-count-conservation property test.
  uint64_t mass_fp20 = 0;
  /// Records delivered to the shared hash table by the final pass: one per
  /// accepted sample (0 for the kSortHistogram ablation, which has no table).
  uint64_t table_upserts = 0;
  /// UpsertBatch calls that delivered them.
  uint64_t table_batch_upserts = 0;
};

namespace internal {

/// Fixed-point scale for the sparsifier mass counter (2^20 ulps per unit).
inline constexpr double kMassFpScale = 1048576.0;

/// Rounds a per-sample weight contribution to 2^-20 fixed point.
inline uint64_t MassFp(double w) {
  return static_cast<uint64_t>(w * kMassFpScale + 0.5);
}

/// p_e = min(1, C A_uv (1/d_u + 1/d_v)) for edge (u, v) of weight `w` under
/// degree downsampling (weighted degrees; w = 1 on unweighted graphs).
template <GraphView G>
double DownsampleProbability(const G& g, NodeId u, NodeId v, double c,
                             double w = 1.0) {
  const double inv =
      1.0 / VertexWeightedDegree(g, u) + 1.0 / VertexWeightedDegree(g, v);
  const double p = c * w * inv;
  return p < 1.0 ? p : 1.0;
}

/// Runs Algorithm 2 for the edges incident to u at sampling intensity
/// `per_edge`, emitting canonical (min, max)-keyed weighted records through
/// `sink(key, weight) -> bool`. Deterministic in the per-edge RNG streams
/// regardless of the worker count. Returns false iff the sink rejected a
/// record (hash-table overflow).
///
/// The sparsifier is symmetric: only the canonical pair is emitted — half
/// the aggregation traffic and memory — and CanonicalToCsr mirrors it.
/// Diagonal hits carry double weight so the estimator matches the
/// symmetrized two-insert scheme.
template <GraphView G, typename Sink>
bool SampleVertexEdges(const G& g, const SparsifierOptions& opt,
                       double per_unit_weight, double c, uint64_t seed,
                       NodeId u, WalkContext<G>& ctx, Sink&& sink,
                       uint64_t* drawn, uint64_t* accepted,
                       uint64_t* mass_fp) {
  bool ok = true;
  MapNeighborsWeighted(g, u, [&](NodeId v, float weight) {
    if (!ok) return;
    Rng rng(HashCombine64(PackEdge(u, v), seed));
    // n_e = floor(M w / vol) + Bernoulli(frac): the weighted generalization
    // of floor(M/2m) + Bernoulli(frac(M/2m)) — heavier edges start more
    // walks, exactly as uniform weight-proportional edge draws would.
    const double intensity = per_unit_weight * static_cast<double>(weight);
    uint64_t ne = static_cast<uint64_t>(intensity);
    if (rng.Bernoulli(intensity - std::floor(intensity))) ++ne;
    *drawn += ne;
    const double pe =
        opt.downsample ? DownsampleProbability(g, u, v, c, weight) : 1.0;
    for (uint64_t i = 0; i < ne; ++i) {
      const uint64_t r = 1 + rng.UniformInt(opt.window);
      // opt.downsample is fixed for the whole run, so the draw count is
      // identical on every schedule; the per-edge rng replays from a
      // counter seed either way.
      if (opt.downsample && !rng.Bernoulli(pe)) continue;  // lint-ok: rngflow (run-constant guard)
      auto [a, b] = PathSample(g, ctx, u, v, r, rng);
      const uint64_t key = a <= b ? PackEdge(a, b) : PackEdge(b, a);
      const double w = (a == b ? 2.0 : 1.0) / pe;
      if (!sink(key, w)) {
        ok = false;
        return;
      }
      ++*accepted;
      // Total matrix contribution of this sample is 2/p_e whether or not it
      // hit the diagonal (off-diagonal entries are mirrored into the CSR).
      *mass_fp += MassFp(2.0 / pe);
    }
  });
  return ok;
}

/// Exact integer counters of one sampling pass. `drawn`, `accepted` and
/// `mass_fp` are bit-identical across worker counts and aggregation
/// strategies.
struct SamplerPassStats {
  uint64_t drawn = 0;
  uint64_t accepted = 0;
  uint64_t mass_fp = 0;
  uint64_t batch_upserts = 0;  // UpsertBatch calls (shared-table pass only)
};

/// Degree-aware scheduling: partitions [0, n) into `chunks` contiguous
/// vertex ranges of roughly equal incident-edge count (each vertex costs
/// degree + 1 units, so empty vertices still advance the partition). The
/// uniform-vertex grain this replaces let one hub-heavy range dominate a
/// pass on power-law graphs. Boundaries are a pure function of the graph and
/// `chunks` — no dynamic claiming — so the per-worker grouping of work (and
/// therefore every floating-point sum grouped per worker) is deterministic
/// for a fixed worker count.
template <GraphView G>
std::vector<NodeId> EdgeBalancedBoundaries(const G& g, uint64_t chunks) {
  const NodeId n = g.NumVertices();
  LIGHTNE_CHECK_GE(chunks, 1u);
  std::vector<uint64_t> before(n);  // work units strictly before vertex v
  ParallelFor(0, n, [&](uint64_t v) {
    before[v] = g.Degree(static_cast<NodeId>(v)) + 1;
  });
  const uint64_t total = ParallelScanExclusive(before.data(), n);
  std::vector<NodeId> bounds(chunks + 1);
  bounds[0] = 0;
  bounds[chunks] = n;
  for (uint64_t cidx = 1; cidx < chunks; ++cidx) {
    const uint64_t target = total / chunks * cidx;
    // First vertex whose preceding work reaches the target; monotone in
    // cidx, so the ranges are contiguous and non-overlapping.
    bounds[cidx] = static_cast<NodeId>(
        std::lower_bound(before.begin(), before.end(), target) -
        before.begin());
  }
  return bounds;
}

/// Records a sampling worker buffers before handing them to
/// ConcurrentHashTable::UpsertBatch (1 KiB of records), whose prefetch stage
/// overlaps the probe cache misses of a whole batch.
inline constexpr uint32_t kUpsertBatch = 64;

/// One full pass of Algorithm 2. Accepted records go to the shared hash
/// table (the paper's strategy) when `table` is set, else to the per-worker
/// `buffers` of the kSortHistogram ablation (the GBBS sparse histogram the
/// paper considered, §4.2). Returns false iff the table overflowed mid-run.
///
/// Scheduling: edge-balanced chunks (kChunksPerWorker per worker) assigned
/// statically round-robin — worker w takes chunks w, w+W, w+2W, ... — so
/// which vertices share a worker is a deterministic function of (graph,
/// worker count), not of thread timing. Each worker owns one WalkContext
/// (compressed-graph pinned-hub probe, fed by the phase-shared `accel`) and
/// one kUpsertBatch-record batch, flushed when full and at pass end.
template <GraphView G>
bool RunPerEdgeSampling(const G& g, const SparsifierOptions& opt,
                        double per_edge, double c, uint64_t seed,
                        const WalkAccel<G>& accel,
                        ConcurrentHashTable<double>* table,
                        WorkerBuffers* buffers, SamplerPassStats* stats) {
  LIGHTNE_CHECK((table == nullptr) != (buffers == nullptr));
  const NodeId n = g.NumVertices();
  constexpr uint64_t kChunksPerWorker = 8;
  const uint64_t workers_hint =
      (InParallelRegion() || NumWorkers() <= 1) ? 1 : NumWorkers();
  const uint64_t chunks = std::max<uint64_t>(
      1, std::min<uint64_t>(n, workers_hint * kChunksPerWorker));
  const std::vector<NodeId> bounds = EdgeBalancedBoundaries(g, chunks);
  std::atomic<uint64_t> drawn_total{0};
  std::atomic<uint64_t> accepted_total{0};
  std::atomic<uint64_t> mass_total{0};
  std::atomic<uint64_t> batches_total{0};
  ParallelForWorkers([&](int worker, int workers) {
    WalkContext<G> ctx(accel);
    std::pair<uint64_t, double> batch[kUpsertBatch];
    uint32_t fill = 0;
    uint64_t local_drawn = 0, local_accepted = 0, local_mass = 0;
    uint64_t local_batches = 0;
    const auto flush = [&] {
      ++local_batches;
      const bool flushed = table->UpsertBatch(batch, fill);
      fill = 0;
      return flushed;
    };
    const auto sink = [&](uint64_t key, double w) {
      if (table == nullptr) {
        buffers->Add(worker, key, w);
        return true;
      }
      batch[fill++] = {key, w};
      return fill < kUpsertBatch || flush();
    };
    bool ok = true;
    for (uint64_t chunk = static_cast<uint64_t>(worker);
         ok && chunk < chunks; chunk += static_cast<uint64_t>(workers)) {
      if (table != nullptr && table->overflowed()) break;
      for (NodeId u = bounds[chunk]; ok && u < bounds[chunk + 1]; ++u) {
        ok = SampleVertexEdges(g, opt, per_edge, c, seed, u, ctx, sink,
                               &local_drawn, &local_accepted, &local_mass);
      }
    }
    if (fill > 0) flush();  // overflow surfaces via table->overflowed()
    drawn_total.fetch_add(local_drawn, std::memory_order_relaxed);
    accepted_total.fetch_add(local_accepted, std::memory_order_relaxed);
    mass_total.fetch_add(local_mass, std::memory_order_relaxed);
    batches_total.fetch_add(local_batches, std::memory_order_relaxed);
  });
  stats->drawn = drawn_total.load();
  stats->accepted = accepted_total.load();
  stats->mass_fp = mass_total.load();
  stats->batch_upserts = batches_total.load();
  return table == nullptr || !table->overflowed();
}

/// Test oracle for CanonicalToCsr: mirrors canonical upper-triangle
/// (key, weight) entries back to a full symmetric entry set (diagonal entries
/// stay single), for SparseMatrix::FromEntries to sort and sum. The build
/// path never calls it.
inline std::vector<std::pair<uint64_t, double>> MirrorCanonical(
    std::vector<std::pair<uint64_t, double>> canonical) {
  const size_t upper = canonical.size();
  size_t off_diagonal = 0;
  for (const auto& [key, value] : canonical) {
    if (PackedSrc(key) != PackedDst(key)) ++off_diagonal;
  }
  canonical.reserve(upper + off_diagonal);
  for (size_t k = 0; k < upper; ++k) {
    const auto [key, value] = canonical[k];
    if (PackedSrc(key) != PackedDst(key)) {
      canonical.push_back({PackEdge(PackedDst(key), PackedSrc(key)), value});
    }
  }
  return canonical;
}

/// Builds the n x n symmetric sparsifier CSR straight from unique canonical
/// (min, max)-keyed entries. `entry_at(i, &key, &value)` reads item i of
/// [0, num_items) and returns false for an empty item (a free table slot);
/// every canonical entry must appear exactly once. An off-diagonal entry
/// fills (u, v) and its mirror (v, u); a diagonal entry fills (u, u) once.
/// Four linear steps:
///   1. per-row counts of both orientations;
///   2. an exclusive scan of the counts into the row offsets;
///   3. a scatter through per-row cursors;
///   4. a per-row column sort. Columns within a row are distinct, so the
///      result does not depend on the scatter order.
/// Each worker scans a fixed slice of the items with private per-row
/// counters and cursors (workers x n words), so neither pass issues a locked
/// instruction: a locked add per entry would drain the store buffer and
/// serialize the scatter's cache-missing stores. Each value is
/// static_cast<float> of the entry's double, so the matrix is bit-identical
/// to FromEntries(MirrorCanonical(entries)), whose sort-and-sum only
/// reorders an already unique input.
template <typename EntryAt>
SparseMatrix BuildSymmetricCsr(NodeId n, uint64_t num_items,
                               EntryAt&& entry_at) {
  const uint64_t rows = n;
  const uint64_t workers =
      (InParallelRegion() || NumWorkers() <= 1) ? 1 : NumWorkers();
  // Per-worker row counters, turned into per-worker row cursors by step 2.
  std::vector<uint64_t> local(workers * rows, 0);
  const auto for_each_in_slice = [&](int worker, int slices, auto&& fn) {
    LIGHTNE_CHECK_EQ(static_cast<uint64_t>(slices), workers);
    const uint64_t lo = num_items * worker / slices;
    const uint64_t hi = num_items * (worker + 1) / slices;
    uint64_t key;
    double value;
    for (uint64_t i = lo; i < hi; ++i) {
      if (entry_at(i, &key, &value)) fn(key, value);
    }
  };
  ParallelForWorkers([&](int worker, int slices) {
    uint64_t* count = local.data() + worker * rows;
    for_each_in_slice(worker, slices, [&](uint64_t key, double) {
      const NodeId a = PackedSrc(key), b = PackedDst(key);
      LIGHTNE_CHECK_LE(a, b);
      LIGHTNE_CHECK_LT(b, n);
      ++count[a];
      if (a != b) ++count[b];
    });
  });
  std::vector<uint64_t> offsets(rows + 1, 0);
  ParallelFor(0, rows, [&](uint64_t row) {
    uint64_t total = 0;
    for (uint64_t w = 0; w < workers; ++w) {
      const uint64_t count = local[w * rows + row];
      local[w * rows + row] = total;
      total += count;
    }
    offsets[row] = total;
  });
  const uint64_t nnz = ParallelScanExclusive(offsets.data(), offsets.size());
  std::vector<uint32_t> cols(nnz);
  std::vector<float> vals(nnz);
  ParallelForWorkers([&](int worker, int slices) {
    uint64_t* cursor = local.data() + worker * rows;
    for_each_in_slice(worker, slices, [&](uint64_t key, double value) {
      const NodeId a = PackedSrc(key), b = PackedDst(key);
      const float v = static_cast<float>(value);
      uint64_t k = offsets[a] + cursor[a]++;
      cols[k] = b;
      vals[k] = v;
      if (a != b) {
        k = offsets[b] + cursor[b]++;
        cols[k] = a;
        vals[k] = v;
      }
    });
  });
  // Sort each row by column, carrying the value: pack (col, value bits) into
  // one 64-bit word so a plain integer sort orders by column.
  ParallelFor(
      0, rows,
      [&](uint64_t row) {
        const uint64_t lo = offsets[row];
        const uint64_t len = offsets[row + 1] - lo;
        if (len < 2) return;
        ScratchArena::Scope scope(ScratchArena::ForCurrentThread());
        uint64_t* packed = scope.AllocArray<uint64_t>(len);
        for (uint64_t i = 0; i < len; ++i) {
          packed[i] = (static_cast<uint64_t>(cols[lo + i]) << 32) |
                      std::bit_cast<uint32_t>(vals[lo + i]);
        }
        std::sort(packed, packed + len);
        for (uint64_t i = 0; i < len; ++i) {
          cols[lo + i] = static_cast<uint32_t>(packed[i] >> 32);
          vals[lo + i] =
              std::bit_cast<float>(static_cast<uint32_t>(packed[i]));
        }
      },
      /*grain=*/64);
  return SparseMatrix::FromCsr(n, n, std::move(offsets), std::move(cols),
                               std::move(vals));
}

/// The sparsifier from its finished hash table (the shared-table path).
inline SparseMatrix CanonicalToCsr(NodeId n,
                                   const ConcurrentHashTable<double>& table) {
  return BuildSymmetricCsr(n, table.capacity(),
                           [&](uint64_t i, uint64_t* key, double* value) {
                             return table.ReadSlot(i, key, value);
                           });
}

/// The sparsifier from a unique canonical entry list (the sort-histogram
/// path).
inline SparseMatrix CanonicalToCsr(
    NodeId n, const std::vector<std::pair<uint64_t, double>>& canonical) {
  return BuildSymmetricCsr(n, canonical.size(),
                           [&](uint64_t i, uint64_t* key, double* value) {
                             std::tie(*key, *value) = canonical[i];
                             return true;
                           });
}

/// Poissonized support model: if `upserts` uniform draws over a support of
/// S cells produced `distinct` distinct cells, then
/// distinct = S (1 - exp(-upserts / S)). Solves for S by bisection and
/// extrapolates the distinct count at `scale` times as many draws.
inline double ExtrapolateDistinct(double upserts, double distinct,
                                  double scale) {
  if (distinct <= 0) return 0;
  // distinct -> upserts as S -> infinity; if nearly all draws were distinct,
  // the support is effectively unbounded at this scale: extrapolate linearly.
  if (distinct >= 0.99 * upserts) return distinct * scale;
  double lo = distinct, hi = distinct;
  auto model = [&](double s) { return s * (1.0 - std::exp(-upserts / s)); };
  while (model(hi) < distinct) hi *= 2;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (model(mid) < distinct ? lo : hi) = mid;
  }
  const double support = 0.5 * (lo + hi);
  return support * (1.0 - std::exp(-scale * upserts / support));
}

/// Publishes a completed build into the process metrics registry. Only the
/// final successful pass is counted (pilot and overflowed passes are
/// excluded), so the sampler counters stay deterministic per build.
inline void RecordSparsifierMetrics(const SparsifierResult& r,
                                    uint64_t table_capacity) {
  MetricsRegistry& m = MetricsRegistry::Global();
  m.GetCounter("sparsifier/builds")->Increment();
  m.GetCounter("sparsifier/samples_drawn")->Add(r.samples_drawn);
  m.GetCounter("sparsifier/samples_accepted")->Add(r.samples_accepted);
  m.GetCounter("sparsifier/mass_fp20")->Add(r.mass_fp20);
  m.GetCounter("sparsifier/table_rebuilds")
      ->Add(static_cast<uint64_t>(r.attempts - 1));
  m.GetCounter("sparsifier/budget_tightenings")
      ->Add(static_cast<uint64_t>(r.budget_tightenings));
  m.GetCounter("sparsifier/table_upserts")->Add(r.table_upserts);
  m.GetCounter("sparsifier/table_batch_upserts")->Add(r.table_batch_upserts);
  m.GetGauge("sparsifier/distinct_entries")->Set(r.distinct_entries);
  m.GetGauge("sparsifier/table_bytes")->Set(r.table_bytes);
  if (table_capacity > 0) {
    m.GetGauge("sparsifier/table_occupancy_pct")
        ->Set(100 * r.distinct_entries / table_capacity);
  }
}

}  // namespace internal

/// Builds the sparsifier. Fails with ResourceExhausted only if the hash
/// table overflows repeatedly (it is retried with doubled capacity).
template <GraphView G>
Result<SparsifierResult> BuildSparsifier(const G& g,
                                         const SparsifierOptions& opt) {
  const NodeId n = g.NumVertices();
  const EdgeId directed = g.NumDirectedEdges();
  if (directed == 0) {
    return Status::InvalidArgument("graph has no edges");
  }
  if (opt.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  double c = opt.downsample_constant > 0
                 ? opt.downsample_constant
                 : std::log(static_cast<double>(n));
  // Sampling intensity per unit of edge weight: E[sum_e n_e] = M exactly
  // (for unweighted graphs Volume() = 2m, so this is the paper's M/2m).
  const double per_edge =
      static_cast<double>(opt.num_samples) / g.Volume();

  // Expected accepted samples = sum_e E[n_e] p_e; the hard upper bound on
  // distinct entries. Recomputed by the budget governor when it tightens C.
  auto compute_expected_accepted = [&](double downsample_c) {
    if (!opt.downsample) return static_cast<double>(opt.num_samples);
    std::atomic<double> sum_wp{0.0};
    ParallelForWorkers([&](int worker, int workers) {
      const NodeId lo = static_cast<NodeId>(
          static_cast<uint64_t>(n) * worker / workers);
      const NodeId hi = static_cast<NodeId>(
          static_cast<uint64_t>(n) * (worker + 1) / workers);
      double local = 0;
      for (NodeId u = lo; u < hi; ++u) {
        MapNeighborsWeighted(g, u, [&](NodeId v, float w) {
          local += static_cast<double>(w) *
                   internal::DownsampleProbability(g, u, v, downsample_c, w);
        });
      }
      AtomicFetchAdd(sum_wp, local);
    });
    return per_edge * sum_wp.load(std::memory_order_relaxed);
  };
  double expected_accepted = compute_expected_accepted(c);

  // Walk accelerator for every sampling pass of this build (pilot + main):
  // on compressed graphs this pins the decoded top-degree adjacencies, with
  // the footprint reserved against the governor for the build's lifetime.
  // A pure decode cache — the sparsifier is bit-identical with or without it.
  const WalkAccel<G> walk_accel =
      MakeWalkAccel(g, opt.walk_pin_budget_bytes, opt.memory_budget);

  // --- alternative strategy: per-worker lists + sparse histogram ---------
  if (opt.aggregation == AggregationStrategy::kSortHistogram) {
    WorkerBuffers buffers(NumWorkers());
    internal::SamplerPassStats stats;
    TraceSpan sample_span("sparsifier/sample_pass");
    internal::RunPerEdgeSampling(g, opt, per_edge, c, opt.seed, walk_accel,
                                 /*table=*/nullptr, &buffers, &stats);
    sample_span.End();
    SparsifierResult result;
    result.samples_drawn = stats.drawn;
    result.samples_accepted = stats.accepted;
    result.mass_fp20 = stats.mass_fp;
    result.table_bytes = buffers.MemoryBytes();  // peak footprint
    TraceSpan csr_span("sparsifier/to_csr");
    const std::vector<std::pair<uint64_t, double>> canonical =
        buffers.Collapse();
    result.distinct_entries = canonical.size();
    result.downsample_constant_used = c;
    result.matrix = internal::CanonicalToCsr(n, canonical);
    csr_span.End();
    internal::RecordSparsifierMetrics(result, /*table_capacity=*/0);
    return result;
  }

  MemoryBudget* budget = opt.memory_budget;
  const bool budgeted = budget != nullptr && budget->limited();

  // Distinct-entry estimate (canonical pairs): exact bound for small runs;
  // pilot-extrapolated for large ones.
  double distinct_estimate = expected_accepted;
  constexpr double kPilotScale = 64.0;
  constexpr uint64_t kPilotThreshold = 1u << 20;
  if (expected_accepted > kPilotThreshold) {
    TraceSpan pilot_span("sparsifier/pilot");
    const uint64_t pilot_hint = static_cast<uint64_t>(
        expected_accepted / kPilotScale * opt.table_slack) + 4096;
    // The pilot table is 1/64 of the main one; if even that does not fit
    // the budget, skip the pilot and let the degradation ladder deal with
    // the conservative estimate.
    BudgetReservation pilot_reservation(
        budget, ConcurrentHashTable<double>::ProjectedMemoryBytes(pilot_hint));
    if (pilot_reservation.ok()) {
      ConcurrentHashTable<double> pilot(pilot_hint);
      internal::SamplerPassStats pilot_stats;
      if (internal::RunPerEdgeSampling(g, opt, per_edge / kPilotScale, c,
                                       opt.seed ^ 0x9107ull, walk_accel,
                                       &pilot, /*buffers=*/nullptr,
                                       &pilot_stats)) {
        distinct_estimate = internal::ExtrapolateDistinct(
            static_cast<double>(pilot_stats.accepted),
            static_cast<double>(pilot.NumEntries()), kPilotScale);
        // The Poissonized model assumes uniform cell intensities; skewed
        // sampling (power-law graphs) makes it underestimate, so pad by a
        // model-error margin. Never trust the model below what the pilot
        // already saw, and never exceed the hard bound.
        distinct_estimate *= 1.3;
        distinct_estimate =
            std::max(distinct_estimate,
                     static_cast<double>(pilot.NumEntries()));
        distinct_estimate = std::min(distinct_estimate, expected_accepted);
        LIGHTNE_LOG_DEBUG(
            "pilot: %llu accepted, %llu distinct -> estimate %.0f distinct",
            static_cast<unsigned long long>(pilot_stats.accepted),
            static_cast<unsigned long long>(pilot.NumEntries()),
            distinct_estimate);
      }
    }
  }

  auto hint_from_estimate = [&](double estimate) {
    return static_cast<uint64_t>(estimate * opt.table_slack) + 1024;
  };
  uint64_t capacity_hint = hint_from_estimate(distinct_estimate);

  // ---- memory-budget governor: the degradation ladder --------------------
  // Rung 1: tighten edge downsampling (halve C) so fewer samples survive and
  // the table shrinks. Rung 2: cap the table at the largest capacity the
  // budget can hold and hope the distinct count fits (the overflow retry
  // below turns "it did not" into kResourceExhausted). Every rung is
  // recorded in the result so callers can see the embedding was degraded.
  bool degraded = false;
  bool capacity_capped = false;
  int tightenings = 0;
  if (budgeted) {
    constexpr int kMaxTightenings = 4;
    while (opt.downsample && tightenings < kMaxTightenings &&
           ConcurrentHashTable<double>::ProjectedMemoryBytes(capacity_hint) >
               budget->available_bytes()) {
      c *= 0.5;
      ++tightenings;
      degraded = true;
      const double tightened = compute_expected_accepted(c);
      // Scale the (pilot or exact) estimate by the acceptance shrinkage;
      // distinct entries can only shrink along with accepted samples.
      distinct_estimate = std::min(
          distinct_estimate * (tightened / expected_accepted), tightened);
      expected_accepted = tightened;
      capacity_hint = hint_from_estimate(distinct_estimate);
    }
    if (ConcurrentHashTable<double>::ProjectedMemoryBytes(capacity_hint) >
        budget->available_bytes()) {
      const uint64_t capped_hint = ConcurrentHashTable<double>::
          LargestHintFitting(budget->available_bytes());
      if (capped_hint == 0) {
        return Status::ResourceExhausted(
            "memory budget of " + HumanBytes(budget->limit_bytes()) +
            " cannot hold any sparsifier hash table");
      }
      capacity_hint = capped_hint;
      capacity_capped = true;
      degraded = true;
    }
    if (degraded) {
      LIGHTNE_LOG_WARN(
          "sparsifier degraded to fit memory budget %s: C halved %d time(s)"
          "%s",
          HumanBytes(budget->limit_bytes()).c_str(), tightenings,
          capacity_capped ? ", table capacity capped" : "");
    }
  }

  for (int attempt = 1; attempt <= 6; ++attempt) {
    BudgetReservation table_reservation(
        budget,
        ConcurrentHashTable<double>::ProjectedMemoryBytes(capacity_hint));
    if (!table_reservation.ok()) {
      return Status::ResourceExhausted(
          "sparsifier hash table (" +
          HumanBytes(ConcurrentHashTable<double>::ProjectedMemoryBytes(
              capacity_hint)) +
          ") exceeds the remaining memory budget after degradation");
    }
    TraceSpan alloc_span("sparsifier/table_alloc");
    ConcurrentHashTable<double> table(capacity_hint);
    alloc_span.End();
    internal::SamplerPassStats stats;
    TraceSpan sample_span("sparsifier/sample_pass");
    const bool ok = internal::RunPerEdgeSampling(
        g, opt, per_edge, c, opt.seed, walk_accel, &table,
        /*buffers=*/nullptr, &stats);
    sample_span.End();
    if (!ok) {
      LIGHTNE_LOG_WARN(
          "sparsifier hash table overflowed (capacity %llu); retrying at 2x",
          static_cast<unsigned long long>(table.capacity()));
      capacity_hint = table.capacity() * 2;
      continue;
    }
    SparsifierResult result;
    result.samples_drawn = stats.drawn;
    result.samples_accepted = stats.accepted;
    result.mass_fp20 = stats.mass_fp;
    result.table_upserts = stats.accepted;
    result.table_batch_upserts = stats.batch_upserts;
    result.distinct_entries = table.NumEntries();
    result.table_bytes = table.MemoryBytes();
    result.attempts = attempt;
    result.degraded = degraded;
    result.budget_tightenings = tightenings;
    result.capacity_capped = capacity_capped;
    result.downsample_constant_used = c;
    TraceSpan csr_span("sparsifier/to_csr");
    result.matrix = internal::CanonicalToCsr(n, table);
    csr_span.End();
    internal::RecordSparsifierMetrics(result, table.capacity());
    return result;
  }
  return Status::ResourceExhausted(
      "sparsifier hash table overflowed after repeated capacity doublings");
}

}  // namespace lightne

#endif  // LIGHTNE_CORE_SPARSIFIER_H_
