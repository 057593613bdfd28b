// Sampler hot-path tests (DESIGN.md §11, §13): the batched shared-table
// ingestion against the kSortHistogram ablation and across worker counts
// and graph representations, the weighted sampler's draw distribution, the
// compressed-graph walk engine (hub-pinned tier over scalar decode) against
// naive Neighbor, and the edge-balanced scheduling partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <optional>
#include <vector>

#include "core/sparsifier.h"
#include "data/generators.h"
#include "graph/compressed.h"
#include "graph/csr.h"
#include "graph/walk_cursor.h"
#include "graph/weighted_csr.h"
#include "graph/weights.h"
#include "parallel/parallel_for.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/random.h"

namespace lightne {
namespace {

CsrGraph SamplerGraph() {
  return CsrGraph::FromEdges(GenerateRmat(10, 8000, 42));
}

SparsifierOptions BaseOptions() {
  SparsifierOptions opt;
  opt.num_samples = 300000;
  opt.window = 6;
  opt.seed = 123;
  return opt;
}

// Floats within `ulps` representable steps of each other (same sign; the
// matrix values here are all positive sums of positive weights).
bool FloatWithinUlps(float a, float b, int32_t ulps) {
  int32_t ia, ib;
  std::memcpy(&ia, &a, 4);
  std::memcpy(&ib, &b, 4);
  return std::abs(ia - ib) <= ulps;
}

void ExpectEquivalentSparsifiers(const SparsifierResult& a,
                                 const SparsifierResult& b) {
  // Integer-domain quantities: bit-identical (the determinism contract).
  EXPECT_EQ(a.samples_drawn, b.samples_drawn);
  EXPECT_EQ(a.samples_accepted, b.samples_accepted);
  EXPECT_EQ(a.mass_fp20, b.mass_fp20);
  EXPECT_EQ(a.distinct_entries, b.distinct_entries);
  // The sparsity pattern is the distinct-key set, also exact.
  ASSERT_EQ(a.matrix.nnz(), b.matrix.nnz());
  EXPECT_EQ(a.matrix.col_indices(), b.matrix.col_indices());
  // Values are double sums in different groupings rounded to float: within
  // 1 ulp (in practice identical — the 29 extra double bits absorb the
  // reassociation).
  const auto& av = a.matrix.values();
  const auto& bv = b.matrix.values();
  for (size_t i = 0; i < av.size(); ++i) {
    ASSERT_TRUE(FloatWithinUlps(av[i], bv[i], 1))
        << "entry " << i << ": " << av[i] << " vs " << bv[i];
  }
}

// ------------------------------------------------------ sampler ingestion ----

// The shared table (batched UpsertBatch ingestion) and the kSortHistogram
// ablation (per-worker lists, one sort) run the same per-edge RNG streams
// over the same schedule; the sparsifiers must agree bit for bit.
template <GraphView G>
void ExpectSharedTableMatchesSortHistogram(const G& g) {
  SparsifierOptions shared = BaseOptions();
  SparsifierOptions sorted = BaseOptions();
  sorted.aggregation = AggregationStrategy::kSortHistogram;
  for (const bool sequential : {false, true}) {
    std::optional<SequentialRegion> region;
    if (sequential) region.emplace();
    auto rs = BuildSparsifier(g, shared);
    auto rh = BuildSparsifier(g, sorted);
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rh.ok());
    EXPECT_EQ(rs->samples_drawn, rh->samples_drawn);
    EXPECT_EQ(rs->samples_accepted, rh->samples_accepted);
    EXPECT_EQ(rs->mass_fp20, rh->mass_fp20);
    EXPECT_EQ(rs->distinct_entries, rh->distinct_entries);
    EXPECT_EQ(rs->matrix.row_offsets(), rh->matrix.row_offsets());
    EXPECT_EQ(rs->matrix.col_indices(), rh->matrix.col_indices());
    EXPECT_EQ(rs->matrix.values(), rh->matrix.values());
    // Every accepted sample reaches the table, in kUpsertBatch batches.
    EXPECT_EQ(rs->table_upserts, rs->samples_accepted);
    EXPECT_GE(rs->table_batch_upserts * internal::kUpsertBatch,
              rs->table_upserts);
  }
}

TEST(IngestionTest, SharedTableMatchesSortHistogram) {
  const CsrGraph csr = SamplerGraph();
  ExpectSharedTableMatchesSortHistogram(csr);
  ExpectSharedTableMatchesSortHistogram(CompressedGraph::FromCsr(csr));
}

TEST(IngestionTest, CountersBitIdenticalAcrossWorkerCounts) {
  const CsrGraph g = SamplerGraph();
  const SparsifierOptions opt = BaseOptions();
  Result<SparsifierResult> serial = [&] {
    SequentialRegion seq;
    return BuildSparsifier(g, opt);
  }();
  auto parallel = BuildSparsifier(g, opt);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ExpectEquivalentSparsifiers(*serial, *parallel);
}

TEST(IngestionTest, WorksAcrossRepresentations) {
  // The compressed path adds the decode cursor on top of the batch; both
  // representations draw identical walk endpoints, so they must agree.
  const CsrGraph csr = SamplerGraph();
  const CompressedGraph cg = CompressedGraph::FromCsr(csr);
  const SparsifierOptions opt = BaseOptions();
  auto rcsr = BuildSparsifier(csr, opt);
  auto rcomp = BuildSparsifier(cg, opt);
  ASSERT_TRUE(rcsr.ok());
  ASSERT_TRUE(rcomp.ok());
  EXPECT_EQ(rcsr->samples_drawn, rcomp->samples_drawn);
  EXPECT_EQ(rcsr->samples_accepted, rcomp->samples_accepted);
  EXPECT_EQ(rcsr->mass_fp20, rcomp->mass_fp20);
  EXPECT_EQ(rcsr->distinct_entries, rcomp->distinct_entries);
  EXPECT_EQ(rcsr->matrix.col_indices(), rcomp->matrix.col_indices());
}

TEST(IngestionTest, MetricsSurfaceIngestionCounters) {
  const CsrGraph g = SamplerGraph();
  MetricsRegistry::Global().ResetForTest();
  auto r = BuildSparsifier(g, BaseOptions());
  ASSERT_TRUE(r.ok());
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(r->table_upserts, r->samples_accepted);
  EXPECT_GT(r->table_batch_upserts, 0u);
  EXPECT_EQ(snap.CounterValue("sparsifier/samples_accepted"),
            r->samples_accepted);
  EXPECT_EQ(snap.CounterValue("sparsifier/table_upserts"), r->table_upserts);
  EXPECT_EQ(snap.CounterValue("sparsifier/table_batch_upserts"),
            r->table_batch_upserts);
}

// ------------------------------------------------------ weighted sampling ----

TEST(WeightedSamplingTest, DrawFrequenciesTrackWeights) {
  // A star plus a ring: vertex 0 has a wide, heavily skewed adjacency
  // (weights 1, 2, ..., d). Frequencies of 200k draws at the hub must track
  // the weights; any systematic deviation is a sampler bug.
  WeightedEdgeList list;
  list.num_vertices = 64;
  for (NodeId v = 1; v < 64; ++v) {
    list.Add(0, v, static_cast<float>(v));
    list.Add(v, v % 63 + 1, 1.0f);
  }
  const WeightedCsrGraph g = WeightedCsrGraph::FromEdges(std::move(list));
  const NodeId hub = 0;
  const uint64_t d = g.Degree(hub);
  std::vector<uint64_t> counts(65, 0);
  Rng rng(7);
  const uint64_t draws = 200000;
  for (uint64_t s = 0; s < draws; ++s) ++counts[g.SampleNeighbor(hub, rng)];
  for (uint64_t i = 0; i < d; ++i) {
    const NodeId nbr = g.Neighbor(hub, i);
    const double expect = static_cast<double>(draws) *
                          static_cast<double>(g.Weight(hub, i)) /
                          g.WeightedDegree(hub);
    // 6-sigma Poisson band.
    EXPECT_NEAR(static_cast<double>(counts[nbr]), expect,
                6.0 * std::sqrt(expect) + 6.0)
        << "neighbor " << nbr;
  }
}

// ------------------------------------------------------------ degree guard ----

TEST(WeightsTest, SampleNeighborProportionalRejectsZeroDegree) {
  // Vertex 3 is isolated: the plain entry point must report InvalidArgument
  // instead of aborting or silently indexing past the adjacency. (The ctx
  // hot-path form keeps its CHECK — see weights.h.)
  EdgeList list;
  list.num_vertices = 4;
  list.Add(0, 1);
  list.Add(1, 2);
  const CsrGraph g = CsrGraph::FromEdges(list);
  Rng rng(1);
  const Result<NodeId> bad = SampleNeighborProportional(g, NodeId{3}, rng);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  const Result<NodeId> good = SampleNeighborProportional(g, NodeId{0}, rng);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, NodeId{1});
}

// ------------------------------------------------------------ walk context ----

TEST(WalkContextTest, WalkContextMatchesPlainWalks) {
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(9, 6000, 21));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  WalkContext<CompressedGraph> ctx;
  for (uint64_t s = 0; s < 500; ++s) {
    Rng rng_a(s), rng_b(s);
    const NodeId start = static_cast<NodeId>(s % g.NumVertices());
    if (g.Degree(start) == 0) continue;
    const NodeId with_ctx = WeightedRandomWalk(g, ctx, start, 8, rng_a);
    const NodeId without = WeightedRandomWalk(g, start, 8, rng_b);
    ASSERT_EQ(with_ctx, without) << "walk " << s;
  }
}

// --------------------------------------------------------- walk engine ----

// Replays one deterministic PathSampling-shaped draw stream through a
// step function; used to compare decode variants draw by draw.
template <typename StepFn>
std::vector<NodeId> DrawStream(const CompressedGraph& g, const StepFn& step) {
  std::vector<NodeId> stream;
  Rng rng(4242);
  for (int walk = 0; walk < 4000; ++walk) {
    NodeId v = static_cast<NodeId>(rng.UniformInt(g.NumVertices()));
    if (g.Degree(v) == 0) continue;
    for (int k = 0; k < 6; ++k) {
      v = step(v, rng.UniformInt(g.Degree(v)));
      stream.push_back(v);
    }
  }
  return stream;
}

TEST(WalkEngineTest, StreamsBitIdenticalAcrossDecodeVariants) {
  // The tentpole contract: naive per-draw decode and the hub-pinned tier
  // are the same vertex sequence bit for bit. Budgets: every vertex pinned;
  // 64 KiB, which leaves the low-degree tail unpinned; and 4 KiB, which
  // pins only a block-aligned prefix of the top hub, so draws past that
  // prefix fall back to Neighbor().
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(10, 12000, 77));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  const std::vector<NodeId> naive = DrawStream(
      g, [&](NodeId v, uint64_t i) { return g.Neighbor(v, i); });
  for (const uint64_t budget :
       {uint64_t{1} << 30, uint64_t{64} << 10, uint64_t{4} << 10}) {
    const WalkAccel<CompressedGraph> accel = MakeWalkAccel(g, budget);
    ASSERT_FALSE(accel.pinned.empty());
    bool partial = false;
    for (NodeId v = 0; v < g.NumVertices(); ++v) {
      const uint64_t len = accel.pinned.PinnedLen(v);
      partial |= len > 0 && len < g.Degree(v);
    }
    if (budget == (uint64_t{4} << 10)) EXPECT_TRUE(partial);
    WalkContext<CompressedGraph> pinned(accel);
    const std::vector<NodeId> stream = DrawStream(
        g, [&](NodeId v, uint64_t i) { return pinned.Neighbor(g, v, i); });
    ASSERT_EQ(stream, naive) << "budget " << budget;
    EXPECT_GT(pinned.pin_hits(), 0u) << "budget " << budget;
    if (budget < (uint64_t{1} << 30)) {
      EXPECT_GT(pinned.decode_misses(), 0u) << "budget " << budget;
    }
  }
}

TEST(WalkEngineTest, SparsifierBitIdenticalAcrossTiersAndWorkerCounts) {
  // End to end: pinning fully on (a budget pinning every vertex), fully off
  // (every draw decoded), at one worker and at the full pool — all four runs
  // must produce the same sparsifier as the raw-CSR build.
  const CsrGraph csr = SamplerGraph();
  const CompressedGraph cg = CompressedGraph::FromCsr(csr);
  SparsifierOptions opt = BaseOptions();
  auto reference = BuildSparsifier(csr, opt);
  ASSERT_TRUE(reference.ok());
  for (const uint64_t pin_budget : {uint64_t{0}, uint64_t{1} << 30}) {
    opt.walk_pin_budget_bytes = pin_budget;
    auto parallel = BuildSparsifier(cg, opt);
    Result<SparsifierResult> serial = [&] {
      SequentialRegion seq;
      return BuildSparsifier(cg, opt);
    }();
    ASSERT_TRUE(parallel.ok());
    ASSERT_TRUE(serial.ok());
    ExpectEquivalentSparsifiers(*reference, *parallel);
    ExpectEquivalentSparsifiers(*reference, *serial);
  }
}

TEST(WalkEngineTest, HubCachePinsBlockAlignedPrefixesWithinBudget) {
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(10, 12000, 5));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  // A budget well below the full edge set: the cache is built for the
  // skewed regime where pinned vertices are a small fraction of n, which is
  // where the per-pinned-vertex hash index beats any per-vertex array.
  const uint64_t budget = 16 << 10;
  const CompressedGraph::HubCache cache =
      CompressedGraph::HubCache::Build(g, budget);
  ASSERT_FALSE(cache.empty());
  EXPECT_LE(cache.pinned_bytes(), budget);
  EXPECT_GT(cache.pinned_vertices(), 0u);
  EXPECT_LT(cache.pinned_vertices(), g.NumVertices());
  // Every pinned prefix is block-aligned or the whole row, never exceeds
  // the degree, and decodes to exactly the row prefix.
  uint64_t entries = 0;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    const uint64_t len = cache.PinnedLen(v);
    if (len == 0) continue;
    ASSERT_LE(len, g.Degree(v)) << "v=" << v;
    if (len != g.Degree(v)) {
      ASSERT_EQ(len % g.block_size(), 0u) << "v=" << v;
    }
    for (uint64_t i = 0; i < len; ++i) {
      ASSERT_EQ(cache.PinnedNeighbor(v, i), g.Neighbor(v, i))
          << "v=" << v << " i=" << i;
    }
    entries += len;
  }
  EXPECT_EQ(entries, cache.pinned_entries());
  // Small graph: every node id fits 24 bits, so the pool packs at 3 bytes.
  EXPECT_EQ(cache.pool_entry_width(), 3u);
  // Accounting identity: hash index slots + packed entries. The index is
  // power-of-two sized at a load factor of at most 1/2.
  EXPECT_EQ(cache.pinned_bytes(),
            cache.index_slots() * sizeof(CompressedGraph::HubCache::Entry) +
                entries * cache.pool_entry_width());
  // Every index entry carries the exact degree of its vertex (the walk's
  // probe-first Degree() depends on it).
  for (uint64_t s = 0; s < cache.index_slots(); ++s) {
    const CompressedGraph::HubCache::Entry& e = cache.index()[s];
    if (e.key == CompressedGraph::HubCache::kEmptyKey) continue;
    ASSERT_EQ(e.deg, g.Degree(e.key)) << "key=" << e.key;
  }
  EXPECT_GE(cache.index_slots(), 2 * cache.pinned_vertices());
  EXPECT_EQ(cache.index_slots() & (cache.index_slots() - 1), 0u);
  // The degree gate is the smallest pinned degree: admission is degree-
  // descending, so draws on vertices below it can skip the index probe.
  uint64_t min_pinned_degree = ~uint64_t{0};
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if (cache.PinnedLen(v) == 0) continue;
    min_pinned_degree = std::min(min_pinned_degree, g.Degree(v));
  }
  EXPECT_EQ(cache.degree_gate(), min_pinned_degree);
  // The block-granular knapsack must pin strictly more entries than the
  // whole-row greedy packer it replaced (8-byte pointer index, whole rows
  // in (degree desc, id asc) order) under the same budget.
  std::vector<NodeId> order(g.NumVertices());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const uint64_t da = g.Degree(a), db = g.Degree(b);
    return da != db ? da > db : a < b;
  });
  uint64_t old_entries = 0;
  uint64_t old_bytes = static_cast<uint64_t>(g.NumVertices()) * 8;
  for (const NodeId v : order) {
    const uint64_t d = g.Degree(v);
    if (d == 0) break;
    if (old_bytes + d * sizeof(NodeId) > budget) break;
    old_bytes += d * sizeof(NodeId);
    old_entries += d;
  }
  EXPECT_GT(cache.pinned_entries(), old_entries);
  // Deterministic: a rebuild pins the identical prefix set.
  const CompressedGraph::HubCache again =
      CompressedGraph::HubCache::Build(g, budget);
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(cache.PinnedLen(v), again.PinnedLen(v)) << "v=" << v;
  }
}

TEST(WalkEngineTest, HubCacheReservesAndReleasesGovernorBytes) {
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(9, 6000, 8));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  MemoryBudget budget(uint64_t{8} << 20);
  {
    const WalkAccel<CompressedGraph> accel =
        MakeWalkAccel(g, uint64_t{1} << 20, &budget);
    ASSERT_FALSE(accel.pinned.empty());
    // The accounted footprint is reserved against the governor and capped
    // by both the pin budget and a quarter of what was available.
    EXPECT_EQ(budget.reserved_bytes(), accel.pinned.pinned_bytes());
    EXPECT_LE(accel.pinned.pinned_bytes(), uint64_t{1} << 20);
    EXPECT_LE(accel.pinned.pinned_bytes(), (uint64_t{8} << 20) / 4);
  }
  // Destroying the accel releases the reservation.
  EXPECT_EQ(budget.reserved_bytes(), 0u);
  // A budget too small for even the minimum hash index plus one entry
  // yields an empty cache, not a failed reservation. (The quarter cap makes
  // the effective spend 64 bytes here — below the 8-slot index.)
  MemoryBudget tiny(256);
  const WalkAccel<CompressedGraph> none = MakeWalkAccel(g, 1 << 20, &tiny);
  EXPECT_TRUE(none.pinned.empty());
  EXPECT_EQ(tiny.reserved_bytes(), 0u);
}

TEST(WalkEngineTest, BatchDecodeMatchesMapNeighbors) {
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(9, 8000, 13));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  std::vector<NodeId> block(g.block_size());
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    const uint64_t d = g.Degree(v);
    if (d == 0) continue;
    std::vector<NodeId> expect;
    expect.reserve(d);
    g.MapNeighbors(v, [&](NodeId u) { expect.push_back(u); });
    uint64_t seen = 0;
    const uint64_t nblocks = (d + g.block_size() - 1) / g.block_size();
    for (uint64_t b = 0; b < nblocks; ++b) {
      const uint64_t len = g.DecodeBlock(v, b, block.data());
      ASSERT_GT(len, 0u);
      for (uint64_t k = 0; k < len; ++k) {
        ASSERT_EQ(block[k], expect[seen + k]) << "v=" << v << " b=" << b;
      }
      seen += len;
    }
    ASSERT_EQ(seen, d);
  }
}

TEST(WalkEngineTest, WalkCountersReachMetricsRegistry) {
  const CsrGraph csr = CsrGraph::FromEdges(GenerateRmat(9, 6000, 31));
  const CompressedGraph g = CompressedGraph::FromCsr(csr);
  MetricsRegistry::Global().ResetForTest();
  uint64_t pin_hits = 0, misses = 0, draws = 0;
  {
    // A partial pin: some draws hit the pinned tier, the rest decode.
    const WalkAccel<CompressedGraph> accel = MakeWalkAccel(g, 16 << 10);
    WalkContext<CompressedGraph> ctx(accel);
    draws = DrawStream(g, [&](NodeId v, uint64_t i) {
              return ctx.Neighbor(g, v, i);
            }).size();
    pin_hits = ctx.pin_hits();
    misses = ctx.decode_misses();
  }  // destructor publishes the counters
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("walk/pin_hits"), pin_hits);
  EXPECT_EQ(snap.CounterValue("walk/decode_misses"), misses);
  // Every draw is counted exactly once, by the tier that served it.
  EXPECT_EQ(pin_hits + misses, draws);
  EXPECT_GT(snap.GaugeValue("walk/pinned_bytes"), 0u);
  EXPECT_GT(snap.GaugeValue("walk/pinned_vertices"), 0u);
  EXPECT_GT(pin_hits, 0u);
  EXPECT_GT(misses, 0u);
}

// -------------------------------------------------- edge-balanced schedule ----

TEST(SchedulingTest, EdgeBalancedBoundariesPartitionAndBalance) {
  const CsrGraph g = SamplerGraph();
  const uint64_t chunks = 32;
  const std::vector<NodeId> bounds =
      internal::EdgeBalancedBoundaries(g, chunks);
  ASSERT_EQ(bounds.size(), chunks + 1);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), g.NumVertices());
  uint64_t total = 0, max_degree = 0;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    total += g.Degree(v) + 1;
    max_degree = std::max(max_degree, g.Degree(v));
  }
  uint64_t max_chunk = 0;
  for (uint64_t cidx = 0; cidx < chunks; ++cidx) {
    ASSERT_LE(bounds[cidx], bounds[cidx + 1]);
    uint64_t work = 0;
    for (NodeId v = bounds[cidx]; v < bounds[cidx + 1]; ++v) {
      work += g.Degree(v) + 1;
    }
    max_chunk = std::max(max_chunk, work);
  }
  // A chunk can exceed the ideal share by at most one vertex's work (the
  // boundary vertex is indivisible).
  EXPECT_LE(max_chunk, total / chunks + max_degree + 1);
}

TEST(SchedulingTest, BoundariesHandleDegenerateShapes) {
  // chunks > vertices and a graph with an isolated-vertex tail.
  EdgeList list;
  list.num_vertices = 5;
  list.Add(0, 1);
  const CsrGraph g = CsrGraph::FromEdges(list);
  const std::vector<NodeId> bounds = internal::EdgeBalancedBoundaries(g, 4);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 5u);
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    EXPECT_LE(bounds[i], bounds[i + 1]);
  }
}

}  // namespace
}  // namespace lightne
