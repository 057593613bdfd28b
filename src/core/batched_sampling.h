// Step-synchronous batched PathSampling — the locality optimization the
// paper sketches as future work (§4.2: batching multiple random walks that
// access the same or nearby vertices, at the cost of shuffling data between
// steps).
//
// Instead of running each sample's walk to completion (random access to a
// different adjacency list at every step), all active walks advance one step
// per round, and before each round the walk tasks are counting-sorted by
// their current vertex so walks parked at the same vertex touch its
// adjacency together. The trade: O(#active walks) extra memory and a shuffle
// per round — exactly the overhead-vs-locality balance the paper left open.
// bench_batched_walks measures both sides.
//
// Randomness is derived per (sample, side, step), so results are independent
// of scheduling; the estimator is identical in distribution to
// BuildSparsifier's (verified against the dense NetMF matrix in tests).
#ifndef LIGHTNE_CORE_BATCHED_SAMPLING_H_
#define LIGHTNE_CORE_BATCHED_SAMPLING_H_

#include <vector>

#include "core/sparsifier.h"
#include "util/thread_annotations.h"

namespace lightne {

namespace internal {

struct WalkTask {
  NodeId current;
  uint32_t remaining;
  uint32_t sample;  // index into the per-sample endpoint arrays
  uint32_t side;    // 0 = u-walk, 1 = v-walk
};

}  // namespace internal

/// Batched-walk variant of BuildSparsifier. Same options and result shape;
/// `table_bytes` reports the walk-state footprint plus the hash table.
template <GraphView G>
Result<SparsifierResult> BuildSparsifierBatched(const G& g,
                                                const SparsifierOptions& opt) {
  const NodeId n = g.NumVertices();
  if (g.NumDirectedEdges() == 0) {
    return Status::InvalidArgument("graph has no edges");
  }
  if (opt.num_samples == 0) {
    return Status::InvalidArgument("num_samples must be positive");
  }
  const double c = opt.downsample_constant > 0
                       ? opt.downsample_constant
                       : std::log(static_cast<double>(n));
  const double per_unit = static_cast<double>(opt.num_samples) / g.Volume();

  // --- Phase 1: enumerate accepted samples and their walk tasks -----------
  struct Sample {
    NodeId u_end, v_end;
    float inv_p;
  };
  std::vector<Sample> samples;
  std::vector<internal::WalkTask> tasks;
  uint64_t drawn = 0;
  {
    Mutex mu;
    ParallelForWorkers([&](int worker, int workers) {
      std::vector<Sample> local_samples;
      std::vector<internal::WalkTask> local_tasks;
      uint64_t local_drawn = 0;
      const NodeId lo = static_cast<NodeId>(
          static_cast<uint64_t>(n) * worker / workers);
      const NodeId hi = static_cast<NodeId>(
          static_cast<uint64_t>(n) * (worker + 1) / workers);
      for (NodeId u = lo; u < hi; ++u) {
        MapNeighborsWeighted(g, u, [&](NodeId v, float w) {
          Rng rng(HashCombine64(PackEdge(u, v), opt.seed));
          const double intensity = per_unit * static_cast<double>(w);
          uint64_t ne = static_cast<uint64_t>(intensity);
          if (rng.Bernoulli(intensity - std::floor(intensity))) ++ne;
          local_drawn += ne;
          const double pe =
              opt.downsample ? internal::DownsampleProbability(g, u, v, c, w)
                             : 1.0;
          for (uint64_t i = 0; i < ne; ++i) {
            const uint64_t r = 1 + rng.UniformInt(opt.window);
            // opt.downsample is fixed for the whole run; the per-edge rng
            // replays from a counter seed either way.
            if (opt.downsample && !rng.Bernoulli(pe)) continue;  // lint-ok: rngflow (run-constant guard)
            const uint64_t s = rng.UniformInt(r);
            Sample sample{u, v, static_cast<float>(1.0 / pe)};
            const uint32_t id = static_cast<uint32_t>(local_samples.size());
            local_samples.push_back(sample);
            if (s > 0) {
              local_tasks.push_back(
                  {u, static_cast<uint32_t>(s), id, 0});
            }
            if (r - 1 - s > 0) {
              local_tasks.push_back(
                  {v, static_cast<uint32_t>(r - 1 - s), id, 1});
            }
          }
        });
      }
      MutexLock lock(mu);
      const uint32_t base = static_cast<uint32_t>(samples.size());
      for (auto& t : local_tasks) t.sample += base;
      samples.insert(samples.end(), local_samples.begin(),
                     local_samples.end());
      tasks.insert(tasks.end(), local_tasks.begin(), local_tasks.end());
      drawn += local_drawn;
    });
  }
  const uint64_t walk_state_bytes =
      samples.capacity() * sizeof(Sample) +
      tasks.capacity() * sizeof(internal::WalkTask);

  // --- Phase 2: step-synchronous rounds ------------------------------------
  std::vector<internal::WalkTask> sorted(tasks.size());
  uint32_t step = 0;
  while (!tasks.empty()) {
    ++step;
    // Counting sort by current vertex (the locality shuffle).
    std::vector<std::atomic<uint64_t>> count(n);
    ParallelFor(0, n, [&](uint64_t v) {
      count[v].store(0, std::memory_order_relaxed);
    });
    ParallelFor(0, tasks.size(), [&](uint64_t t) {
      count[tasks[t].current].fetch_add(1, std::memory_order_relaxed);
    });
    std::vector<uint64_t> offset(n + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      offset[v + 1] = offset[v] + count[v].load(std::memory_order_relaxed);
    }
    std::vector<std::atomic<uint64_t>> cursor(n);
    ParallelFor(0, n, [&](uint64_t v) {
      cursor[v].store(offset[v], std::memory_order_relaxed);
    });
    sorted.resize(tasks.size());
    ParallelFor(0, tasks.size(), [&](uint64_t t) {
      const uint64_t slot = cursor[tasks[t].current].fetch_add(
          1, std::memory_order_relaxed);
      sorted[slot] = tasks[t];
    });
    // Advance one step in vertex order; finished walks record endpoints.
    std::vector<uint8_t> done(sorted.size());
    ParallelFor(
        0, sorted.size(),
        [&](uint64_t t) {
          internal::WalkTask& task = sorted[t];
          Rng rng(HashCombine64(
              HashCombine64(opt.seed ^ 0xBA7C4ull,
                            (static_cast<uint64_t>(task.sample) << 1) |
                                task.side),
              step));
          WalkContext<G> ctx;
          task.current = SampleNeighborProportional(g, ctx, task.current, rng);
          --task.remaining;
          done[t] = task.remaining == 0 ? 1 : 0;
          if (done[t]) {
            Sample& sample = samples[task.sample];
            (task.side == 0 ? sample.u_end : sample.v_end) = task.current;
          }
        },
        /*grain=*/512);
    tasks = ParallelPack<internal::WalkTask>(
        sorted.size(), [&](uint64_t t) { return done[t] == 0; },
        [&](uint64_t t) { return sorted[t]; });
  }

  // --- Phase 3: aggregate ---------------------------------------------------
  std::vector<std::pair<uint64_t, double>> records(samples.size());
  ParallelFor(0, samples.size(), [&](uint64_t i) {
    const Sample& sample = samples[i];
    const NodeId a = sample.u_end, b = sample.v_end;
    const uint64_t key = a <= b ? PackEdge(a, b) : PackEdge(b, a);
    records[i] = {key, (a == b ? 2.0 : 1.0) * sample.inv_p};
  });
  SparsifierResult result;
  result.samples_drawn = drawn;
  result.samples_accepted = samples.size();
  const std::vector<std::pair<uint64_t, double>> canonical =
      SortHistogram(std::move(records));
  result.distinct_entries = canonical.size();
  result.table_bytes = walk_state_bytes;
  result.matrix = internal::CanonicalToCsr(n, canonical);
  return result;
}

}  // namespace lightne

#endif  // LIGHTNE_CORE_BATCHED_SAMPLING_H_
