#include "graph/weighted_csr.h"

#include <algorithm>

#include "parallel/sort.h"

namespace lightne {

WeightedCsrGraph WeightedCsrGraph::FromEdges(WeightedEdgeList list) {
  // Symmetrize.
  const size_t raw = list.edges.size();
  list.edges.reserve(2 * raw);
  for (size_t i = 0; i < raw; ++i) {
    const auto [u, v, w] = list.edges[i];
    list.edges.emplace_back(v, u, w);
  }
  // Sort by (src, dst); duplicates become adjacent.
  ParallelSort(list.edges.data(), list.edges.size(),
               [](const auto& a, const auto& b) {
                 return std::make_pair(std::get<0>(a), std::get<1>(a)) <
                        std::make_pair(std::get<0>(b), std::get<1>(b));
               });

  WeightedCsrGraph g;
  g.num_vertices_ = list.num_vertices;
  g.offsets_.assign(static_cast<size_t>(g.num_vertices_) + 1, 0);
  // Single sequential pass: advance per-source offsets, merge duplicate
  // (u, v) runs by summing weights, drop self loops. (The parallel sort
  // above dominates the cost.)
  NodeId next_source = 0;  // offsets_[0..next_source] are finalized
  for (const auto& [u, v, w] : list.edges) {
    LIGHTNE_CHECK_LT(u, g.num_vertices_);
    LIGHTNE_CHECK_LT(v, g.num_vertices_);
    LIGHTNE_CHECK_GT(w, 0.0f);
    if (u == v) continue;
    while (next_source < u) {
      g.offsets_[++next_source] = g.neighbors_.size();
    }
    const bool duplicate = g.neighbors_.size() > g.offsets_[u] &&
                           next_source == u && g.neighbors_.back() == v;
    if (duplicate) {
      g.weights_.back() += w;
    } else {
      g.neighbors_.push_back(v);
      g.weights_.push_back(w);
    }
  }
  while (next_source < g.num_vertices_) {
    g.offsets_[++next_source] = g.neighbors_.size();
  }

  // Cumulative weights and weighted degrees.
  g.cumulative_.resize(g.weights_.size());
  g.weighted_degree_.assign(g.num_vertices_, 0.0);
  ParallelFor(0, g.num_vertices_, [&](uint64_t v) {
    double running = 0;
    for (uint64_t k = g.offsets_[v]; k < g.offsets_[v + 1]; ++k) {
      running += g.weights_[k];
      g.cumulative_[k] = running;
    }
    g.weighted_degree_[v] = running;
  });
  double total = 0;
  for (NodeId v = 0; v < g.num_vertices_; ++v) {
    total += g.weighted_degree_[v];
  }
  g.total_weight_ = total;
  return g;
}

}  // namespace lightne
