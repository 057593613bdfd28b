// End-to-end benchmark program: builds one workload's inputs from a seed,
// embeds them with RunLightNe, checks the outputs, serves top-k queries from
// an int8 store of the embedding, and prints one JSON object as its last line
// of standard output (run.py turns it into the benchmark's result line).
//
//   lightne_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics with trace recording disabled.
// --trace 1 embeds untraced, traced, and untraced again (the tracing overhead
// is the traced time minus the untraced mean), and derives the per-layer
// metrics from the spans this file records around each library call, the
// library's own stage spans, and MetricsRegistry counter deltas across each
// call. It also times, once, the layers the workload's embedding bypasses.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "core/embedding_store.h"
#include "core/lightne.h"
#include "core/query_engine.h"
#include "core/spectral_propagation.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "data/labels.h"
#include "eval/classification.h"
#include "eval/link_prediction.h"
#include "graph/compressed.h"
#include "graph/csr.h"
#include "graph/edge_list.h"
#include "graph/varint_simd.h"
#include "parallel/concurrent_hash_table.h"
#include "parallel/parallel_for.h"
#include "util/cli.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/timer.h"
#include "util/trace.h"

namespace {

using namespace lightne;  // NOLINT
using perfbench::Interval;
using perfbench::Median;
using perfbench::Percentile;
using perfbench::Ratio;
using perfbench::SelfMicros;

// ---------------------------------------------------------------------------
// Workloads. BENCHMARK.json says in one line why each was chosen; the
// per-layer metric each one is meant to move is listed in perfbench/README.md.

struct Workload {
  const char* name;
  bool rmat;            // RMAT; else OAG-sim SBM with community labels
  NodeId sbm_n;         // SBM vertex count (0 = the OAG-sim registry size)
  EdgeId sbm_edges;     // SBM sampled pairs (0 = registry size)
  int rmat_scale;
  EdgeId rmat_edges;
  double test_fraction;  // held-out share of undirected edges (0: none)
  bool compressed;       // embed the parallel-byte compressed graph
  uint64_t dim;
  uint32_t window;
  double samples_ratio;
  bool propagation;
};

// oag-large: Table 5's graph at a quarter of LightNE-Large's samples, where
// the sparsifier and its hash table dominate. oag-small: half the OAG-sim
// registry graph at LightNE-Small settings, where rSVD and propagation
// dominate. rmat-compressed: the §5.3 billion_scale recipe, the only run of
// the compressed walk engine and the only skewed key stream. The two OAG
// graphs are smaller than Table 5 and the registry so that one run repeats
// each embedding several times: single embeddings on a shared 4-vCPU host
// vary by about 7%. Every workload serves its embedding from an int8 store,
// so that each reports every end-to-end metric.
constexpr Workload kWorkloads[] = {
    {.name = "oag-large", .rmat = false, .sbm_n = 20000, .sbm_edges = 200000,
     .rmat_scale = 0, .rmat_edges = 0, .test_fraction = 0,
     .compressed = false, .dim = 64, .window = 10, .samples_ratio = 5.0,
     .propagation = true},
    {.name = "oag-small", .rmat = false, .sbm_n = 75000, .sbm_edges = 750000,
     .rmat_scale = 0, .rmat_edges = 0, .test_fraction = 0,
     .compressed = false, .dim = 128, .window = 10, .samples_ratio = 0.1,
     .propagation = true},
    {.name = "rmat-compressed", .rmat = true, .sbm_n = 0, .sbm_edges = 0,
     .rmat_scale = 19, .rmat_edges = 4000000, .test_fraction = 1e-3,
     .compressed = true, .dim = 32, .window = 2, .samples_ratio = 0.5,
     .propagation = false},
};

// Set-up repeats until this much of it is measured (at least 3 times), so
// the median of a 40 ms set-up is as steady as that of a 1 s one.
constexpr double kSetupSeconds = 2.0;
constexpr size_t kMinSetups = 3;
constexpr uint32_t kCompressBlock = 64;
constexpr uint64_t kQueryBatch = 16;
constexpr uint64_t kTopK = 10;
constexpr uint64_t kRequests = 200;        // per round; p95 has 10 beyond it
constexpr double kServeSeconds = 5.0;      // rounds run until this is measured
constexpr uint64_t kOracleRequests = 2;    // checked against NaiveTopK
constexpr uint64_t kRecallRequests = 16;   // checked against exact fp32
static_assert(kOracleRequests <= kRecallRequests &&
              kRecallRequests <= kRequests);
constexpr uint32_t kRankingNegatives = 500;
constexpr double kTrainRatio = 0.5;

// Independent streams derived from the workload seed.
enum Stream : uint64_t { kGraph = 1, kLabels, kSplit, kEval, kQueries };
uint64_t SeedFor(uint64_t seed, Stream s) { return HashCombine64(seed, s); }

// ---------------------------------------------------------------------------
// Result bookkeeping.

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> quality;
  std::vector<std::string> notes;

  // Counts one operation; a false `ok` is a failed operation.
  bool Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
      std::fprintf(stderr, "lightne_bench: FAILED %s\n", what.c_str());
    }
    return ok;
  }
  bool Op(const Status& s, const std::string& what) {
    return Op(s.ok(), s.ok() ? what : what + ": " + s.ToString());
  }
  void Metric(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void MetricIf(const std::string& name, std::optional<double> value,
                const char* unit) {
    if (value) Metric(name, *value, unit);
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Machine stamp.

uint64_t LlcBytes() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return llc > 0 ? static_cast<uint64_t>(llc) : 0;
}

const char* SimdIsa() {
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("ssse3")) return "ssse3";
  return "scalar";
}

std::string StampJson(const std::string& git_sha, const Workload& w,
                      uint64_t seed, int trace) {
  std::string s = "{";
  s += "\"git_sha\": " + JsonString(git_sha);
  s += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ", \"llc_bytes\": " + std::to_string(LlcBytes());
  s += ", \"simd_isa\": " + JsonString(SimdIsa());
  s += ", \"varint_backend\": " + JsonString(VarintBackendName());
  s += ", \"pool_workers\": " + std::to_string(NumWorkers());
  s += ", \"workload\": " + JsonString(w.name);
  s += ", \"seed\": " + std::to_string(seed);
  s += ", \"trace\": " + std::to_string(trace);
  return s + "}";
}

// ---------------------------------------------------------------------------
// Memory attribution: VmHWM reset just before a call, read just after.

// Returns false when the high-water mark cannot be reset, in which case the
// peak of the call is unavailable (the process-lifetime peak is not a
// substitute: it includes set-up and earlier repetitions).
bool ResetPeakRss() {
  // Freed heap from earlier repetitions would otherwise stay resident and
  // count towards this call's mark.
  malloc_trim(0);
  const int fd = open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = write(fd, "5", 1) == 1;
  close(fd);
  return ok;
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Trace slicing.

double SecondsOf(const std::vector<TraceEvent>& events,
                 const std::string& name) {
  return TraceRecorder::SecondsFor(events, name);
}

bool HasSpan(const std::vector<TraceEvent>& events, const std::string& name) {
  return std::any_of(events.begin(), events.end(),
                     [&](const TraceEvent& e) { return e.name == name; });
}

// Sum over spans named `name` of their self time: duration minus the part
// covered by the spans nested directly inside them on the same thread.
double SelfSecondsOf(const std::vector<TraceEvent>& events,
                     const std::string& name) {
  uint64_t self_us = 0;
  for (const TraceEvent& p : events) {
    if (p.name != name) continue;
    const Interval parent{p.start_us, p.start_us + p.dur_us};
    std::vector<Interval> children;
    for (const TraceEvent& c : events) {
      if (&c == &p || c.tid != p.tid || c.depth != p.depth + 1) continue;
      if (c.start_us < parent.start || c.start_us >= parent.end) continue;
      children.push_back({c.start_us, c.start_us + c.dur_us});
    }
    self_us += SelfMicros(parent, std::move(children));
  }
  return static_cast<double>(self_us) * 1e-6;
}

uint64_t CounterDelta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const std::string& name) {
  return after.CounterValue(name) - before.CounterValue(name);
}

// ---------------------------------------------------------------------------
// Set-up: generate, build the CSR, compress.

struct Inputs {
  CsrGraph csr;
  std::optional<CompressedGraph> compressed;
  MultiLabels labels;                                 // SBM workloads
  std::vector<std::pair<NodeId, NodeId>> held_out;    // RMAT workload
  double seconds = 0;
};

// The spans opened here are this file's, around the data and graph layers'
// public calls; with recording disabled they only measure.
Inputs Setup(const Workload& w, uint64_t seed) {
  Inputs in;
  TraceSpan total("bench/setup");
  EdgeList raw;
  {
    TraceSpan span("data/generate");
    if (!w.rmat) {
      // BuildDataset's generator and labels; the CSR is built below, apart,
      // so that generation and construction are timed as separate layers.
      DatasetSpec spec = *FindDataset("OAG-sim");
      if (w.sbm_n != 0) spec.n = w.sbm_n;
      if (w.sbm_edges != 0) spec.sampled_edges = w.sbm_edges;
      std::vector<NodeId> community;
      raw = GenerateSbm(spec.n, spec.communities, spec.sampled_edges,
                        spec.intra_fraction, SeedFor(seed, kGraph),
                        &community);
      in.labels = LabelsFromCommunities(community, spec.communities,
                                        spec.extra_label_prob,
                                        SeedFor(seed, kLabels));
    } else {
      raw = GenerateRmat(w.rmat_scale, w.rmat_edges, SeedFor(seed, kGraph));
    }
  }
  {
    TraceSpan span("graph/build_csr");
    SymmetrizeAndClean(&raw);
  }
  if (w.test_fraction > 0) {
    EdgeSplit split;
    {
      TraceSpan span("data/generate");
      split = SplitEdges(raw, w.test_fraction, SeedFor(seed, kSplit));
    }
    raw = std::move(split.train);
    in.held_out = std::move(split.test_positives);
  }
  {
    TraceSpan span("graph/build_csr");
    in.csr = CsrGraph::FromCleanEdgeList(raw);
  }
  if (w.compressed) {
    TraceSpan span("graph/compress");
    in.compressed = CompressedGraph::FromCsr(in.csr, kCompressBlock);
  }
  in.seconds = total.Seconds();
  return in;
}

// ---------------------------------------------------------------------------
// Embedding.

struct Embed {
  Result<LightNeResult> result = Status::Internal("not run");
  double seconds = 0;
  std::optional<double> peak_rss_mb;
  uint64_t checksum = 0;
};

Embed RunEmbed(const Workload& w, const Inputs& in) {
  LightNeOptions opt;  // seed stays at its default
  opt.dim = w.dim;
  opt.window = w.window;
  opt.samples_ratio = w.samples_ratio;
  opt.spectral_propagation = w.propagation;
  Embed e;
  const bool rss_reset = ResetPeakRss();
  {
    TraceSpan span("bench/embed");
    e.result = in.compressed ? RunLightNe(*in.compressed, opt)
                             : RunLightNe(in.csr, opt);
    e.seconds = span.Seconds();
  }
  if (rss_reset) e.peak_rss_mb = static_cast<double>(PeakRssBytes()) / kMiB;
  if (e.result.ok()) {
    e.checksum = EmbeddingStore::Fingerprint(e.result->embedding);
  }
  return e;
}

bool EmbeddingWellFormed(const Matrix& m, uint64_t rows, uint64_t cols) {
  if (m.rows() != rows || m.cols() != cols) return false;
  const float* p = m.data();
  for (uint64_t i = 0; i < rows * cols; ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Serving: int8 store, closed-loop TopKByVertex, oracle and recall checks.

struct Serving {
  double write_s = 0;
  double open_s = 0;
  uint64_t store_bytes = 0;
  // One entry per round of kRequests requests.
  std::vector<double> qps;
  std::vector<double> p50_ms;
  std::vector<double> p95_ms;
  double loop_s = 0;
  std::optional<double> recall;
};

// Exact top-k over the fp32 embedding rows of each row in `queries`, scored
// in double; ties broken by ascending id. One pass over the rows serves the
// whole batch, so the embedding is streamed once per batch, not per query.
std::vector<std::vector<NodeId>> ExactTopK(const Matrix& emb,
                                           const std::vector<NodeId>& queries,
                                           uint64_t k) {
  using Scored = std::pair<double, NodeId>;
  const uint64_t d = emb.cols();
  // Best first; a row enters only if it beats the current k-th. Rows arrive
  // in ascending id, so a tie with the k-th never enters.
  std::vector<std::vector<Scored>> best(queries.size());
  for (uint64_t r = 0; r < emb.rows(); ++r) {
    const float* row = emb.Row(r);
    for (size_t q = 0; q < queries.size(); ++q) {
      const float* query = emb.Row(queries[q]);
      // Four partial sums, so that the loop is not one dependency chain.
      double part[4] = {0, 0, 0, 0};
      uint64_t j = 0;
      for (; j + 4 <= d; j += 4) {
        for (uint64_t l = 0; l < 4; ++l) {
          part[l] += static_cast<double>(query[j + l]) * row[j + l];
        }
      }
      for (; j < d; ++j) part[0] += static_cast<double>(query[j]) * row[j];
      const double dot = (part[0] + part[1]) + (part[2] + part[3]);
      std::vector<Scored>& top = best[q];
      if (top.size() == k && dot <= top.back().first) continue;
      const auto at = std::find_if(top.begin(), top.end(),
                                   [&](const Scored& b) { return dot > b.first; });
      top.insert(at, {dot, static_cast<NodeId>(r)});
      if (top.size() > k) top.pop_back();
    }
  }
  std::vector<std::vector<NodeId>> ids(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const Scored& b : best[q]) ids[q].push_back(b.second);
  }
  return ids;
}

bool SameResults(const std::vector<ScoredNeighbor>& a,
                 const std::vector<ScoredNeighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

Serving Serve(const CsrGraph& g, const Matrix& emb, const std::string& path,
              uint64_t seed, Report* report) {
  Serving s;
  {
    TraceSpan span("core/store_write");
    const Status written = EmbeddingStore::Write(emb, path, QuantKind::kInt8);
    s.write_s = span.Seconds();
    if (!report->Op(written, "EmbeddingStore::Write")) return s;
  }
  std::optional<Result<EmbeddingStore>> opened;
  {
    TraceSpan span("core/store_open");
    opened.emplace(EmbeddingStore::OpenValidated(
        path, EmbeddingStore::Fingerprint(emb)));
    s.open_s = span.Seconds();
  }
  if (!report->Op(opened->status(), "EmbeddingStore::OpenValidated")) {
    return s;
  }
  const EmbeddingStore& store = **opened;
  s.store_bytes = store.store_bytes();
  const QueryEngine engine(&store);

  // Query ids are vertices with at least one edge. An isolated vertex (RMAT
  // leaves many) embeds to a zero row: every row ties with every other for
  // it, so its top-k is arbitrary and recall against it meaningless.
  std::vector<NodeId> present;
  for (NodeId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > 0) present.push_back(v);
  }
  // Closed loop, one caller: the next request is issued only after the
  // previous one returned. Rounds run until kServeSeconds are measured, and
  // each round gives one rate and one latency percentile per metric, whose
  // medians are reported, so that a stall of the host moves one round only.
  // The first round's requests are the checked ones.
  Rng rng(SeedFor(seed, kQueries));
  std::vector<std::vector<NodeId>> checked;
  // Results of the checked requests; empty if one failed.
  std::vector<std::vector<std::vector<ScoredNeighbor>>> kept(kRecallRequests);
  std::vector<double> latencies_ms(kRequests);
  Timer loop;
  do {
    std::vector<std::vector<NodeId>> requests(kRequests);
    for (auto& ids : requests) {
      ids.resize(kQueryBatch);
      for (NodeId& id : ids) id = present[rng.UniformInt(present.size())];
    }
    const bool first = checked.empty();
    Timer round;
    for (uint64_t r = 0; r < kRequests; ++r) {
      Timer t;
      auto result = engine.TopKByVertex(requests[r], kTopK);
      latencies_ms[r] = t.Millis();
      if (!report->Op(result.status(), "QueryEngine::TopKByVertex")) continue;
      if (first && r < kRecallRequests) kept[r] = std::move(*result);
    }
    s.qps.push_back(static_cast<double>(kRequests * kQueryBatch) /
                    round.Seconds());
    s.p50_ms.push_back(Percentile(latencies_ms, 0.50));
    s.p95_ms.push_back(Percentile(latencies_ms, 0.95));
    if (first) checked = std::move(requests);
  } while (loop.Seconds() < kServeSeconds);
  s.loop_s = loop.Seconds();
  for (const auto& lists : kept) {
    if (lists.size() != kQueryBatch) return s;  // already counted as failed
  }

  // Engine results equal the kept-compiled oracle, ids and score bits.
  std::vector<float> query(store.dims());
  for (uint64_t r = 0; r < kOracleRequests; ++r) {
    bool same = true;
    for (uint64_t q = 0; q < kQueryBatch; ++q) {
      store.DequantizeRow(checked[r][q], query.data());
      same = same && SameResults(kept[r][q],
                                 NaiveTopK(store, query.data(), kTopK));
    }
    report->Op(same, "TopKByVertex equals NaiveTopK");
  }

  // Recall of the served int8 answers against exact fp32 top-k.
  std::vector<uint64_t> hits(kRecallRequests, 0);
  ParallelFor(0, kRecallRequests, [&](uint64_t r) {
    const std::vector<std::vector<NodeId>> exact =
        ExactTopK(emb, checked[r], kTopK);
    for (uint64_t q = 0; q < kQueryBatch; ++q) {
      for (const ScoredNeighbor& n : kept[r][q]) {
        hits[r] += std::count(exact[q].begin(), exact[q].end(), n.id);
      }
    }
  }, /*grain=*/1);
  uint64_t total = 0;
  for (uint64_t h : hits) total += h;
  const uint64_t nq = kRecallRequests * kQueryBatch;
  s.recall = static_cast<double>(total) / static_cast<double>(nq * kTopK);
  return s;
}

// ---------------------------------------------------------------------------
// Quality (the eval layer is only the check, never measured). The values are
// held against the floors of config.json and shown in the stamp, not
// reported as metrics: micro_f1 needs labels and hits_at_10 held-out edges,
// and every metric of the result has to exist on every workload.

void Quality(const Workload& w, const Inputs& in, const Matrix& emb,
             uint64_t seed, Report* report) {
  if (!w.rmat) {
    const F1Scores f1 = EvaluateNodeClassification(emb, in.labels, kTrainRatio,
                                                   SeedFor(seed, kEval));
    report->quality["micro_f1"] = f1.micro;
  }
  if (!in.held_out.empty()) {
    const RankingMetrics m = EvaluateRanking(emb, in.held_out,
                                             kRankingNegatives, {10},
                                             SeedFor(seed, kEval));
    report->quality["hits_at_10"] = m.hits_at[0];
  }
}

// ---------------------------------------------------------------------------
// Layers a workload's embedding bypasses, measured once in the traced run on
// that workload's own input, outside set-up and RunLightNe: compression of a
// CSR workload's graph, and propagation of an embedding made without it. So
// every workload reports every layer's time, and a change to a layer shows
// on each graph; neither call feeds setup_s, embed_s or the served store.

struct Bypassed {
  std::vector<TraceEvent> events;  // "graph/compress", "propagation" + substages
  uint64_t compressed_bytes = 0;
};

Bypassed MeasureBypassedLayers(const Workload& w, const Inputs& in,
                               const Matrix& emb, Report* report) {
  TraceRecorder& recorder = TraceRecorder::Global();
  const uint64_t mark = recorder.Mark();
  Bypassed b;
  if (!w.compressed) {
    TraceSpan span("graph/compress");
    b.compressed_bytes = CompressedGraph::FromCsr(in.csr, kCompressBlock)
                             .SizeBytes();
  }
  if (!w.propagation) {
    TraceSpan span("propagation");
    const Result<Matrix> propagated =
        in.compressed ? SpectralPropagate(*in.compressed, emb)
                      : SpectralPropagate(in.csr, emb);
    report->Op(propagated.status(), "SpectralPropagate (bypassed layer)");
  }
  b.events = recorder.EventsSince(mark);
  return b;
}

// ---------------------------------------------------------------------------
// Per-layer metrics of one traced embed.

void EmbedLayers(const std::vector<TraceEvent>& ev,
                 const std::vector<TraceEvent>& propagation_ev,
                 const MetricsSnapshot& before, const MetricsSnapshot& after,
                 const LightNeResult& r, Report* report) {
  report->Metric("core.sparsifier_s", SecondsOf(ev, "sparsifier"), "s");
  report->Metric("la.rsvd_s", SecondsOf(ev, "rsvd"), "s");
  for (const char* step :
       {"sketch", "power_iter", "project", "small_svd", "recover"}) {
    report->Metric(std::string("la.rsvd.") + step + "_s",
                   SecondsOf(ev, std::string("rsvd/") + step), "s");
  }
  report->Metric("core.propagation_s", SecondsOf(propagation_ev, "propagation"),
                 "s");
  report->Metric("core.propagation.chebyshev_s",
                 SecondsOf(propagation_ev, "propagation/chebyshev"), "s");
  report->Metric("core.propagation.smoothing_s",
                 SecondsOf(propagation_ev, "propagation/smoothing"), "s");
  // The stage rows plus the root's self time must add up to the root span;
  // a stage span this list does not know about would break the sum.
  const double root = SecondsOf(ev, "lightne");
  const double self = SelfSecondsOf(ev, "lightne");
  const double stages = SecondsOf(ev, "sparsifier") + SecondsOf(ev, "rsvd") +
                        SecondsOf(ev, "propagation");
  report->Metric("core.lightne_s", root, "s");
  report->Metric("core.lightne.self_s", self, "s");
  report->Op(std::abs(stages + self - root) < 1e-5,
             "stage spans and lightne self time add up to the lightne span");

  const auto delta = [&](const char* name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  const SparsifierResult& s = r.sparsifier_stats;
  const double drawn = delta("sparsifier/samples_drawn");
  report->Metric("core.sparsifier.samples_drawn", drawn, "count");
  report->MetricIf("core.sparsifier.accept_ratio",
                   Ratio(delta("sparsifier/samples_accepted"), drawn),
                   "fraction");
  report->Metric("core.sparsifier.distinct_entries",
                 static_cast<double>(s.distinct_entries), "count");
  report->Metric("core.sparsifier.nnz", static_cast<double>(r.sparsifier_nnz),
                 "count");

  // Slot size through the table's public sizing: 32 slots at load 1/2.
  const double slot_bytes = static_cast<double>(
      ConcurrentHashTable<double>::ProjectedMemoryBytes(16, 0.5) / 32);
  report->Metric("parallel.table_bytes", static_cast<double>(s.table_bytes),
                 "B");
  report->MetricIf("parallel.table_occupancy",
                   Ratio(static_cast<double>(s.distinct_entries),
                         static_cast<double>(s.table_bytes) / slot_bytes),
                   "fraction");
  report->Metric("parallel.table_rebuilds", delta("sparsifier/table_rebuilds"),
                 "count");
  const double hits = delta("sparsifier/combiner_hits");
  report->MetricIf("parallel.combiner_hit_ratio",
                   Ratio(hits, hits + delta("sparsifier/table_upserts")),
                   "fraction");

  // The CSR workloads bypass the compressed walk engine: no lookups, so a
  // ratio of 0 and no misses. The gauge is the last compressed graph's, so
  // it is reported only where this call set it.
  const double pin = delta("walk/pin_hits");
  const double misses = delta("walk/decode_misses");
  const double lookups = pin + delta("walk/cold_hits") + misses;
  report->Metric("graph.walk.pin_hit_ratio", Ratio(pin, lookups).value_or(0.0),
                 "fraction");
  report->Metric("graph.walk.decode_misses", misses, "count");
  report->Metric(
      "graph.walk.pinned_bytes",
      lookups > 0 ? static_cast<double>(after.GaugeValue("walk/pinned_bytes"))
                  : 0.0,
      "B");
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  auto cli = CommandLine::Parse(argc, argv);
  if (!cli.ok()) {
    std::fprintf(stderr, "%s\n", cli.status().ToString().c_str());
    return 2;
  }
  const std::string name = cli->GetString("workload");
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  const Workload& w = *found;
  const auto seed = static_cast<uint64_t>(cli->GetInt("seed", 1));
  const double seconds = cli->GetDouble("seconds", 20);
  const int trace = static_cast<int>(cli->GetInt("trace", 0));
  const std::string work_dir = cli->GetString("work-dir", ".");
  const std::string git_sha = cli->GetString("git-sha", "unknown");

  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.set_enabled(trace == 1);
  Report report;

  // ---- set-up, repeated; the last inputs are kept -------------------------
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> setup_layers;
  Inputs in;
  double setup_total = 0;
  while (setup_s.size() < kMinSetups || setup_total < kSetupSeconds) {
    in = Inputs();  // free the previous graph before building the next
    const uint64_t mark = recorder.Mark();
    in = Setup(w, seed);
    setup_s.push_back(in.seconds);
    setup_total += in.seconds;
    const std::vector<TraceEvent> ev = recorder.EventsSince(mark);
    for (const char* span : {"data/generate", "graph/build_csr",
                             "graph/compress"}) {
      if (HasSpan(ev, span)) setup_layers[span].push_back(SecondsOf(ev, span));
    }
  }
  report.Op(in.csr.NumVertices() > 0 && in.csr.NumDirectedEdges() > 0,
            "set-up built a non-empty graph");
  const uint64_t n = in.csr.NumVertices();
  std::fprintf(stderr, "%s: %llu vertices, %llu edges, set-up %.3f s\n",
               w.name, static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(in.csr.NumUndirectedEdges()),
               Median(setup_s));

  // ---- embedding -----------------------------------------------------------
  // Untraced repetitions until `seconds` of embedding are measured; a traced
  // run makes one before the traced one. Only the latest embedding is kept, so
  // no repetition's peak RSS includes an earlier one's result.
  std::vector<double> embed_s;
  std::optional<double> first_peak_mb;
  std::optional<uint64_t> reference;  // checksum of the first embedding
  Embed untraced;
  {
    const bool was = recorder.enabled();
    recorder.set_enabled(false);
    double measured = 0;
    int reps = 0;
    do {
      untraced = Embed();
      untraced = RunEmbed(w, in);
      ++reps;
      measured += untraced.seconds;
      std::fprintf(stderr, "%s: embed %d took %.3f s, peak %.1f MiB\n",
                   w.name, reps, untraced.seconds,
                   untraced.peak_rss_mb.value_or(0.0));
      if (!report.Op(untraced.result.status(), "RunLightNe")) break;
      embed_s.push_back(untraced.seconds);
      // Memory is that of the first call, the one a process embedding once
      // sees: later calls start with the library's per-thread arenas grown.
      if (reps == 1) first_peak_mb = untraced.peak_rss_mb;
      report.Op(EmbeddingWellFormed(untraced.result->embedding, n, w.dim),
                "embedding is n x d and finite");
      if (!reference) reference = untraced.checksum;
      report.Op(untraced.checksum == *reference,
                "repeated embeddings are bit-identical");
    } while (trace == 0 && measured < seconds);
    recorder.set_enabled(was);
  }
  if (!embed_s.empty() && !first_peak_mb) {
    report.notes.push_back(
        "peak_rss_mb unavailable: /proc/self/clear_refs is not writable");
  }

  std::optional<Embed> traced;
  MetricsSnapshot before;
  MetricsSnapshot after;
  std::vector<TraceEvent> embed_events;
  Bypassed bypassed;
  if (trace == 1) {
    const double untraced_s = untraced.seconds;
    untraced = Embed();
    before = MetricsRegistry::Global().Snapshot();
    const uint64_t mark = recorder.Mark();
    traced = RunEmbed(w, in);
    embed_events = recorder.EventsSince(mark);
    after = MetricsRegistry::Global().Snapshot();
    // One more untraced call after the traced one: calls late in a process
    // run faster than early ones, and the mean of the two untraced calls
    // cancels that drift out of the overhead.
    recorder.set_enabled(false);
    const Embed again = RunEmbed(w, in);
    recorder.set_enabled(true);
    const bool again_ok = report.Op(again.result.status(), "RunLightNe");
    if (report.Op(traced->result.status(), "RunLightNe (traced)") &&
        reference && again_ok) {
      report.Op(traced->checksum == *reference &&
                    again.checksum == *reference,
                "traced embedding equals the untraced ones");
      const double untraced_mean = 0.5 * (untraced_s + again.seconds);
      report.Metric("core.trace_overhead_s", traced->seconds - untraced_mean,
                    "s");
      bypassed = MeasureBypassedLayers(w, in, traced->result->embedding,
                                       &report);
      report.notes.push_back("traced embed " +
                             std::to_string(traced->seconds) +
                             " s, untraced before and after " +
                             std::to_string(untraced_s) + " s and " +
                             std::to_string(again.seconds) + " s");
    }
  }
  const Embed* last = traced ? &*traced : &untraced;
  if (!last->result.ok()) {
    // Nothing downstream can run; report what failed.
    report.notes.push_back("embedding failed; later phases skipped");
  } else {
    const Matrix& emb = last->result->embedding;
    Timer phase;
    Quality(w, in, emb, seed, &report);
    std::fprintf(stderr, "%s: quality took %.3f s\n", w.name, phase.Seconds());
    phase.Restart();
    const MetricsSnapshot serve_before = MetricsRegistry::Global().Snapshot();
    const uint64_t mark = recorder.Mark();
    const Serving serving =
        Serve(in.csr, emb, work_dir + "/" + w.name + ".est", seed, &report);
    const std::vector<TraceEvent> serve_events = recorder.EventsSince(mark);
    std::fprintf(stderr, "%s: serving took %.3f s (loop %.3f s)\n", w.name,
                 phase.Seconds(), serving.loop_s);
    if (serving.recall) report.quality["topk_recall_at_10"] = *serving.recall;
    const MetricsSnapshot serve_after = MetricsRegistry::Global().Snapshot();

    if (trace == 0) {
      report.Metric("embed_s", Median(embed_s), "s");
      report.Metric("setup_s", Median(setup_s), "s");
      report.MetricIf("peak_rss_mb", first_peak_mb, "MiB");
      if (!serving.qps.empty()) {
        report.Metric("topk_qps", Median(serving.qps), "1/s");
        report.Metric("topk_p50_ms", Median(serving.p50_ms), "ms");
        report.Metric("topk_p95_ms", Median(serving.p95_ms), "ms");
        report.notes.push_back(
            "closed loop: 1 caller, " + std::to_string(serving.qps.size()) +
            " rounds of " + std::to_string(kRequests) + " requests of " +
            std::to_string(kQueryBatch) + " TopKByVertex ids, k=" +
            std::to_string(kTopK) + "; medians over rounds");
      }
    } else {
      for (const char* span : {"data/generate", "graph/build_csr"}) {
        std::string metric = span;
        std::replace(metric.begin(), metric.end(), '/', '.');
        report.Metric(metric + "_s", Median(setup_layers.at(span)), "s");
      }
      report.Metric("graph.compress_s",
                    in.compressed ? Median(setup_layers.at("graph/compress"))
                                  : SecondsOf(bypassed.events, "graph/compress"),
                    "s");
      report.Metric("graph.compressed_bytes",
                    static_cast<double>(in.compressed
                                            ? in.compressed->SizeBytes()
                                            : bypassed.compressed_bytes),
                    "B");
      EmbedLayers(embed_events,
                  w.propagation ? embed_events : bypassed.events, before,
                  after, *traced->result, &report);
      report.Metric("core.store_write_s", serving.write_s, "s");
      report.Metric("core.store_open_s", serving.open_s, "s");
      report.Metric("core.store_bytes",
                    static_cast<double>(serving.store_bytes), "B");
      report.Metric("core.query.rows_scored",
                    static_cast<double>(CounterDelta(
                        serve_before, serve_after, "serve/rows_scored")),
                    "count");
      report.Metric("core.query.topk_self_s",
                    SelfSecondsOf(serve_events, "serve/topk"), "s");
    }
  }

  // ---- result ---------------------------------------------------------------
  std::string out = "{\"stamp\": " + StampJson(git_sha, w, seed, trace);
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"failures\": [";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    out += (i ? ", " : "") + JsonString(report.failures[i]);
  }
  out += "], \"notes\": [";
  for (size_t i = 0; i < report.notes.size(); ++i) {
    out += (i ? ", " : "") + JsonString(report.notes[i]);
  }
  out += "], \"quality\": {";
  bool first = true;
  for (const auto& [q, v] : report.quality) {
    out += (first ? "" : ", ") + JsonString(q) + ": " + JsonNumber(v);
    first = false;
  }
  out += "}, \"metrics\": {";
  first = true;
  for (const auto& [metric, vu] : report.metrics) {
    out += (first ? "" : ", ") + JsonString(metric) + ": {\"value\": " +
           JsonNumber(vu.first) + ", \"unit\": " + JsonString(vu.second) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
