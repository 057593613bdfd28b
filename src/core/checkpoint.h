// Crash-safe pipeline checkpoint/resume (DESIGN.md §12).
//
// A checkpoint directory holds one framed artifact (util/artifact_io.h) per
// completed pipeline stage plus a JSON run manifest binding them together:
//
//   <dir>/manifest.json      run manifest (see below)
//   <dir>/sparsifier.art     NetMF-transformed sparsifier matrix + stats
//   <dir>/rsvd.art           rSVD factors U / sigma / V + stats
//   <dir>/final.art          final embedding (post-propagation) + stats
//
// The manifest records the options fingerprint, the graph fingerprint, the
// builder's git sha, and per-stage {file, bytes, crc32c, complete} entries.
// A stage entry is appended (and the manifest atomically rewritten) only
// after its artifact has been committed, so the manifest never references a
// torn artifact.
//
// Resume contract: because the pipeline is bit-deterministic in
// (options, graph, seed) at any worker count (DESIGN.md §8), a run that
// loads a stage artifact instead of recomputing the stage produces a final
// embedding byte-identical to the uninterrupted run. That makes resume
// correctness machine-checkable — tests/crash_recovery_test.cc kills the
// pipeline at registered fault points and asserts exactly this.
//
// Graceful-degradation ladder (never a hard failure):
//   1. manifest missing            -> fresh run, all stages recomputed
//   2. manifest corrupt            -> same, resume/corrupt_artifacts++
//   3. fingerprint mismatch        -> same, resume/stale_manifest++
//   4. stage artifact missing      -> that stage (and later) recomputed
//   5. stage artifact corrupt      -> same, resume/corrupt_artifacts++
//      (truncation, bit-flip, checksum mismatch, bad frame)
//   6. stage save fails            -> logged, checkpoint/save_failures++,
//                                     pipeline continues uncheckpointed
//
// Observability: checkpoint/{saves,save_ms,bytes,save_failures} and
// resume/{stages_skipped,corrupt_artifacts,stale_manifest} counters, plus
// "checkpoint/save/<stage>" and "checkpoint/load/<stage>" trace spans.
#ifndef LIGHTNE_CORE_CHECKPOINT_H_
#define LIGHTNE_CORE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>

#include "la/matrix.h"
#include "la/rsvd.h"
#include "la/sparse.h"
#include "util/status.h"

namespace lightne {

/// Scalar pipeline facts carried inside every stage artifact so a resumed
/// LightNeResult reports the same statistics as the uninterrupted run.
struct CheckpointedPipelineStats {
  uint64_t samples_drawn = 0;
  uint64_t samples_accepted = 0;
  uint64_t distinct_entries = 0;
  uint64_t table_bytes = 0;
  uint64_t attempts = 1;
  uint64_t budget_tightenings = 0;
  uint64_t degraded = 0;
  uint64_t capacity_capped = 0;
  double downsample_constant_used = 0.0;
  uint64_t mass_fp20 = 0;
  uint64_t table_upserts = 0;
  uint64_t table_batch_upserts = 0;
  uint64_t sparsifier_nnz_raw = 0;
  uint64_t sparsifier_nnz = 0;
};

/// Stage-boundary save/load for RunLightNe. All failure handling lives here:
/// loads return false (recompute) on every corruption mode, saves are
/// best-effort and never surface an error to the pipeline.
class CheckpointManager {
 public:
  /// `dir` empty disables checkpointing entirely (every call is a no-op).
  /// The directory is created (recursively) if missing. `resume` requests
  /// artifact reuse; the fingerprints bind artifacts to this exact
  /// (options, graph) pair. `total_stages` is the number of pipeline stages
  /// a valid final artifact skips (2 without spectral propagation, 3 with).
  CheckpointManager(std::string dir, bool resume, uint64_t options_fp,
                    uint64_t graph_fp, uint64_t total_stages);

  bool enabled() const { return !dir_.empty(); }

  /// True when resume was requested and the manifest matched this run's
  /// fingerprints; loads only consult artifacts in that case.
  bool resumable() const { return resumable_; }

  // ---- Loads (latest stage first; each success bumps
  //      resume/stages_skipped by the number of stages it covers) ----------
  bool LoadFinal(Matrix* embedding, CheckpointedPipelineStats* stats);
  bool LoadRsvdFactors(RandomizedSvdResult* svd,
                       CheckpointedPipelineStats* stats);
  bool LoadSparsifier(SparseMatrix* matrix, CheckpointedPipelineStats* stats);

  // ---- Saves (best-effort; manifest rewritten after each commit) ---------
  void SaveSparsifier(const SparseMatrix& matrix,
                      const CheckpointedPipelineStats& stats);
  void SaveRsvdFactors(const RandomizedSvdResult& svd,
                       const CheckpointedPipelineStats& stats);
  void SaveFinal(const Matrix& embedding,
                 const CheckpointedPipelineStats& stats);

  /// Pipeline stages skipped via artifact loads in this run.
  uint64_t stages_skipped() const { return stages_skipped_; }

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

 private:
  struct StageEntry {
    std::string file;    // relative to dir_
    uint64_t bytes = 0;
    uint32_t crc32c = 0;  // whole-file CRC32C of the committed artifact
    bool complete = false;
  };

  std::string ArtifactPath(const std::string& file) const;
  /// Parses <dir>/manifest.json; adopts its stage entries when the schema
  /// and both fingerprints match this run.
  void LoadManifest();
  /// Atomically rewrites <dir>/manifest.json from stages_.
  Status WriteManifest() const;
  /// Shared load prologue: entry lookup + whole-file checksum validation.
  /// Returns the artifact path, or empty when the stage must be recomputed.
  std::string ValidateStage(const std::string& stage);
  /// Shared save epilogue: records the committed artifact in the manifest.
  void RecordStage(const std::string& stage, const std::string& file,
                   uint64_t bytes);
  void CountCorrupt(const std::string& stage, const Status& why);
  void CountSaveFailure(const std::string& stage, const Status& why);

  std::string dir_;
  bool resume_ = false;
  bool resumable_ = false;
  uint64_t options_fp_ = 0;
  uint64_t graph_fp_ = 0;
  uint64_t total_stages_ = 3;
  uint64_t stages_skipped_ = 0;
  std::map<std::string, StageEntry> stages_;
};

}  // namespace lightne

#endif  // LIGHTNE_CORE_CHECKPOINT_H_
