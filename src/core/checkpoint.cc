#include "core/checkpoint.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/artifact_io.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace lightne {

namespace {

constexpr char kManifestFile[] = "manifest.json";
constexpr char kManifestSchema[] = "lightne-checkpoint-v1";

constexpr char kStageSparsifier[] = "sparsifier";
constexpr char kStageRsvd[] = "rsvd";
constexpr char kStageFinal[] = "final";

// Artifact schema ids (util/artifact_io.h header field).
constexpr uint32_t kSchemaSparsifier = 1;
constexpr uint32_t kSchemaRsvd = 2;
constexpr uint32_t kSchemaFinal = 3;
constexpr uint32_t kSchemaVersion = 1;

#ifndef LIGHTNE_GIT_SHA
#define LIGHTNE_GIT_SHA "unknown"
#endif

// ---- stats frame --------------------------------------------------------
// CheckpointedPipelineStats as 14 little-endian u64 words in declaration
// order (doubles bit-cast). A fixed word count makes truncation detectable.
constexpr uint64_t kStatsWords = 14;

std::vector<uint8_t> EncodeStats(const CheckpointedPipelineStats& s) {
  const uint64_t words[kStatsWords] = {
      s.samples_drawn,
      s.samples_accepted,
      s.distinct_entries,
      s.table_bytes,
      s.attempts,
      s.budget_tightenings,
      s.degraded,
      s.capacity_capped,
      std::bit_cast<uint64_t>(s.downsample_constant_used),
      s.mass_fp20,
      s.table_upserts,
      s.table_batch_upserts,
      s.sparsifier_nnz_raw,
      s.sparsifier_nnz,
  };
  std::vector<uint8_t> out(sizeof(words));
  std::memcpy(out.data(), words, sizeof(words));
  return out;
}

bool DecodeStats(const std::vector<uint8_t>& bytes,
                 CheckpointedPipelineStats* s) {
  if (bytes.size() != kStatsWords * sizeof(uint64_t)) return false;
  uint64_t words[kStatsWords];
  std::memcpy(words, bytes.data(), sizeof(words));
  s->samples_drawn = words[0];
  s->samples_accepted = words[1];
  s->distinct_entries = words[2];
  s->table_bytes = words[3];
  s->attempts = words[4];
  s->budget_tightenings = words[5];
  s->degraded = words[6];
  s->capacity_capped = words[7];
  s->downsample_constant_used = std::bit_cast<double>(words[8]);
  s->mass_fp20 = words[9];
  s->table_upserts = words[10];
  s->table_batch_upserts = words[11];
  s->sparsifier_nnz_raw = words[12];
  s->sparsifier_nnz = words[13];
  return true;
}

Status AppendU64Frame(ArtifactWriter* w, const uint64_t* data,
                      uint64_t count) {
  return w->AppendFrame(data, count * sizeof(uint64_t));
}

// Reads one frame and checks its byte count is exactly `bytes`.
Result<std::vector<uint8_t>> ReadSizedFrame(ArtifactReader* r,
                                            uint64_t bytes,
                                            const char* what) {
  auto frame = r->ReadFrame();
  if (!frame.ok()) return frame.status();
  if (frame->size() != bytes) {
    return Status::DataLoss(std::string(what) + " frame holds " +
                            std::to_string(frame->size()) +
                            " bytes, expected " + std::to_string(bytes));
  }
  return frame;
}

Status ReadMatrixFrames(ArtifactReader* r, uint64_t rows, uint64_t cols,
                        const char* what, Matrix* out) {
  if (rows != 0 && cols != 0 && cols > UINT64_MAX / sizeof(float) / rows) {
    return Status::DataLoss(std::string(what) +
                            " dimensions overflow a byte count");
  }
  auto data = ReadSizedFrame(r, rows * cols * sizeof(float), what);
  if (!data.ok()) return data.status();
  *out = Matrix(rows, cols);
  std::memcpy(out->data(), data->data(), data->size());
  return Status::Ok();
}

// ---- manifest write -----------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // control chars out
    out.push_back(c);
  }
  return out;
}

// ---- manifest parse -----------------------------------------------------
// The manifest is machine-written by WriteManifest below; this parser
// handles exactly that shape (flat objects, no escapes in the strings we
// read back). Any deviation — corruption, truncation, hand-editing gone
// wrong — fails the parse, which the caller treats as "no checkpoint".

// Finds `"key":` in `text` and returns the raw value token: a quoted
// string's contents, or a bare token up to `,`/`}`/`]`.
bool FindRawValue(const std::string& text, const std::string& key,
                  std::string* out) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  size_t p = at + needle.size();
  while (p < text.size() && (text[p] == ' ' || text[p] == '\n')) ++p;
  if (p >= text.size()) return false;
  if (text[p] == '"') {
    const size_t end = text.find('"', p + 1);
    if (end == std::string::npos) return false;
    *out = text.substr(p + 1, end - p - 1);
    return true;
  }
  size_t end = p;
  while (end < text.size() && text[end] != ',' && text[end] != '}' &&
         text[end] != ']' && text[end] != '\n') {
    ++end;
  }
  if (end == p) return false;
  *out = text.substr(p, end - p);
  return true;
}

bool ParseU64(const std::string& token, int base, uint64_t* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, base);
  if (errno != 0 || end == token.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

// Returns the flat JSON object (brace to brace) whose "name" field equals
// `stage`, or an empty string.
std::string FindStageObject(const std::string& text,
                            const std::string& stage) {
  const std::string needle = "\"name\": \"" + stage + "\"";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return "";
  const size_t open = text.rfind('{', at);
  const size_t close = text.find('}', at);
  if (open == std::string::npos || close == std::string::npos) return "";
  return text.substr(open, close - open + 1);
}

Result<std::string> ReadWholeFile(const std::string& path) {
  auto bytes = FileSizeBytes(path);
  if (!bytes.ok()) return bytes.status();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::string out(*bytes, '\0');
  const size_t got = out.empty() ? 0 : std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  if (got != out.size()) return Status::IOError("short read from " + path);
  return out;
}

// mkdir -p. Best-effort: failures surface later as save failures.
void MakeDirs(const std::string& dir) {
  std::string prefix;
  size_t from = 0;
  while (from <= dir.size()) {
    const size_t slash = dir.find('/', from);
    prefix = slash == std::string::npos ? dir : dir.substr(0, slash);
    if (!prefix.empty()) {
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
        LIGHTNE_LOG_WARN("checkpoint: cannot create directory %s: %s",
                         prefix.c_str(), std::strerror(errno));
        return;
      }
    }
    if (slash == std::string::npos) break;
    from = slash + 1;
  }
}

Counter* StagesSkippedCounter() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("resume/stages_skipped");
  return c;
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, bool resume,
                                     uint64_t options_fp, uint64_t graph_fp,
                                     uint64_t total_stages)
    : dir_(std::move(dir)),
      resume_(resume),
      options_fp_(options_fp),
      graph_fp_(graph_fp),
      total_stages_(total_stages) {
  if (dir_.empty()) return;
  MakeDirs(dir_);
  if (resume_) LoadManifest();
}

std::string CheckpointManager::ArtifactPath(const std::string& file) const {
  return dir_ + "/" + file;
}

void CheckpointManager::CountCorrupt(const std::string& stage,
                                     const Status& why) {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("resume/corrupt_artifacts");
  c->Increment();
  LIGHTNE_LOG_WARN("checkpoint: %s artifact unusable, recomputing: %s",
                   stage.c_str(), why.message().c_str());
}

void CheckpointManager::CountSaveFailure(const std::string& stage,
                                         const Status& why) {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("checkpoint/save_failures");
  c->Increment();
  LIGHTNE_LOG_WARN("checkpoint: %s not saved (pipeline continues): %s",
                   stage.c_str(), why.message().c_str());
}

void CheckpointManager::LoadManifest() {
  const std::string path = ArtifactPath(kManifestFile);
  if (!FileExists(path)) return;  // fresh directory: nothing to resume
  auto text = ReadWholeFile(path);
  if (!text.ok()) {
    CountCorrupt("manifest", text.status());
    return;
  }
  std::string schema, options_fp, graph_fp;
  if (!FindRawValue(*text, "schema", &schema) ||
      !FindRawValue(*text, "options_fingerprint", &options_fp) ||
      !FindRawValue(*text, "graph_fingerprint", &graph_fp)) {
    CountCorrupt("manifest",
                 Status::DataLoss(path + " is missing required fields"));
    return;
  }
  if (schema != kManifestSchema) {
    CountCorrupt("manifest", Status::DataLoss(path + " has schema \"" +
                                              schema + "\""));
    return;
  }
  uint64_t opt_fp = 0, gr_fp = 0;
  if (!ParseU64(options_fp, 16, &opt_fp) || !ParseU64(graph_fp, 16, &gr_fp)) {
    CountCorrupt("manifest",
                 Status::DataLoss(path + " has unparsable fingerprints"));
    return;
  }
  if (opt_fp != options_fp_ || gr_fp != graph_fp_) {
    static Counter* stale =
        MetricsRegistry::Global().GetCounter("resume/stale_manifest");
    stale->Increment();
    LIGHTNE_LOG_WARN(
        "checkpoint: %s was written for different options/graph "
        "(options %s vs %016" PRIx64 ", graph %s vs %016" PRIx64
        "), recomputing everything",
        path.c_str(), options_fp.c_str(), options_fp_, graph_fp.c_str(),
        graph_fp_);
    return;
  }
  for (const char* stage : {kStageSparsifier, kStageRsvd, kStageFinal}) {
    const std::string obj = FindStageObject(*text, stage);
    if (obj.empty()) continue;
    StageEntry entry;
    std::string bytes, crc, complete;
    if (!FindRawValue(obj, "file", &entry.file) ||
        !FindRawValue(obj, "bytes", &bytes) ||
        !FindRawValue(obj, "crc32c", &crc) ||
        !FindRawValue(obj, "complete", &complete) ||
        !ParseU64(bytes, 10, &entry.bytes)) {
      CountCorrupt(stage, Status::DataLoss(path + " has a malformed \"" +
                                           stage + "\" entry"));
      continue;
    }
    uint64_t crc_value = 0;
    if (!ParseU64(crc, 10, &crc_value) || crc_value > UINT32_MAX) {
      CountCorrupt(stage, Status::DataLoss(path + " has a malformed \"" +
                                           stage + "\" checksum"));
      continue;
    }
    entry.crc32c = static_cast<uint32_t>(crc_value);
    entry.complete = complete == "true";
    stages_[stage] = std::move(entry);
  }
  resumable_ = true;
}

Status CheckpointManager::WriteManifest() const {
  AtomicFileWriter writer;
  LIGHTNE_RETURN_IF_ERROR(writer.Open(ArtifactPath(kManifestFile)));
  std::FILE* f = writer.stream();
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"%s\",\n"
               "  \"options_fingerprint\": \"%016" PRIx64 "\",\n"
               "  \"graph_fingerprint\": \"%016" PRIx64 "\",\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"stages\": [",
               kManifestSchema, options_fp_, graph_fp_,
               JsonEscape(LIGHTNE_GIT_SHA).c_str());
  bool first = true;
  // Fixed pipeline order, independent of map iteration details.
  for (const char* stage : {kStageSparsifier, kStageRsvd, kStageFinal}) {
    const auto it = stages_.find(stage);
    if (it == stages_.end()) continue;
    std::fprintf(f,
                 "%s\n"
                 "    {\"name\": \"%s\", \"file\": \"%s\", \"bytes\": %" PRIu64
                 ", \"crc32c\": %" PRIu32 ", \"complete\": %s}",
                 first ? "" : ",", stage, JsonEscape(it->second.file).c_str(),
                 it->second.bytes, it->second.crc32c,
                 it->second.complete ? "true" : "false");
    first = false;
  }
  if (std::fprintf(f, "\n  ]\n}\n") < 0) {
    return Status::IOError("short write to " + ArtifactPath(kManifestFile));
  }
  return writer.Commit();
}

std::string CheckpointManager::ValidateStage(const std::string& stage) {
  const auto it = stages_.find(stage);
  if (it == stages_.end() || !it->second.complete) return "";
  const std::string path = ArtifactPath(it->second.file);
  if (!FileExists(path)) {
    // Manifest promised an artifact that is gone: corruption, not "never
    // checkpointed".
    CountCorrupt(stage, Status::DataLoss(path + " is missing"));
    return "";
  }
  auto size = FileSizeBytes(path);
  if (!size.ok() || *size != it->second.bytes) {
    CountCorrupt(stage,
                 Status::DataLoss(path + " holds " +
                                  (size.ok() ? std::to_string(*size)
                                             : std::string("unreadable")) +
                                  " bytes, manifest says " +
                                  std::to_string(it->second.bytes)));
    return "";
  }
  auto crc = Crc32cOfFile(path);
  if (!crc.ok() || *crc != it->second.crc32c) {
    CountCorrupt(stage,
                 Status::DataLoss(path + " fails its whole-file checksum"));
    return "";
  }
  return path;
}

void CheckpointManager::RecordStage(const std::string& stage,
                                    const std::string& file, uint64_t bytes) {
  auto crc = Crc32cOfFile(ArtifactPath(file));
  if (!crc.ok()) {
    CountSaveFailure(stage, crc.status());
    return;
  }
  StageEntry entry;
  entry.file = file;
  entry.bytes = bytes;
  entry.crc32c = *crc;
  entry.complete = true;
  stages_[stage] = std::move(entry);
  const Status written = WriteManifest();
  if (!written.ok()) CountSaveFailure(stage, written);
}

// ---- loads --------------------------------------------------------------

bool CheckpointManager::LoadFinal(Matrix* embedding,
                                  CheckpointedPipelineStats* stats) {
  if (!resumable_) return false;
  const std::string path = ValidateStage(kStageFinal);
  if (path.empty()) return false;
  TraceSpan span("checkpoint/load/final");
  const Status loaded = [&]() -> Status {
    ArtifactReader reader;
    LIGHTNE_RETURN_IF_ERROR(reader.Open(path, kSchemaFinal));
    auto stats_frame =
        ReadSizedFrame(&reader, kStatsWords * sizeof(uint64_t), "stats");
    if (!stats_frame.ok()) return stats_frame.status();
    if (!DecodeStats(*stats_frame, stats)) {
      return Status::DataLoss("undecodable stats frame in " + path);
    }
    auto dims = ReadSizedFrame(&reader, 2 * sizeof(uint64_t), "dims");
    if (!dims.ok()) return dims.status();
    uint64_t shape[2];
    std::memcpy(shape, dims->data(), sizeof(shape));
    LIGHTNE_RETURN_IF_ERROR(
        ReadMatrixFrames(&reader, shape[0], shape[1], "embedding", embedding));
    if (!reader.AtEnd()) {
      return Status::DataLoss(path + " has trailing bytes");
    }
    return Status::Ok();
  }();
  if (!loaded.ok()) {
    CountCorrupt(kStageFinal, loaded);
    return false;
  }
  stages_skipped_ += total_stages_;
  StagesSkippedCounter()->Add(total_stages_);
  LIGHTNE_LOG_INFO("checkpoint: resumed final embedding from %s (%" PRIu64
                   " stages skipped)",
                   path.c_str(), total_stages_);
  return true;
}

bool CheckpointManager::LoadRsvdFactors(RandomizedSvdResult* svd,
                                        CheckpointedPipelineStats* stats) {
  if (!resumable_) return false;
  const std::string path = ValidateStage(kStageRsvd);
  if (path.empty()) return false;
  TraceSpan span("checkpoint/load/rsvd");
  const Status loaded = [&]() -> Status {
    ArtifactReader reader;
    LIGHTNE_RETURN_IF_ERROR(reader.Open(path, kSchemaRsvd));
    auto stats_frame =
        ReadSizedFrame(&reader, kStatsWords * sizeof(uint64_t), "stats");
    if (!stats_frame.ok()) return stats_frame.status();
    if (!DecodeStats(*stats_frame, stats)) {
      return Status::DataLoss("undecodable stats frame in " + path);
    }
    auto dims = ReadSizedFrame(&reader, 5 * sizeof(uint64_t), "dims");
    if (!dims.ok()) return dims.status();
    uint64_t shape[5];
    std::memcpy(shape, dims->data(), sizeof(shape));
    LIGHTNE_RETURN_IF_ERROR(
        ReadMatrixFrames(&reader, shape[0], shape[1], "U", &svd->u));
    auto sigma =
        ReadSizedFrame(&reader, shape[2] * sizeof(float), "sigma");
    if (!sigma.ok()) return sigma.status();
    svd->sigma.resize(shape[2]);
    std::memcpy(svd->sigma.data(), sigma->data(), sigma->size());
    LIGHTNE_RETURN_IF_ERROR(
        ReadMatrixFrames(&reader, shape[3], shape[4], "V", &svd->v));
    if (!reader.AtEnd()) {
      return Status::DataLoss(path + " has trailing bytes");
    }
    if (svd->u.cols() != svd->sigma.size() ||
        svd->v.cols() != svd->sigma.size()) {
      return Status::DataLoss(path + " factor shapes are inconsistent");
    }
    return Status::Ok();
  }();
  if (!loaded.ok()) {
    CountCorrupt(kStageRsvd, loaded);
    return false;
  }
  stages_skipped_ += 2;
  StagesSkippedCounter()->Add(2);
  LIGHTNE_LOG_INFO("checkpoint: resumed rSVD factors from %s", path.c_str());
  return true;
}

bool CheckpointManager::LoadSparsifier(SparseMatrix* matrix,
                                       CheckpointedPipelineStats* stats) {
  if (!resumable_) return false;
  const std::string path = ValidateStage(kStageSparsifier);
  if (path.empty()) return false;
  TraceSpan span("checkpoint/load/sparsifier");
  const Status loaded = [&]() -> Status {
    ArtifactReader reader;
    LIGHTNE_RETURN_IF_ERROR(reader.Open(path, kSchemaSparsifier));
    auto stats_frame =
        ReadSizedFrame(&reader, kStatsWords * sizeof(uint64_t), "stats");
    if (!stats_frame.ok()) return stats_frame.status();
    if (!DecodeStats(*stats_frame, stats)) {
      return Status::DataLoss("undecodable stats frame in " + path);
    }
    auto dims = ReadSizedFrame(&reader, 3 * sizeof(uint64_t), "dims");
    if (!dims.ok()) return dims.status();
    uint64_t shape[3];  // rows, cols, nnz
    std::memcpy(shape, dims->data(), sizeof(shape));
    const uint64_t rows = shape[0], cols = shape[1], nnz = shape[2];
    if (rows > UINT64_MAX / sizeof(uint64_t) - 1 ||
        nnz > UINT64_MAX / sizeof(uint64_t) || cols > UINT64_MAX / 2) {
      return Status::DataLoss(path + " declares absurd dimensions");
    }
    auto offsets =
        ReadSizedFrame(&reader, (rows + 1) * sizeof(uint64_t), "row_offsets");
    if (!offsets.ok()) return offsets.status();
    auto cols_frame =
        ReadSizedFrame(&reader, nnz * sizeof(uint32_t), "col_indices");
    if (!cols_frame.ok()) return cols_frame.status();
    auto values = ReadSizedFrame(&reader, nnz * sizeof(float), "values");
    if (!values.ok()) return values.status();
    if (!reader.AtEnd()) {
      return Status::DataLoss(path + " has trailing bytes");
    }
    std::vector<uint64_t> row_offsets(rows + 1);
    std::memcpy(row_offsets.data(), offsets->data(), offsets->size());
    // Re-validate the CSR invariants FromCsr's contract assumes, so a
    // corruption mode the checksum happens to miss degrades to recompute
    // instead of a malformed matrix.
    if (row_offsets[0] != 0 || row_offsets[rows] != nnz) {
      return Status::DataLoss(path + " has inconsistent row offsets");
    }
    std::vector<uint32_t> col_indices(nnz);
    std::memcpy(col_indices.data(), cols_frame->data(), cols_frame->size());
    for (uint64_t i = 0; i < rows; ++i) {
      // A middle offset past nnz would index beyond the arrays before the
      // decrease back to nnz shows.
      if (row_offsets[i] > row_offsets[i + 1] || row_offsets[i + 1] > nnz) {
        return Status::DataLoss(path + " has decreasing row offsets");
      }
      for (uint64_t k = row_offsets[i]; k < row_offsets[i + 1]; ++k) {
        if (col_indices[k] >= cols) {
          return Status::DataLoss(path + " has an out-of-range column");
        }
        if (k > row_offsets[i] && col_indices[k] <= col_indices[k - 1]) {
          return Status::DataLoss(path + " has unsorted entries");
        }
      }
    }
    std::vector<float> row_values(nnz);
    std::memcpy(row_values.data(), values->data(), values->size());
    *matrix = SparseMatrix::FromCsr(rows, cols, std::move(row_offsets),
                                    std::move(col_indices),
                                    std::move(row_values));
    return Status::Ok();
  }();
  if (!loaded.ok()) {
    CountCorrupt(kStageSparsifier, loaded);
    return false;
  }
  stages_skipped_ += 1;
  StagesSkippedCounter()->Add(1);
  LIGHTNE_LOG_INFO("checkpoint: resumed sparsifier matrix from %s",
                   path.c_str());
  return true;
}

// ---- saves --------------------------------------------------------------

void CheckpointManager::SaveSparsifier(const SparseMatrix& matrix,
                                       const CheckpointedPipelineStats& stats) {
  if (!enabled()) return;
  TraceSpan span("checkpoint/save/sparsifier");
  Timer timer;
  const std::string file = "sparsifier.art";
  ArtifactWriter writer;
  uint64_t bytes = 0;
  const Status saved = [&]() -> Status {
    LIGHTNE_RETURN_IF_ERROR(
        writer.Open(ArtifactPath(file), kSchemaSparsifier, kSchemaVersion));
    const std::vector<uint8_t> stats_frame = EncodeStats(stats);
    LIGHTNE_RETURN_IF_ERROR(
        writer.AppendFrame(stats_frame.data(), stats_frame.size()));
    const uint64_t dims[3] = {matrix.rows(), matrix.cols(), matrix.nnz()};
    LIGHTNE_RETURN_IF_ERROR(AppendU64Frame(&writer, dims, 3));
    LIGHTNE_RETURN_IF_ERROR(AppendU64Frame(&writer, matrix.row_offsets().data(),
                                           matrix.row_offsets().size()));
    LIGHTNE_RETURN_IF_ERROR(writer.AppendFrame(
        matrix.col_indices().data(),
        matrix.col_indices().size() * sizeof(uint32_t)));
    LIGHTNE_RETURN_IF_ERROR(writer.AppendFrame(
        matrix.values().data(), matrix.values().size() * sizeof(float)));
    bytes = writer.bytes_written();
    return writer.Commit();
  }();
  if (!saved.ok()) {
    CountSaveFailure(kStageSparsifier, saved);
    return;
  }
  static Counter* saves = MetricsRegistry::Global().GetCounter(
      "checkpoint/saves");
  static Counter* save_ms =
      MetricsRegistry::Global().GetCounter("checkpoint/save_ms");
  static Counter* save_bytes =
      MetricsRegistry::Global().GetCounter("checkpoint/bytes");
  saves->Increment();
  save_ms->Add(static_cast<uint64_t>(timer.Millis()));
  save_bytes->Add(bytes);
  RecordStage(kStageSparsifier, file, bytes);
}

void CheckpointManager::SaveRsvdFactors(const RandomizedSvdResult& svd,
                                        const CheckpointedPipelineStats& stats) {
  if (!enabled()) return;
  TraceSpan span("checkpoint/save/rsvd");
  Timer timer;
  const std::string file = "rsvd.art";
  ArtifactWriter writer;
  uint64_t bytes = 0;
  const Status saved = [&]() -> Status {
    LIGHTNE_RETURN_IF_ERROR(
        writer.Open(ArtifactPath(file), kSchemaRsvd, kSchemaVersion));
    const std::vector<uint8_t> stats_frame = EncodeStats(stats);
    LIGHTNE_RETURN_IF_ERROR(
        writer.AppendFrame(stats_frame.data(), stats_frame.size()));
    const uint64_t dims[5] = {svd.u.rows(), svd.u.cols(), svd.sigma.size(),
                              svd.v.rows(), svd.v.cols()};
    LIGHTNE_RETURN_IF_ERROR(AppendU64Frame(&writer, dims, 5));
    LIGHTNE_RETURN_IF_ERROR(writer.AppendFrame(
        svd.u.data(), svd.u.rows() * svd.u.cols() * sizeof(float)));
    LIGHTNE_RETURN_IF_ERROR(writer.AppendFrame(
        svd.sigma.data(), svd.sigma.size() * sizeof(float)));
    LIGHTNE_RETURN_IF_ERROR(writer.AppendFrame(
        svd.v.data(), svd.v.rows() * svd.v.cols() * sizeof(float)));
    bytes = writer.bytes_written();
    return writer.Commit();
  }();
  if (!saved.ok()) {
    CountSaveFailure(kStageRsvd, saved);
    return;
  }
  static Counter* saves =
      MetricsRegistry::Global().GetCounter("checkpoint/saves");
  static Counter* save_ms =
      MetricsRegistry::Global().GetCounter("checkpoint/save_ms");
  static Counter* save_bytes =
      MetricsRegistry::Global().GetCounter("checkpoint/bytes");
  saves->Increment();
  save_ms->Add(static_cast<uint64_t>(timer.Millis()));
  save_bytes->Add(bytes);
  RecordStage(kStageRsvd, file, bytes);
}

void CheckpointManager::SaveFinal(const Matrix& embedding,
                                  const CheckpointedPipelineStats& stats) {
  if (!enabled()) return;
  TraceSpan span("checkpoint/save/final");
  Timer timer;
  const std::string file = "final.art";
  ArtifactWriter writer;
  uint64_t bytes = 0;
  const Status saved = [&]() -> Status {
    LIGHTNE_RETURN_IF_ERROR(
        writer.Open(ArtifactPath(file), kSchemaFinal, kSchemaVersion));
    const std::vector<uint8_t> stats_frame = EncodeStats(stats);
    LIGHTNE_RETURN_IF_ERROR(
        writer.AppendFrame(stats_frame.data(), stats_frame.size()));
    const uint64_t dims[2] = {embedding.rows(), embedding.cols()};
    LIGHTNE_RETURN_IF_ERROR(AppendU64Frame(&writer, dims, 2));
    LIGHTNE_RETURN_IF_ERROR(writer.AppendFrame(
        embedding.data(),
        embedding.rows() * embedding.cols() * sizeof(float)));
    bytes = writer.bytes_written();
    return writer.Commit();
  }();
  if (!saved.ok()) {
    CountSaveFailure(kStageFinal, saved);
    return;
  }
  static Counter* saves =
      MetricsRegistry::Global().GetCounter("checkpoint/saves");
  static Counter* save_ms =
      MetricsRegistry::Global().GetCounter("checkpoint/save_ms");
  static Counter* save_bytes =
      MetricsRegistry::Global().GetCounter("checkpoint/bytes");
  saves->Increment();
  save_ms->Add(static_cast<uint64_t>(timer.Millis()));
  save_bytes->Add(bytes);
  RecordStage(kStageFinal, file, bytes);
}

}  // namespace lightne
