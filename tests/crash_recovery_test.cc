// Crash/recovery harness for the checkpoint subsystem (DESIGN.md §12).
//
// The centerpiece re-executes this binary as a pipeline child
// (CrashChildMode.RunPipeline below) with a kCrash policy armed at a
// registered fault point, so the process hard-dies (_exit(137), no
// destructors — the moral equivalent of SIGKILL) mid-pipeline. A second
// child then resumes in a fresh process and must produce an embedding
// bit-identical to the uninterrupted reference — the determinism contract
// makes resume correctness exactly checkable.
//
// The in-process suites cover the rest of the recovery ladder: torn/
// bit-flipped/truncated artifacts and corrupt or stale manifests degrade to
// recomputation (counted, never a hard failure), and the kCrash fault mode
// itself (arming across fork, exact-Nth-hit firing, exit code, zero-cost
// disarmed path).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/lightne.h"
#include "data/generators.h"
#include "graph/csr.h"
#include "la/embedding_io.h"
#include "util/artifact_io.h"
#include "util/fault_injection.h"
#include "util/metrics.h"

namespace lightne {
namespace {

CsrGraph TestGraph() {
  return CsrGraph::FromEdges(GenerateErdosRenyi(300, 2500, 3));
}

LightNeOptions TestOptions(const std::string& checkpoint_dir, bool resume) {
  LightNeOptions opt;
  opt.dim = 8;
  opt.window = 3;
  opt.num_samples = 20000;
  opt.seed = 5;
  opt.checkpoint_dir = checkpoint_dir;
  opt.resume = resume;
  return opt;
}

/// The uninterrupted run's embedding, computed once without checkpointing.
const Matrix& ReferenceEmbedding() {
  static const Matrix* ref = [] {
    auto r = RunLightNe(TestGraph(), TestOptions("", false));
    LIGHTNE_CHECK_MSG(r.ok(), "reference pipeline failed");
    return new Matrix(std::move(r->embedding));
  }();
  return *ref;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.SizeBytes()) == 0;
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name)->Value();
}

/// Checkpoint directories hold a closed set of files; remove them plus any
/// .tmp the crash left behind, then the directory itself.
void CleanCheckpointDir(const std::string& dir) {
  for (const char* f :
       {"manifest.json", "sparsifier.art", "rsvd.art", "final.art",
        "final.emb", "stats.txt"}) {
    std::remove((dir + "/" + f).c_str());
    std::remove((dir + "/" + f + ".tmp").c_str());
  }
  ::rmdir(dir.c_str());
}

void TruncateFile(const std::string& path, uint64_t remove_bytes) {
  auto size = FileSizeBytes(path);
  ASSERT_TRUE(size.ok());
  ASSERT_GT(*size, remove_bytes);
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(*size - remove_bytes)),
            0);
}

void FlipByteAt(const std::string& path, uint64_t offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);
}

// ------------------------------------------------------------ child mode --

/// The pipeline child the harness re-executes. Skipped in a normal test run;
/// when LIGHTNE_CRASH_CHILD_DIR is set it runs the checkpointed pipeline —
/// optionally with a crash armed at LIGHTNE_CRASH_POINT hit
/// LIGHTNE_CRASH_HIT — and writes final.emb + stats.txt for the parent.
TEST(CrashChildMode, RunPipeline) {
  const char* dir = std::getenv("LIGHTNE_CRASH_CHILD_DIR");
  if (dir == nullptr) GTEST_SKIP() << "harness child entry point";
  const char* point = std::getenv("LIGHTNE_CRASH_POINT");
  const char* hit = std::getenv("LIGHTNE_CRASH_HIT");
  if (point != nullptr && hit != nullptr) {
    FaultRegistry::Global().ArmCrashOnNthHit(
        point, std::strtoull(hit, nullptr, 10));
  }
  const CsrGraph g = TestGraph();
  auto r = RunLightNe(g, TestOptions(dir, /*resume=*/true));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(
      SaveEmbeddingBinary(r->embedding, std::string(dir) + "/final.emb").ok());
  AtomicFileWriter stats;
  ASSERT_TRUE(stats.Open(std::string(dir) + "/stats.txt").ok());
  std::fprintf(stats.stream(), "stages_skipped %llu\n",
               static_cast<unsigned long long>(r->resume_stages_skipped));
  ASSERT_TRUE(stats.Commit().ok());
}

std::string SelfExePath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  LIGHTNE_CHECK_MSG(n > 0, "cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

/// Runs the pipeline child. Returns its exit code, or -signal if killed.
int RunChild(const std::string& dir, const char* crash_point,
             uint64_t crash_hit) {
  std::string cmd = "LIGHTNE_CRASH_CHILD_DIR='" + dir + "' ";
  if (crash_point != nullptr) {
    cmd += "LIGHTNE_CRASH_POINT='" + std::string(crash_point) +
           "' LIGHTNE_CRASH_HIT=" + std::to_string(crash_hit) + " ";
  }
  cmd += "'" + SelfExePath() +
         "' --gtest_filter=CrashChildMode.RunPipeline >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -WTERMSIG(rc);
}

uint64_t ReadStagesSkipped(const std::string& dir) {
  std::FILE* f = std::fopen((dir + "/stats.txt").c_str(), "r");
  if (f == nullptr) return UINT64_MAX;
  unsigned long long v = UINT64_MAX;
  const int got = std::fscanf(f, "stages_skipped %llu", &v);
  std::fclose(f);
  return got == 1 ? v : UINT64_MAX;
}

// -------------------------------------------------------- kill-at-point --

struct KillPoint {
  const char* point;
  uint64_t hit;
  // Stages the resumed run must at least skip (0 when the crash lands
  // before any stage artifact was committed).
  uint64_t min_stages_skipped;
};

TEST(CrashRecovery, KilledPipelineResumesBitIdentical) {
  // Crash sites spanning the pipeline: mid-sampling (before any artifact),
  // the first artifact's first frame, the artifact commit itself, in the
  // first JacobiSvd — the Gram step of the rSVD sketch's Orthonormalize
  // (sparsifier already durable) — and deep in the save sequence with two
  // stages durable. "io/write" hits count across every frame
  // append, commit, and manifest rewrite, so the indices walk the ladder.
  std::vector<KillPoint> matrix = {
      {"sparsifier/table_insert", 3, 0},
      {"io/write", 1, 0},
      {"io/write", 6, 0},
      {"svd/converge", 1, 1},
      {"io/write", 14, 1},
  };
  if (const char* mode = std::getenv("LIGHTNE_CRASH_MATRIX");
      mode != nullptr && std::string(mode) == "reduced") {
    // tsan: each child is a full instrumented pipeline; two sites cover the
    // before-any-artifact and after-first-artifact halves of the ladder.
    matrix = {{"io/write", 1, 0}, {"svd/converge", 1, 1}};
  }
  const Matrix& ref = ReferenceEmbedding();
  for (const KillPoint& kp : matrix) {
    std::string slug = kp.point;
    for (char& c : slug) {
      if (c == '/') c = '_';
    }
    const std::string dir = ::testing::TempDir() + "/crash_" + slug + "_" +
                            std::to_string(kp.hit) + "_" +
                            std::to_string(::getpid());
    CleanCheckpointDir(dir);
    SCOPED_TRACE(std::string(kp.point) + " hit " + std::to_string(kp.hit));

    // 1. The armed child must hard-die with the kCrash exit code.
    ASSERT_EQ(RunChild(dir, kp.point, kp.hit), FaultRegistry::kCrashExitCode);
    // 2. Whatever the crash left behind, no *committed* artifact is torn: a
    //    fresh process resumes cleanly...
    ASSERT_EQ(RunChild(dir, nullptr, 0), 0);
    // 3. ...and lands on the exact bytes of the uninterrupted run.
    auto resumed = LoadEmbeddingBinary(dir + "/final.emb");
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(BitIdentical(*resumed, ref));
    EXPECT_GE(ReadStagesSkipped(dir), kp.min_stages_skipped);
    EXPECT_LE(ReadStagesSkipped(dir), 3u);
    CleanCheckpointDir(dir);
  }
}

// -------------------------------------------- checkpoint/resume ladder --

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/ckpt_" + info->name() + "_" +
           std::to_string(::getpid());
    CleanCheckpointDir(dir_);
    FaultRegistry::Global().Reset();
  }
  void TearDown() override {
    CleanCheckpointDir(dir_);
    FaultRegistry::Global().Reset();
  }

  std::string dir_;
};

TEST_F(CheckpointResumeTest, ResumeSkipsAllStagesBitIdentical) {
  const CsrGraph g = TestGraph();
  const uint64_t saves_before = CounterValue("checkpoint/saves");
  const uint64_t bytes_before = CounterValue("checkpoint/bytes");
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->resume_stages_skipped, 0u);
  EXPECT_EQ(CounterValue("checkpoint/saves") - saves_before, 3u);
  EXPECT_GT(CounterValue("checkpoint/bytes") - bytes_before, 0u);

  const uint64_t skipped_before = CounterValue("resume/stages_skipped");
  auto second = RunLightNe(g, TestOptions(dir_, true));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->resume_stages_skipped, 3u);
  EXPECT_EQ(CounterValue("resume/stages_skipped") - skipped_before, 3u);
  EXPECT_TRUE(BitIdentical(first->embedding, second->embedding));
  // The stats frame restores the uninterrupted run's scalar facts.
  EXPECT_EQ(second->sparsifier_stats.samples_drawn,
            first->sparsifier_stats.samples_drawn);
  EXPECT_EQ(second->sparsifier_stats.mass_fp20,
            first->sparsifier_stats.mass_fp20);
  EXPECT_EQ(second->sparsifier_nnz_raw, first->sparsifier_nnz_raw);
  EXPECT_EQ(second->sparsifier_nnz, first->sparsifier_nnz);
}

TEST_F(CheckpointResumeTest, TruncatedFinalArtifactFallsBackToRsvd) {
  const CsrGraph g = TestGraph();
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok());
  TruncateFile(dir_ + "/final.art", 64);

  const uint64_t corrupt_before = CounterValue("resume/corrupt_artifacts");
  auto resumed = RunLightNe(g, TestOptions(dir_, true));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(CounterValue("resume/corrupt_artifacts") - corrupt_before, 1u);
  EXPECT_EQ(resumed->resume_stages_skipped, 2u);  // rsvd rung of the ladder
  EXPECT_TRUE(BitIdentical(first->embedding, resumed->embedding));
}

TEST_F(CheckpointResumeTest, BitFlippedArtifactsFallToSparsifier) {
  const CsrGraph g = TestGraph();
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok());
  // Flip one payload byte in each of the two newest artifacts: both
  // whole-file checksums fail, leaving the sparsifier rung.
  FlipByteAt(dir_ + "/final.art", 200);
  FlipByteAt(dir_ + "/rsvd.art", 200);

  const uint64_t corrupt_before = CounterValue("resume/corrupt_artifacts");
  auto resumed = RunLightNe(g, TestOptions(dir_, true));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(CounterValue("resume/corrupt_artifacts") - corrupt_before, 2u);
  EXPECT_EQ(resumed->resume_stages_skipped, 1u);
  EXPECT_TRUE(BitIdentical(first->embedding, resumed->embedding));
}

TEST_F(CheckpointResumeTest, CorruptManifestRecomputesEverything) {
  const CsrGraph g = TestGraph();
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok());
  std::FILE* f = std::fopen((dir_ + "/manifest.json").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "{\"schema\": \"lightne-checkpoi");  // torn mid-write
  std::fclose(f);

  const uint64_t corrupt_before = CounterValue("resume/corrupt_artifacts");
  auto resumed = RunLightNe(g, TestOptions(dir_, true));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_GE(CounterValue("resume/corrupt_artifacts") - corrupt_before, 1u);
  EXPECT_EQ(resumed->resume_stages_skipped, 0u);
  // Recomputed, and determinism makes even the recomputed bytes identical.
  EXPECT_TRUE(BitIdentical(first->embedding, resumed->embedding));
}

TEST_F(CheckpointResumeTest, StaleFingerprintRefusesResume) {
  const CsrGraph g = TestGraph();
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok());

  LightNeOptions changed = TestOptions(dir_, true);
  changed.seed = 6;  // any option change stales the manifest
  const uint64_t stale_before = CounterValue("resume/stale_manifest");
  auto resumed = RunLightNe(g, changed);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(CounterValue("resume/stale_manifest") - stale_before, 1u);
  EXPECT_EQ(resumed->resume_stages_skipped, 0u);
  // Different seed, honestly recomputed: must NOT be the seed-5 bytes.
  EXPECT_FALSE(BitIdentical(first->embedding, resumed->embedding));
}

TEST_F(CheckpointResumeTest, ResumeFalseIgnoresExistingArtifacts) {
  const CsrGraph g = TestGraph();
  auto first = RunLightNe(g, TestOptions(dir_, false));
  ASSERT_TRUE(first.ok());
  auto again = RunLightNe(g, TestOptions(dir_, /*resume=*/false));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->resume_stages_skipped, 0u);
  EXPECT_TRUE(BitIdentical(first->embedding, again->embedding));
}

TEST_F(CheckpointResumeTest, SaveFailureIsCountedNotFatal) {
  const CsrGraph g = TestGraph();
  const uint64_t failures_before = CounterValue("checkpoint/save_failures");
  FaultRegistry::Global().ArmAlwaysFail("io/write");
  auto r = RunLightNe(g, TestOptions(dir_, false));
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(CounterValue("checkpoint/save_failures") - failures_before, 3u);
  EXPECT_TRUE(BitIdentical(r->embedding, ReferenceEmbedding()));
  // Nothing committed: a later resume has nothing to pick up.
  EXPECT_FALSE(FileExists(dir_ + "/manifest.json"));
  EXPECT_FALSE(FileExists(dir_ + "/sparsifier.art"));
}

// ------------------------------------------------------ kCrash self-test --

class FaultCrashMode : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

TEST_F(FaultCrashMode, DisarmedFastPathCountsNothing) {
  EXPECT_EQ(FaultRegistry::ArmedCount(), 0);
  // With nothing armed anywhere, the macro is one relaxed load: the registry
  // is never consulted, so not even the hit counter moves.
  EXPECT_FALSE(LIGHTNE_FAULT_POINT("crash/self_test"));
  EXPECT_EQ(FaultRegistry::Global().HitCount("crash/self_test"), 0u);

  FaultRegistry::Global().ArmCrashOnNthHit("crash/self_test", 1000000);
  EXPECT_EQ(FaultRegistry::ArmedCount(), 1);
  EXPECT_FALSE(LIGHTNE_FAULT_POINT("crash/self_test"));  // far from the nth
  EXPECT_EQ(FaultRegistry::Global().HitCount("crash/self_test"), 1u);
  FaultRegistry::Global().Disarm("crash/self_test");
  EXPECT_EQ(FaultRegistry::ArmedCount(), 0);
}

TEST_F(FaultCrashMode, CrashExitsWithCode137) {
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    FaultRegistry::Global().ArmCrashOnNthHit("crash/child_only", 1);
    (void)LIGHTNE_FAULT_POINT("crash/child_only");  // _exit(137)s here
    ::_exit(99);                                    // must not be reached
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), FaultRegistry::kCrashExitCode);
  // The child armed after the fork: the parent registry never saw it.
  EXPECT_EQ(FaultRegistry::ArmedCount(), 0);
  EXPECT_EQ(FaultRegistry::Global().HitCount("crash/child_only"), 0u);
}

TEST_F(FaultCrashMode, ArmingSurvivesForkAndFiresOnExactHit) {
  FaultRegistry::Global().ArmCrashOnNthHit("crash/forked", 3);
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Hits 1 and 2 must pass; hit 3 must kill.
    if (LIGHTNE_FAULT_POINT("crash/forked")) ::_exit(98);
    if (LIGHTNE_FAULT_POINT("crash/forked")) ::_exit(98);
    (void)LIGHTNE_FAULT_POINT("crash/forked");
    ::_exit(97);  // must not be reached
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), FaultRegistry::kCrashExitCode);
  // Fork isolation: the parent's hit counter is untouched by child hits.
  EXPECT_EQ(FaultRegistry::Global().HitCount("crash/forked"), 0u);
}

TEST_F(FaultCrashMode, NoCrashBeforeNthHit) {
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    FaultRegistry::Global().ArmCrashOnNthHit("crash/late", 5);
    bool fired = false;
    for (int i = 0; i < 4; ++i) {
      fired = fired || LIGHTNE_FAULT_POINT("crash/late");
    }
    ::_exit(fired ? 96 : 42);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 42);
}

}  // namespace
}  // namespace lightne
