// Store-level fault injection: the ENOSPC byte-budget sweep (fail the Nth
// write for a sweep of N — no torn snapshot may ever be loadable), fsync and
// rename failures at commit time, EINTR/short-write storms during a save
// (resulting file must be bit-identical to a clean save), and the orphan-tmp
// sweeper against hand-planted leftovers.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <vector>

#include "core/study.h"
#include "io/io.h"
#include "store/snapshot.h"

#include "../io/read_back.h"

namespace lockdown::store {
namespace {

namespace fs = std::filesystem;

struct FaultCampus {
  fs::path dir;
  core::CollectionResult fresh;

  FaultCampus() {
    dir = fs::temp_directory_path() /
          ("lds_fault_test." + std::to_string(::getpid()));
    fs::create_directories(dir);
    fresh = core::MeasurementPipeline::Collect(core::StudyConfig::Small(40, 7));
  }
  ~FaultCampus() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

const FaultCampus& Campus() {
  static const FaultCampus campus;
  return campus;
}

class StoreIoFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    io::ClearFaultPlan();
    io::SetRetryPolicy(io::RetryPolicy{});
  }
  void TearDown() override {
    io::ClearFaultPlan();
    io::SetRetryPolicy(io::RetryPolicy{});
  }
};

void InstallPlan(const std::string& spec) {
  std::string error;
  const auto plan = io::ParseFaultPlan(spec, &error);
  ASSERT_TRUE(plan.has_value()) << spec << ": " << error;
  io::SetFaultPlan(*plan);
}

std::string ReadBytes(const fs::path& path) {
  io::ClearFaultPlan();  // read the disk, not the injector
  return io::testing::ReadBack(path);
}

std::vector<fs::path> TmpLeftovers(const fs::path& dir) {
  std::vector<fs::path> found;
  for (const fs::path& entry : fs::directory_iterator(dir)) {
    if (entry.filename().string().find(".tmp.") != std::string::npos) {
      found.push_back(entry);
    }
  }
  return found;
}

// --- ENOSPC byte-budget sweep ------------------------------------------------

TEST_F(StoreIoFaultTest, EnospcSweepNeverLeavesATornSnapshot) {
  const fs::path target = Campus().dir / "sweep.lds";
  SaveSnapshot(target, Campus().fresh, SnapshotMeta{40, 7});
  const std::string valid_bytes = ReadBytes(target);

  int failures = 0;
  int successes = 0;
  for (std::uint64_t n = 1; n <= 24; ++n) {
    InstallPlan(std::to_string(n) + ":enospc@write#" + std::to_string(n));
    try {
      SaveSnapshot(target, Campus().fresh, SnapshotMeta{40, 7});
      ++successes;
    } catch (const io::IoError& e) {
      ++failures;
      EXPECT_EQ(e.error_code(), ENOSPC) << "N=" << n;
    }
    io::ClearFaultPlan();
    // Torn-snapshot check: whatever happened, the target is the one valid
    // snapshot (a clean save of this dataset is byte-deterministic), it
    // verifies, and the failed attempt's tmp file was cleaned up.
    EXPECT_EQ(ReadBytes(target), valid_bytes) << "N=" << n;
    VerifySnapshot(target);
    EXPECT_TRUE(TmpLeftovers(Campus().dir).empty()) << "N=" << n;
  }
  // The sweep must actually cover both regimes: early-write failures and
  // N past the save's total write count (save succeeds).
  EXPECT_GT(failures, 0);
  EXPECT_GT(successes, 0);
}

TEST_F(StoreIoFaultTest, CommitFsyncAndRenameFailuresKeepTheOldSnapshot) {
  const fs::path target = Campus().dir / "commit.lds";
  SaveSnapshot(target, Campus().fresh, SnapshotMeta{40, 7});
  const std::string valid_bytes = ReadBytes(target);

  for (const char* spec : {"1:eio@fsync#1", "1:eio@rename#1"}) {
    InstallPlan(spec);
    EXPECT_THROW(SaveSnapshot(target, Campus().fresh, SnapshotMeta{40, 7}),
                 io::IoError)
        << spec;
    io::ClearFaultPlan();
    EXPECT_EQ(ReadBytes(target), valid_bytes) << spec;
    VerifySnapshot(target);
    EXPECT_TRUE(TmpLeftovers(Campus().dir).empty()) << spec;
  }
}

// --- Transient storms --------------------------------------------------------

TEST_F(StoreIoFaultTest, EintrAndShortWriteStormSavesBitIdentically) {
  const fs::path clean = Campus().dir / "clean.lds";
  const fs::path stormy = Campus().dir / "stormy.lds";
  SaveSnapshot(clean, Campus().fresh, SnapshotMeta{40, 7});

  io::SetRetryPolicy(io::RetryPolicy{.max_attempts = 16, .initial_backoff_us = 1});
  InstallPlan("13:eintr@write%0.3,short@write%0.3");
  SaveSnapshot(stormy, Campus().fresh, SnapshotMeta{40, 7});
  io::ClearFaultPlan();

  EXPECT_EQ(ReadBytes(stormy), ReadBytes(clean));
  VerifySnapshot(stormy);
}

// --- Orphan-tmp sweeping -----------------------------------------------------

/// A pid that existed a moment ago and is now certainly dead.
pid_t DeadPid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return pid;
}

void Plant(const fs::path& path) {
  io::File f = io::File::Create(path);
  f.WriteAll("torn snapshot fragment");
  f.Close();
}

TEST_F(StoreIoFaultTest, SweepRemovesDeadWritersTmpAndKeepsLiveOnes) {
  const fs::path target = Campus().dir / "orphans.lds";
  const fs::path dead_tmp =
      target.string() + ".tmp." + std::to_string(DeadPid());
  const fs::path garbage_tmp = target.string() + ".tmp.garbage";
  const fs::path live_tmp =
      target.string() + ".tmp." + std::to_string(::getpid());
  const fs::path unrelated = Campus().dir / "other.lds.tmp.123";
  Plant(dead_tmp);
  Plant(garbage_tmp);
  Plant(live_tmp);
  Plant(unrelated);

  const std::vector<fs::path> found = FindOrphanTmpFiles(target);
  EXPECT_EQ(found, (std::vector<fs::path>{dead_tmp, garbage_tmp}));

  const std::vector<fs::path> swept = SweepOrphanTmpFiles(target);
  EXPECT_EQ(swept, found);
  EXPECT_FALSE(fs::exists(dead_tmp));
  EXPECT_FALSE(fs::exists(garbage_tmp));
  EXPECT_TRUE(fs::exists(live_tmp));   // a live writer owns it
  EXPECT_TRUE(fs::exists(unrelated));  // different target's namespace

  fs::remove(live_tmp);
  fs::remove(unrelated);
}

TEST_F(StoreIoFaultTest, SaveSweepsAPredecessorsOrphans) {
  const fs::path target = Campus().dir / "recover.lds";
  const fs::path orphan =
      target.string() + ".tmp." + std::to_string(DeadPid());
  Plant(orphan);

  SaveSnapshot(target, Campus().fresh, SnapshotMeta{40, 7});
  EXPECT_FALSE(fs::exists(orphan));  // Writer's constructor swept it
  VerifySnapshot(target);
  EXPECT_TRUE(TmpLeftovers(Campus().dir).empty());
}

TEST_F(StoreIoFaultTest, MissingDirectoryMeansNoOrphans) {
  EXPECT_TRUE(
      FindOrphanTmpFiles(Campus().dir / "no-such-dir" / "x.lds").empty());
  EXPECT_TRUE(
      SweepOrphanTmpFiles(Campus().dir / "no-such-dir" / "x.lds").empty());
}

}  // namespace
}  // namespace lockdown::store
