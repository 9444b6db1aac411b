// The kill-at-every-crash-point harness (DESIGN.md §12).
//
// For every crash point registered in src/io/crash_points.h, across several
// seeds, this test fork/execs the real lockdown_cli `snapshot save` with
// --io-crash-at so the child dies (_exit(125)) at precisely that operation,
// then proves the atomic-rename contract from the parent:
//
//   * the target file is bit-identical to either the previous valid
//     snapshot (crash before the rename) or the new one (crash after) —
//     never a torn in-between;
//   * store::VerifySnapshot passes on whatever the target holds;
//   * a crash before the rename leaves exactly one orphaned *.tmp file,
//     which FindOrphanTmpFiles attributes to the dead child;
//   * the next save sweeps the orphan, succeeds, and reproduces the new
//     snapshot bit-identically.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "io/crash_points.h"
#include "io/io.h"
#include "store/snapshot.h"

#include "../io/read_back.h"

namespace lockdown::store {
namespace {

namespace fs = std::filesystem;

constexpr int kStudents = 36;

struct RunResult {
  int exit_code = -1;
  std::string out;
};

/// Runs the CLI via the shell, merging stderr into the captured output.
RunResult RunCli(const std::string& args) {
  RunResult r;
  FILE* pipe = ::popen((std::string(LOCKDOWN_CLI_BIN) + " " + args + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = ::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.out.append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

std::string SaveArgs(const fs::path& target, std::uint64_t seed) {
  return "snapshot save --out " + target.string() +
         " --students " + std::to_string(kStudents) +
         " --seed " + std::to_string(seed);
}

std::string ReadBytes(const fs::path& path) {
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

class CrashHarness : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lds_crash_harness." + std::to_string(::getpid()));
    fs::create_directories(dir_);
    target_ = dir_ / "campus.lds";
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
  fs::path target_;
};

TEST_F(CrashHarness, EveryCrashPointLeavesOldValidOrNewValidNeverTorn) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));

    // The previous valid snapshot (seed) and, via a reference save to a
    // separate path, the exact bytes the interrupted save (seed+1) would
    // have produced — saves are byte-deterministic, so recovery can be
    // checked bit-for-bit.
    ASSERT_EQ(RunCli(SaveArgs(target_, seed)).exit_code, 0);
    const std::string old_bytes = ReadBytes(target_);
    const fs::path ref = dir_ / "reference.lds";
    ASSERT_EQ(RunCli(SaveArgs(ref, seed + 1)).exit_code, 0);
    const std::string new_bytes = ReadBytes(ref);
    ASSERT_NE(old_bytes, new_bytes);
    fs::remove(ref);

    for (const std::string_view point : io::kCrashPoints) {
      SCOPED_TRACE(std::string(point));
      // Restore the "previous valid snapshot" state for this point.
      {
        io::File f = io::File::Create(target_);
        f.WriteAll(old_bytes);
        f.Close();
      }

      const RunResult crashed = RunCli(SaveArgs(target_, seed + 1) +
                                       " --io-crash-at " + std::string(point));
      ASSERT_EQ(crashed.exit_code, io::kCrashExitCode) << crashed.out;

      const bool past_rename = point == "store.writer.post_rename";
      EXPECT_EQ(ReadBytes(target_), past_rename ? new_bytes : old_bytes);
      VerifySnapshot(target_);  // whatever survived must be a valid snapshot

      const std::vector<fs::path> orphans = FindOrphanTmpFiles(target_);
      if (past_rename) {
        // The tmp became the target; nothing to sweep.
        EXPECT_TRUE(orphans.empty());
      } else {
        // The dead child's tmp is attributable and swept-eligible.
        ASSERT_EQ(orphans.size(), 1u);
        EXPECT_NE(orphans[0].string().find(".tmp."), std::string::npos);
      }

      // Recovery: the next save sweeps the orphan and lands the new bytes.
      const RunResult recovered = RunCli(SaveArgs(target_, seed + 1));
      ASSERT_EQ(recovered.exit_code, 0) << recovered.out;
      if (!orphans.empty()) {
        EXPECT_NE(recovered.out.find("swept stale tmp file"), std::string::npos)
            << recovered.out;
      }
      EXPECT_EQ(ReadBytes(target_), new_bytes);
      VerifySnapshot(target_);
      EXPECT_TRUE(TmpLeftovers(dir_).empty());
    }
  }
}

TEST_F(CrashHarness, UnknownCrashPointIsAUsageError) {
  const RunResult r =
      RunCli(SaveArgs(target_, 11) + " --io-crash-at no.such.point");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.out.find("no.such.point"), std::string::npos);
  EXPECT_FALSE(fs::exists(target_));
}

TEST_F(CrashHarness, VerifyWarnsAboutStaleTmpFiles) {
  ASSERT_EQ(RunCli(SaveArgs(target_, 11)).exit_code, 0);
  {
    io::File f = io::File::Create(fs::path(target_.string() + ".tmp.garbage"));
    f.WriteAll("leftover");
    f.Close();
  }
  const RunResult r = RunCli("snapshot verify " + target_.string());
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("warning: stale tmp file:"), std::string::npos) << r.out;
}

}  // namespace
}  // namespace lockdown::store
