// Unit tests for the crash-safe IO layer (src/io): the deterministic fault
// injector and its spec grammar, the retry policy's exact backoff schedule
// (via the virtual-clock sleep hook), io::File's completion loops under
// injected short/transient/permanent faults, crash-point arming semantics,
// and the io/* observability counters.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "io/crash_points.h"
#include "io/io.h"
#include "obs/metrics.h"
#include "read_back.h"

namespace lockdown::io {
namespace {

namespace fs = std::filesystem;
using testing::ReadBack;

std::vector<std::uint64_t>& CapturedSleeps() {
  static std::vector<std::uint64_t> sleeps;
  return sleeps;
}

void CaptureSleep(std::uint64_t micros) { CapturedSleeps().push_back(micros); }

std::uint64_t CounterValueOf(const obs::MetricsSnapshot& snap,
                             std::string_view name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

FaultPlan MustParse(std::string_view spec) {
  std::string error;
  const auto plan = ParseFaultPlan(spec, &error);
  EXPECT_TRUE(plan.has_value()) << spec << ": " << error;
  return plan.value_or(FaultPlan{});
}

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClearFaultPlan();
    DisarmCrashPoints();
    SetRetryPolicy(RetryPolicy{});
    SetSleepFnForTest(nullptr);
    CapturedSleeps().clear();
    char tmpl[] = "/tmp/lockdown_io_test.XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    dir_ = dir;
  }

  void TearDown() override {
    ClearFaultPlan();
    DisarmCrashPoints();
    SetRetryPolicy(RetryPolicy{});
    SetSleepFnForTest(nullptr);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] fs::path Path(const char* name) const { return dir_ / name; }

  fs::path dir_;
};

// --- RetryPolicy -------------------------------------------------------------

TEST_F(IoTest, BackoffDoublesFromInitialAndCaps) {
  const RetryPolicy p;  // 100us initial, 50ms cap
  EXPECT_EQ(p.BackoffUs(1), 100u);
  EXPECT_EQ(p.BackoffUs(2), 200u);
  EXPECT_EQ(p.BackoffUs(3), 400u);
  EXPECT_EQ(p.BackoffUs(5), 1600u);
  EXPECT_EQ(p.BackoffUs(10), 50'000u);  // 100 * 2^9 = 51200 -> capped
  EXPECT_EQ(p.BackoffUs(63), 50'000u);  // far past any overflow hazard
}

TEST_F(IoTest, BackoffWithZeroInitialStaysZero) {
  const RetryPolicy p{.initial_backoff_us = 0};
  EXPECT_EQ(p.BackoffUs(1), 0u);
  EXPECT_EQ(p.BackoffUs(7), 0u);
}

TEST_F(IoTest, AlwaysTransientIsExactlyTheInterruptErrnos) {
  EXPECT_TRUE(RetryPolicy::AlwaysTransient(EINTR));
  EXPECT_TRUE(RetryPolicy::AlwaysTransient(EAGAIN));
  EXPECT_FALSE(RetryPolicy::AlwaysTransient(ENOSPC));
  EXPECT_FALSE(RetryPolicy::AlwaysTransient(EIO));
  EXPECT_FALSE(RetryPolicy::AlwaysTransient(ENOENT));
  EXPECT_FALSE(RetryPolicy::AlwaysTransient(0));
}

// --- Spec grammar ------------------------------------------------------------

TEST_F(IoTest, ParsesSingleIndexedClause) {
  const FaultPlan plan = MustParse("7:enospc@write#12");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.clauses.size(), 1u);
  EXPECT_EQ(plan.clauses[0].kind, FaultKind::kEnospc);
  EXPECT_EQ(plan.clauses[0].op, Op::kWrite);
  EXPECT_FALSE(plan.clauses[0].all_ops);
  EXPECT_EQ(plan.clauses[0].at_index, 12u);
  EXPECT_EQ(plan.clauses[0].probability, 0.0);
}

TEST_F(IoTest, ParsesProbabilityAndMultiClauseSpecs) {
  const FaultPlan plan = MustParse("42:eintr@read%0.5,short@all,eio@fsync#1");
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.clauses.size(), 3u);
  EXPECT_EQ(plan.clauses[0].kind, FaultKind::kEintr);
  EXPECT_DOUBLE_EQ(plan.clauses[0].probability, 0.5);
  EXPECT_TRUE(plan.clauses[1].all_ops);
  EXPECT_EQ(plan.clauses[1].kind, FaultKind::kShort);
  EXPECT_EQ(plan.clauses[2].op, Op::kFsync);
}

TEST_F(IoTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "no-colon",            // missing seed separator
      "x:eio@write",         // non-numeric seed
      ":eio@write",          // empty seed
      "1:",                  // no clauses
      "1:eio",               // missing @op
      "1:frob@write",        // unknown kind
      "1:eio@frobnicate",    // unknown op
      "1:short@fsync",       // short needs a byte count
      "1:eio@write#0",       // indices are 1-based
      "1:eio@write#x",       // non-numeric index
      "1:eio@write%0",       // probability must be > 0
      "1:eio@write%1.5",     // probability must be <= 1
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(ParseFaultPlan(spec, &error).has_value()) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

// --- Injector ----------------------------------------------------------------

TEST_F(IoTest, IndexedClauseFiresAtExactlyThatAttempt) {
  SetFaultPlan(MustParse("1:enospc@write#3"));
  EXPECT_FALSE(NextFault(Op::kWrite).has_value());
  EXPECT_FALSE(NextFault(Op::kWrite).has_value());
  const auto third = NextFault(Op::kWrite);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->err, ENOSPC);
  EXPECT_FALSE(NextFault(Op::kWrite).has_value());
  // Other op kinds keep their own attempt counters.
  EXPECT_FALSE(NextFault(Op::kRead).has_value());
}

TEST_F(IoTest, ProbabilityDrawsAreDeterministicPerSeed) {
  const auto draw = [](std::uint64_t seed) {
    FaultPlan plan = MustParse("1:eintr@read%0.5");
    plan.seed = seed;
    SetFaultPlan(plan);
    std::vector<bool> fired;
    for (int i = 0; i < 50; ++i) fired.push_back(NextFault(Op::kRead).has_value());
    return fired;
  };
  const std::vector<bool> a = draw(42);
  const std::vector<bool> b = draw(42);
  EXPECT_EQ(a, b);  // SetFaultPlan fully resets counters and streams
  // A fair coin over 50 deterministic draws fires some but not all.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 50);
}

TEST_F(IoTest, InjectionDisabledIsInert) {
  EXPECT_FALSE(FaultInjectionEnabled());
  EXPECT_FALSE(NextFault(Op::kWrite).has_value());
  SetFaultPlan(MustParse("1:eio@write#1"));
  EXPECT_TRUE(FaultInjectionEnabled());
  ClearFaultPlan();
  EXPECT_FALSE(FaultInjectionEnabled());
}

TEST_F(IoTest, ShortDegradesToNoFaultOnNonByteOps) {
  SetFaultPlan(MustParse("1:short@all"));
  EXPECT_FALSE(NextFault(Op::kFsync).has_value());
  EXPECT_FALSE(NextFault(Op::kRename).has_value());
  const auto w = NextFault(Op::kWrite);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(w->short_io);
  EXPECT_EQ(w->err, 0);
}

// --- File: faults through the shim ------------------------------------------

TEST_F(IoTest, TransientWriteFaultIsAbsorbed) {
  SetFaultPlan(MustParse("1:eintr@write#1"));
  File f = File::Create(Path("t.bin"));
  f.WriteAll("hello");
  f.Close();
  EXPECT_EQ(ReadBack(Path("t.bin")), "hello");
}

TEST_F(IoTest, PermanentWriteFaultSurfacesWithTaxonomy) {
  SetFaultPlan(MustParse("1:enospc@write#1"));
  File f = File::Create(Path("t.bin"));
  try {
    f.WriteAll("hello");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), ENOSPC);
    EXPECT_EQ(e.op(), "write");
    EXPECT_EQ(e.path(), Path("t.bin"));
    EXPECT_NE(std::string(e.what()).find("write"), std::string::npos);
  }
}

TEST_F(IoTest, ShortWritesAreCompletedBitIdentically) {
  const std::string payload(100'000, '\0');
  std::string varied = payload;
  for (std::size_t i = 0; i < varied.size(); ++i) {
    varied[i] = static_cast<char>(i * 131 % 251);
  }
  SetFaultPlan(MustParse("1:short@write%1"));  // every attempt halved
  File f = File::Create(Path("t.bin"));
  f.WriteAll(varied);
  f.Close();
  ClearFaultPlan();
  EXPECT_EQ(ReadBack(Path("t.bin")), varied);
}

TEST_F(IoTest, EintrReadStormReturnsIdenticalBytes) {
  std::string body;
  for (int i = 0; i < 90'000; ++i) body += static_cast<char>('a' + i % 23);
  {
    File f = File::Create(Path("t.bin"));
    f.WriteAll(body);
    f.Close();
  }
  // A fair-coin EINTR on every read attempt; a deeper retry budget keeps
  // even a long deterministic run of heads transient.
  SetRetryPolicy(RetryPolicy{.max_attempts = 16, .initial_backoff_us = 1});
  SetFaultPlan(MustParse("9:eintr@read%0.5"));
  EXPECT_EQ(ReadBack(Path("t.bin")), body);
}

TEST_F(IoTest, EioRespectsTheBudget) {
  SetFaultPlan(MustParse("1:eio@write#1"));
  File f = File::Create(Path("t.bin"));
  EXPECT_THROW(f.WriteAll("x"), IoError);  // default budget: EIO is permanent

  SetRetryPolicy(RetryPolicy{.eio_budget = 2});
  SetFaultPlan(MustParse("1:eio@write#1"));
  File g = File::Create(Path("u.bin"));
  g.WriteAll("x");  // absorbed: one EIO within a budget of two
  g.Close();
  EXPECT_EQ(ReadBack(Path("u.bin")), "x");
}

TEST_F(IoTest, ExhaustedRetriesFollowTheExactBackoffSchedule) {
  SetSleepFnForTest(&CaptureSleep);
  SetFaultPlan(MustParse("1:eintr@write"));  // fires on every attempt
  File f = File::Create(Path("t.bin"));
  try {
    f.WriteAll("x");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), EINTR);
  }
  const std::vector<std::uint64_t> want = {100, 200, 400, 800, 1600};
  EXPECT_EQ(CapturedSleeps(), want);  // max_attempts=6 -> 5 backoffs
}

TEST_F(IoTest, OpenAndRenameFaultsCarryTheirOpNames) {
  SetFaultPlan(MustParse("1:enospc@open#1"));
  try {
    (void)File::Create(Path("t.bin"));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), "open");
  }
  ClearFaultPlan();
  {
    File f = File::Create(Path("t.bin"));
    f.WriteAll("x");
    f.Close();
  }
  SetFaultPlan(MustParse("1:eio@rename#1"));
  try {
    Rename(Path("t.bin"), Path("u.bin"));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.op(), "rename");
    EXPECT_EQ(e.path(), Path("u.bin"));  // errors name the destination
  }
  ClearFaultPlan();
  EXPECT_TRUE(fs::exists(Path("t.bin")));  // injected before the syscall ran
}

TEST_F(IoTest, FsyncDirSurfacesRealFailuresAbsorbsTransients) {
  SetFaultPlan(MustParse("1:eintr@fsync#1"));
  FsyncDir(dir_);  // transient absorbed
  SetFaultPlan(MustParse("1:eio@fsync#1"));
  EXPECT_THROW(FsyncDir(dir_), IoError);  // EIO on a dir sync is real
}

TEST_F(IoTest, TryRemoveNeverThrows) {
  {
    File f = File::Create(Path("t.bin"));
    f.Close();
  }
  SetFaultPlan(MustParse("1:enospc@all"));  // TryRemove bypasses injection
  EXPECT_TRUE(TryRemove(Path("t.bin")));
  EXPECT_FALSE(TryRemove(Path("t.bin")));  // already gone
}

TEST_F(IoTest, CloseIsCheckedAndIdempotent) {
  File f = File::Create(Path("t.bin"));
  SetFaultPlan(MustParse("1:eio@close#1"));
  EXPECT_THROW(f.Close(), IoError);
  EXPECT_FALSE(f.valid());  // the fd is gone either way
  f.Close();                // idempotent once closed
}

// --- FileStreamBuf -----------------------------------------------------------

TEST_F(IoTest, StreamBufRoundTripsThroughTheShim) {
  {
    FileStreamBuf buf(File::Create(Path("log.tsv")), 8);  // tiny: forces spills
    std::ostream out(&buf);
    out.exceptions(std::ios::badbit);
    out << "alpha\t" << 12345 << "\nbeta\t" << 67890 << "\n";
    out.flush();
    buf.file().Close();
  }
  EXPECT_EQ(ReadBack(Path("log.tsv")),
            "alpha\t12345\nbeta\t67890\n");
}

TEST_F(IoTest, StreamBufPropagatesIoErrorOutOfInsertion) {
  FileStreamBuf buf(File::Create(Path("log.tsv")), 4);
  std::ostream out(&buf);
  out.exceptions(std::ios::badbit);
  SetFaultPlan(MustParse("1:enospc@write"));
  EXPECT_THROW(out << "a line long enough to overflow the buffer", IoError);
  EXPECT_TRUE(out.bad());
}

// --- Crash points ------------------------------------------------------------

TEST_F(IoTest, ArmRejectsUnregisteredNames) {
  EXPECT_FALSE(ArmCrashPoint("no.such.point"));
  EXPECT_FALSE(CrashPointArmed("no.such.point"));
  ASSERT_TRUE(ArmCrashPoint("store.writer.pre_rename"));
  EXPECT_TRUE(CrashPointArmed("store.writer.pre_rename"));
  EXPECT_FALSE(CrashPointArmed("store.writer.pre_fsync"));
  DisarmCrashPoints();
  EXPECT_FALSE(CrashPointArmed("store.writer.pre_rename"));
}

TEST_F(IoTest, CrashPointExitsWithTheHarnessCodeOnlyWhenArmed) {
  CrashPoint("store.writer.pre_rename");  // unarmed: returns
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!ArmCrashPoint("store.writer.pre_rename")) ::_exit(10);
    CrashPoint("store.writer.mid_write");   // different point: no-op
    CrashPoint("store.writer.pre_rename");  // dies here
    ::_exit(11);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), kCrashExitCode);
}

TEST_F(IoTest, RegistryIsSortedUnique) {
  for (std::size_t i = 1; i < kCrashPoints.size(); ++i) {
    EXPECT_LT(kCrashPoints[i - 1], kCrashPoints[i]);
  }
}

// --- Env configuration -------------------------------------------------------

TEST_F(IoTest, ConfigureFromEnvInstallsPlanAndCrashPoint) {
  ASSERT_EQ(::setenv("LOCKDOWN_IO_FAULT", "5:enospc@write#1", 1), 0);
  ASSERT_EQ(::setenv("LOCKDOWN_IO_CRASH_AT", "store.writer.pre_fsync", 1), 0);
  EXPECT_EQ(ConfigureFromEnv(), "");
  EXPECT_TRUE(FaultInjectionEnabled());
  EXPECT_TRUE(CrashPointArmed("store.writer.pre_fsync"));
  ::unsetenv("LOCKDOWN_IO_FAULT");
  ::unsetenv("LOCKDOWN_IO_CRASH_AT");
}

TEST_F(IoTest, ConfigureFromEnvNamesTheBadVariable) {
  ASSERT_EQ(::setenv("LOCKDOWN_IO_FAULT", "not-a-spec", 1), 0);
  EXPECT_NE(ConfigureFromEnv().find("LOCKDOWN_IO_FAULT"), std::string::npos);
  ::unsetenv("LOCKDOWN_IO_FAULT");

  ASSERT_EQ(::setenv("LOCKDOWN_IO_CRASH_AT", "bogus.point", 1), 0);
  EXPECT_NE(ConfigureFromEnv().find("LOCKDOWN_IO_CRASH_AT"), std::string::npos);
  ::unsetenv("LOCKDOWN_IO_CRASH_AT");

  ::unsetenv("LOCKDOWN_IO_FAULT");
  EXPECT_EQ(ConfigureFromEnv(), "");
}

// --- Observability -----------------------------------------------------------

TEST_F(IoTest, RetryAndInjectionCountersAdvance) {
  obs::SetMetricsEnabled(true);
  const auto before = obs::SnapshotMetrics();
  SetFaultPlan(MustParse("1:eintr@write#1"));
  File f = File::Create(Path("t.bin"));
  f.WriteAll("x");  // one injected EINTR, one retry
  f.Close();
  const auto after = obs::SnapshotMetrics();
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(CounterValueOf(after, "io/faults_injected") -
                CounterValueOf(before, "io/faults_injected"),
            1u);
  EXPECT_EQ(CounterValueOf(after, "io/retries") -
                CounterValueOf(before, "io/retries"),
            1u);
}

}  // namespace
}  // namespace lockdown::io
