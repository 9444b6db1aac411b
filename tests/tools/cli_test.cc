// Drives the built lockdown_cli through its argument parser: every way of
// asking for help exits 0 with the help on stdout, every usage error exits 1
// with a stderr whose first line names the problem, and the help lists every
// tools/usage.h flag row and exit code. No case here gets past the parser
// into a pipeline run, so the whole suite takes milliseconds.
//
// Build-time configuration (see tests/CMakeLists.txt):
//   LOCKDOWN_CLI_BIN  absolute path of the built lockdown_cli binary
#include "tools/usage.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string out;
  std::string err;
};

// Runs lockdown_cli with `args`; stdout comes through the pipe, stderr
// through a temporary file named for this process (ctest runs the cases of
// this binary in parallel processes).
RunResult RunCli(const std::string& args) {
  const fs::path err_path =
      fs::path(testing::TempDir()) /
      ("cli_test_" + std::to_string(::getpid()) + ".stderr");
  const std::string cmd = std::string(LOCKDOWN_CLI_BIN) + " " + args + " 2>" +
                          err_path.string();
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return r;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) r.out.append(buf, n);
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(err_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  r.err = ss.str();
  fs::remove(err_path);
  return r;
}

std::string FirstLine(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

constexpr const char* kUsageLine = "usage: lockdown_cli <command> [flags]";

TEST(LockdownCli, TopLevelHelpExitsZeroWithHelpOnStdout) {
  for (const char* args : {"--help", "-h", "help"}) {
    const RunResult r = RunCli(args);
    EXPECT_EQ(r.exit_code, 0) << args;
    EXPECT_EQ(FirstLine(r.out), kUsageLine) << args;
    EXPECT_EQ(r.err, "") << args;
  }
}

TEST(LockdownCli, CommandHelpPrintsTheSameHelp) {
  const std::string help = RunCli("--help").out;
  ASSERT_FALSE(help.empty());
  for (const char* args :
       {"simulate --help", "analyze --help", "study --help", "fault --help",
        "catalog --help", "study --seed 7 --help", "snapshot save --help",
        "snapshot info --help", "snapshot verify -h", "snapshot --help"}) {
    const RunResult r = RunCli(args);
    EXPECT_EQ(r.exit_code, 0) << args;
    EXPECT_EQ(r.out, help) << args;
    EXPECT_EQ(r.err, "") << args;
  }
}

TEST(LockdownCli, UsageErrorsExitOneAndNameTheProblem) {
  struct Case {
    const char* args;
    const char* first_stderr_line;
  };
  for (const Case& c : {
           Case{"", kUsageLine},
           Case{"frobnicate", kUsageLine},
           Case{"study --bogus", "unknown argument: --bogus"},
           Case{"study --seed", "--seed wants S, got no value"},
           Case{"simulate --out", "--out wants DIR|FILE, got no value"},
           Case{"study --threads 300",
                "--threads wants an integer in [0, 256], got: 300"},
           Case{"study --students 0",
                "--students wants a positive integer, got: 0"},
           Case{"study --students 20x",
                "--students wants a positive integer, got: 20x"},
           Case{"analyze --logs nowhere --max-error-rate 2",
                "--max-error-rate wants a number in [0, 1], got: 2"},
           Case{"analyze --logs nowhere --ingest-mode lenient",
                "--ingest-mode must be strict or tolerant, got: lenient"},
           Case{"study --memory-budget lots",
                "--memory-budget wants a byte size like 33554432, 64M or 2G, "
                "got: lots"},
           Case{"snapshot", kUsageLine},
           Case{"snapshot frobnicate", kUsageLine},
       }) {
    const RunResult r = RunCli(c.args);
    EXPECT_EQ(r.exit_code, 1) << c.args;
    EXPECT_EQ(FirstLine(r.err), c.first_stderr_line) << c.args;
    EXPECT_EQ(r.out, "") << c.args;
  }
}

TEST(LockdownCli, SnapshotCommandsWithoutFileAreUsageErrors) {
  for (const char* sub : {"info", "verify"}) {
    const RunResult r = RunCli(std::string("snapshot ") + sub);
    EXPECT_EQ(r.exit_code, 1) << sub;
    EXPECT_EQ(FirstLine(r.err),
              std::string("snapshot ") + sub + " requires a FILE argument");
  }
}

// The help section that starts at the line `heading`, up to the next blank
// line.
std::string HelpSection(const std::string& help, const std::string& heading) {
  const std::size_t begin = help.find("\n" + heading + "\n");
  if (begin == std::string::npos) return "";
  const std::size_t end = help.find("\n\n", begin + 1);
  return help.substr(begin + 1, end == std::string::npos ? end : end - begin);
}

TEST(CliUsage, EveryPublicFlagIsDocumented) {
  const std::string flags = HelpSection(RunCli("--help").out, "flags:");
  ASSERT_FALSE(flags.empty());
  for (const lockdown::cli::FlagRow& row : lockdown::cli::kFlags) {
    std::string head = "\n  ";
    head += row.name;
    if (!row.value.empty()) {
      head += ' ';
      head += row.value;
    }
    head += ' ';
    EXPECT_NE(flags.find(head), std::string::npos)
        << "the help's flags: section does not list " << row.name;
  }
}

TEST(CliUsage, EveryExitCodeIsDocumented) {
  const std::string codes = HelpSection(RunCli("--help").out, "exit codes:");
  ASSERT_FALSE(codes.empty());
  for (const lockdown::cli::ExitCodeRow& row : lockdown::cli::kExitCodes) {
    const std::string line = "\n  " + std::to_string(row.code) + "  " +
                             std::string(row.meaning) + "\n";
    EXPECT_NE(codes.find(line), std::string::npos)
        << "exit code " << row.code << " missing from the help";
  }
}

TEST(CliUsage, DocumentsTheStreamingSurface) {
  const std::string help = RunCli("--help").out;
  EXPECT_NE(help.find("[--streaming]"), std::string::npos);
  EXPECT_NE(help.find("[--memory-budget BYTES]"), std::string::npos);
  EXPECT_NE(help.find("accuracy report"), std::string::npos);
}

}  // namespace
