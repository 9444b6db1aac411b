// The lockdown_cli help text, flag table and exit codes: the one place each
// is written down.
//
// kFlags has one row per flag, in help order. lockdown_cli's parser looks
// every argument up in it and switches on the row's Flag with no default, so
// a row without a parser case fails the build (-Wswitch, an error for
// lockdown_cli). The help's `flags:` section is rendered from the rows and
// its `exit codes:` section from kExitCodes. static_asserts below check that
// the rows are unique and that every `--flag` the command synopses mention
// names a row. To add a flag: add an enumerator, a row and a parser case.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <string_view>

namespace lockdown::cli {

enum class Flag {
  kCompress,
  kOut,
  kLogs,
  kStudents,
  kSeed,
  kThreads,
  kIngestMode,
  kMaxErrorRate,
  kQuarantineDir,
  kRate,
  kKind,
  kStreaming,
  kMemoryBudget,
  kMetricsOut,
  kTraceOut,
  kIoCrashAt,
  kHelp,
};

struct FlagRow {
  Flag flag;
  std::string_view name;
  std::string_view value;  // the value's placeholder; empty for a switch
  std::string_view help;   // '\n' between help lines
};

inline constexpr std::array kFlags = {
    FlagRow{Flag::kCompress, "--compress", "",
            "snapshot save: columnar-coded sections instead of the\n"
            "raw flow array (smaller file, no zero-copy load)"},
    FlagRow{Flag::kOut, "--out", "DIR|FILE",
            "output directory (simulate, fault) or file (snapshot save)"},
    FlagRow{Flag::kLogs, "--logs", "DIR",
            "input directory holding the collection logs"},
    FlagRow{Flag::kStudents, "--students", "N",
            "simulated student count (default 400)"},
    FlagRow{Flag::kSeed, "--seed", "S",
            "simulation / anonymization / fault seed (default 2020)"},
    FlagRow{Flag::kThreads, "--threads", "T",
            "worker threads in [0,256]; 0 (default) defers to\n"
            "LOCKDOWN_THREADS, then the hardware (both capped at\n"
            "256). Results are identical at any count."},
    FlagRow{Flag::kIngestMode, "--ingest-mode", "M",
            "strict (default) rejects a log on the first malformed\n"
            "row; tolerant skips and accounts malformed rows"},
    FlagRow{Flag::kMaxErrorRate, "--max-error-rate", "R",
            "tolerant-mode rejection budget in [0,1] (default 0.01)"},
    FlagRow{Flag::kQuarantineDir, "--quarantine-dir", "DIR",
            "write rejected lines to DIR/<log>.rej"},
    FlagRow{Flag::kRate, "--rate", "R",
            "fault injection rate in [0,1] (default 0.01)"},
    FlagRow{Flag::kKind, "--kind", "K", "fault kind (default mixed)"},
    FlagRow{Flag::kStreaming, "--streaming", "",
            "use the one-pass bounded-memory study engine"},
    FlagRow{Flag::kMemoryBudget, "--memory-budget", "BYTES",
            "streaming analysis-state budget (default 32M)"},
    FlagRow{Flag::kMetricsOut, "--metrics-out", "FILE",
            "write the obs metrics snapshot (counters, gauges,\n"
            "histograms) as JSON to FILE at exit"},
    FlagRow{Flag::kTraceOut, "--trace-out", "FILE",
            "write scoped-span timing as Chrome trace-event JSON\n"
            "to FILE at exit (load in chrome://tracing or Perfetto)"},
    FlagRow{Flag::kIoCrashAt, "--io-crash-at", "POINT",
            "crash-harness hook: _exit(125) at the named IO crash\n"
            "point (registry: src/io/crash_points.h; DESIGN.md §12)"},
    FlagRow{Flag::kHelp, "--help", "", "print this help and exit 0"},
};

/// The row named `name`, or nullptr.
constexpr const FlagRow* FindFlag(std::string_view name) {
  for (const FlagRow& row : kFlags) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 1;
inline constexpr int kExitIo = 2;
inline constexpr int kExitBudget = 3;
inline constexpr int kExitCorruptSnapshot = 4;

struct ExitCodeRow {
  int code;
  std::string_view meaning;
};

inline constexpr std::array kExitCodes = {
    ExitCodeRow{kExitOk, "success"},
    ExitCodeRow{kExitUsage, "usage error (unknown command/flag, bad flag value)"},
    ExitCodeRow{kExitIo, "I/O error (missing file, failed read/write)"},
    ExitCodeRow{kExitBudget,
                "malformed input beyond the tolerant-mode error budget"},
    ExitCodeRow{kExitCorruptSnapshot,
                "corrupt dataset.lds snapshot with no TSV fallback available"},
};

/// The help up to its `flags:` section: the command synopses.
inline constexpr std::string_view kCommandsText =
    R"(usage: lockdown_cli <command> [flags]
       lockdown_cli --help | help

commands:
  simulate --out DIR [--students N] [--seed S]
      Simulate the campus and write the four collection logs
      (conn/dhcp/dns/ua) into DIR.
  analyze --logs DIR [--students N] [--seed S] [--threads T]
          [--ingest-mode strict|tolerant] [--max-error-rate R]
          [--quarantine-dir DIR]
      Ingest previously exported logs (or a dataset.lds snapshot in DIR)
      and print the headline statistics.
  study [--students N] [--seed S] [--threads T]
        [--streaming] [--memory-budget BYTES]
      One-shot: simulate + process + print the figure summaries.
      --streaming runs the figure pass with bounded-memory sketches
      instead of exact populations and appends its accuracy report;
      --memory-budget caps the sketch state (binary suffixes accepted: 64M, 2G;
      default 32M, implies --streaming).
  snapshot save --out FILE [--logs DIR] [--students N] [--seed S] [--threads T]
                [--compress]
      Persist the processed dataset as an LDS snapshot. --compress stores
      the flows as dictionary/delta-varint coded columns (smaller file, no
      zero-copy load).
  snapshot info FILE
      Print snapshot header, provenance and per-section table (codec,
      stored vs raw bytes, compression ratio).
  snapshot verify FILE
      Full integrity check; exits non-zero on any corruption.
  fault --logs DIR --out DIR [--seed S] [--rate R] [--kind K]
      Copy the collection logs through the deterministic fault injector
      (--kind truncate_tail|bit_flip|drop_line|duplicate_line|
      splice_garbage|mixed).
  catalog
      Dump the synthetic service catalog.
)";

/// Every `--word` in `text` names a row of kFlags.
consteval bool NamesOnlyKnownFlags(std::string_view text) {
  const auto in_word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
  };
  for (std::size_t i = 0; i + 2 < text.size(); ++i) {
    if (text.substr(i, 2) != "--" || (i > 0 && in_word(text[i - 1]))) continue;
    std::size_t end = i + 2;
    while (end < text.size() && in_word(text[end])) ++end;
    // Not FindFlag: under -fsanitize GCC cannot compare an address with
    // nullptr in a constant expression.
    const std::string_view word = text.substr(i, end - i);
    bool known = false;
    for (const FlagRow& row : kFlags) known = known || row.name == word;
    if (!known) return false;
    i = end;
  }
  return true;
}

consteval bool FlagRowsAreUnique() {
  for (std::size_t i = 0; i < kFlags.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (kFlags[i].name == kFlags[j].name || kFlags[i].flag == kFlags[j].flag) {
        return false;
      }
    }
  }
  return true;
}

static_assert(NamesOnlyKnownFlags(kCommandsText),
              "a command synopsis names a flag that has no kFlags row");
static_assert(FlagRowsAreUnique(), "two kFlags rows share a name or a Flag");

/// The full `lockdown_cli --help` text.
inline std::string UsageText() {
  constexpr std::size_t kHelpColumn = 24;
  std::string text(kCommandsText);
  text += "\nflags:\n";
  for (const FlagRow& row : kFlags) {
    std::string head = "  ";
    head += row.name;
    if (!row.value.empty()) {
      head += ' ';
      head += row.value;
    }
    head.resize(std::max(head.size() + 1, kHelpColumn), ' ');
    text += head;
    for (const char c : row.help) {
      text += c;
      if (c == '\n') text.append(kHelpColumn, ' ');
    }
    text += '\n';
  }
  text += "\nexit codes:\n";
  for (const ExitCodeRow& row : kExitCodes) {
    text += "  " + std::to_string(row.code) + "  " + std::string(row.meaning) + "\n";
  }
  return text;
}

}  // namespace lockdown::cli
