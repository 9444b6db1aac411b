// The lockdown_cli help text and the machine-checkable flag inventory.
//
// kUsageText is the single source of truth printed by `lockdown_cli --help`
// (and on usage errors). kPublicFlags lists every public flag; a test
// asserts each one appears in kUsageText so the help cannot drift from the
// parser again. Update both when adding a flag.
#pragma once

#include <array>
#include <string_view>

namespace lockdown::cli {

inline constexpr std::string_view kUsageText =
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

flags:
  --compress            snapshot save: columnar-coded sections instead of the
                        raw flow array (smaller file, no zero-copy load)
  --out DIR|FILE        output directory (simulate, fault) or file (snapshot save)
  --logs DIR            input directory holding the collection logs
  --students N          simulated student count (default 400)
  --seed S              simulation / anonymization / fault seed (default 2020)
  --threads T           worker threads in [0,256]; 0 (default) defers to
                        LOCKDOWN_THREADS, then the hardware (both capped at
                        256). Results are identical at any count.
  --ingest-mode M       strict (default) rejects a log on the first malformed
                        row; tolerant skips and accounts malformed rows
  --max-error-rate R    tolerant-mode rejection budget in [0,1] (default 0.01)
  --quarantine-dir DIR  write rejected lines to DIR/<log>.rej
  --rate R              fault injection rate in [0,1] (default 0.01)
  --kind K              fault kind (default mixed)
  --streaming           use the one-pass bounded-memory study engine
  --memory-budget BYTES streaming analysis-state budget (default 32M)
  --metrics-out FILE    write the obs metrics snapshot (counters, gauges,
                        histograms) as JSON to FILE at exit
  --trace-out FILE      write scoped-span timing as Chrome trace-event JSON
                        to FILE at exit (load in chrome://tracing or Perfetto)
  --io-crash-at POINT   crash-harness hook: _exit(125) at the named IO crash
                        point (registry: src/io/crash_points.h; DESIGN.md §12)
  --help                print this help and exit 0

exit codes:
  0  success
  1  usage error (unknown command/flag, bad flag value)
  2  I/O error (missing file, failed read/write)
  3  malformed input beyond the tolerant-mode error budget
  4  corrupt dataset.lds snapshot with no TSV fallback available
)";

/// Every public flag, for the help-drift test. Keep sorted.
inline constexpr std::array<std::string_view, 17> kPublicFlags = {
    "--compress",      "--help",        "--ingest-mode",
    "--io-crash-at",   "--kind",        "--logs",
    "--max-error-rate", "--memory-budget", "--metrics-out",
    "--out",           "--quarantine-dir", "--rate",
    "--seed",          "--streaming",   "--students",
    "--threads",       "--trace-out",
};

/// The exit codes kUsageText must document, matching lockdown_cli.cc.
inline constexpr std::array<int, 4> kDocumentedExitCodes = {1, 2, 3, 4};

}  // namespace lockdown::cli
