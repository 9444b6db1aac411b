// In-memory span recorder for the campus benchmark.
//
// Every call the benchmark makes into a layer of the program is wrapped in a
// Scope: the span records its name, wall-clock start and end, the process
// CPU time it consumed, the span that was open when it started (its parent)
// and the id of the job it belongs to. Spans stay in memory and are written
// once, at the end of a run, as Chrome trace-event JSON that Perfetto loads.
//
// The epoch is taken when the recorder is constructed, before any span can
// open, so every timestamp is non-negative. All spans are opened on the
// benchmark's main thread; the program's own worker threads show up in a
// span's CPU time, not as spans.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// CPU seconds consumed by every thread of the process so far.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Span {
  std::string name;
  int job = 0;          ///< job id; 0 is the run's set-up
  int parent = -1;      ///< index of the enclosing span, -1 at top level
  bool step = false;    ///< a top-level span whose wall time is job time
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double cpu_s = 0.0;   ///< process CPU time consumed while open

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span on construction and closes it on destruction. `step`
  /// marks a span whose wall time counts toward its job's time; only
  /// top-level spans can be steps.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name, bool step = false)
        : recorder_(recorder), index_(recorder.Open(std::move(name), step)) {}
    ~Scope() { recorder_.Close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::size_t index_;
  };

  void SetJob(int job) { job_ = job; }
  [[nodiscard]] int job() const { return job_; }

  /// Wall seconds of the job's steps.
  [[nodiscard]] double JobSeconds(int job) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.job == job && s.step) total += s.seconds();
    }
    return total;
  }

  /// Wall seconds of each of the job's spans named `name`, in order.
  [[nodiscard]] std::vector<double> Durations(int job, std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.job == job && s.name == name) out.push_back(s.seconds());
    }
    return out;
  }

  /// Summed wall seconds of the job's spans named `name`.
  [[nodiscard]] double Seconds(int job, std::string_view name) const {
    double total = 0.0;
    for (const double d : Durations(job, name)) total += d;
    return total;
  }

  /// Summed process CPU seconds of the job's spans named `name`.
  [[nodiscard]] double CpuSeconds(int job, std::string_view name) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.job == job && s.name == name) total += s.cpu_s;
    }
    return total;
  }

  /// Summed self time (see SelfSeconds) of the job's spans named `name`.
  [[nodiscard]] double SelfSeconds(int job, std::string_view name) const {
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].job == job && spans_[i].name == name) total += SelfSeconds(i);
    }
    return total;
  }

  /// A span's duration minus the time its child spans cover. Children of
  /// one span run one after another on the same thread, so they never
  /// overlap and their durations add up.
  [[nodiscard]] double SelfSeconds(std::size_t index) const {
    double self = spans_[index].seconds();
    for (std::size_t i = index + 1; i < spans_.size(); ++i) {
      if (spans_[i].parent == static_cast<int>(index)) self -= spans_[i].seconds();
    }
    return self;
  }

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// timestamps are microseconds since the recorder was constructed.
  void WriteChromeTrace(std::ostream& out) const {
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string& parent =
          s.parent < 0 ? kNone : spans_[static_cast<std::size_t>(s.parent)].name;
      char buf[192];
      std::snprintf(buf, sizeof buf,
                    "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"job\":%d,\"step\":%s,\"self_us\":%.3f,\"cpu_us\":%.3f,",
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.job,
                    s.step ? "true" : "false", SelfSeconds(i) * 1e6, s.cpu_s * 1e6);
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"cat\":\""
          << (s.job == 0 ? "setup" : "job") << "\"," << buf << "\"parent\":\""
          << parent << "\"}}";
    }
    out << "\n]}\n";
  }

 private:
  inline static const std::string kNone;

  std::size_t Open(std::string name, bool step) {
    Span s;
    s.name = std::move(name);
    s.job = job_;
    s.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    s.step = step && open_.empty();
    s.cpu_s = ProcessCpuSeconds();
    s.start_ns = NowNs();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void Close(std::size_t index) {
    Span& s = spans_[index];
    s.end_ns = NowNs();
    s.cpu_s = ProcessCpuSeconds() - s.cpu_s;
    open_.pop_back();
  }

  [[nodiscard]] std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  int job_ = 0;
};

}  // namespace perfbench
