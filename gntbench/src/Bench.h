//===- gntbench/src/Bench.h - Shared benchmark plumbing ---------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by every gntbench workload: the run options, the metric
/// report printed as the benchmark's last output line, the span tracer
/// that times calls into the program's layers from outside, and small
/// helpers for clocks, percentiles and process resource usage.
///
//===----------------------------------------------------------------------===//

#ifndef GNTBENCH_BENCH_H
#define GNTBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace gntbench {

using Clock = std::chrono::steady_clock;

inline double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// Command-line options of one benchmark process (one workload).
struct Options {
  std::string Workload;
  unsigned Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Shrinks every input pool so a workload finishes in seconds; used by
  /// the benchmark's own smoke tests.
  bool Smoke = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string TraceOut;
};

/// Nearest-rank percentile of \p V (sorted in place); 0 when empty.
double percentile(std::vector<double> &V, double P);

/// Median of \p V; 0 when empty.
double median(std::vector<double> V);

/// Windows a timed phase is cut into; a reported figure is the median
/// over windows, so one burst (a scrape stall, a noisy neighbour) moves
/// one window, not the figure.
constexpr unsigned NumWindows = 9;

/// Fewest samples a window needs so that ten lie beyond its p99.
constexpr std::size_t MinWindowSamples = 1010;

/// Fewest samples a window needs for a median or a mean.
constexpr std::size_t MinBulkWindowSamples = 200;

/// Splits \p Samples (in arrival order) into at most NumWindows
/// contiguous windows of at least \p MinSamples each and returns the
/// median over windows of \p Stat applied to each window's samples.
double windowedMedian(
    const std::vector<double> &Samples, std::size_t MinSamples,
    const std::function<double(std::vector<double> &Window)> &Stat);

/// windowedMedian of each window's \p P-th percentile; windows of at
/// least MinWindowSamples above the median, MinBulkWindowSamples up to it.
double windowedPercentile(const std::vector<double> &Samples, double P);

/// windowedMedian of each window's mean (MinBulkWindowSamples).
double windowedMean(const std::vector<double> &Samples);

/// Process user+sys CPU microseconds so far, every thread included.
double cpuUs();

/// Peak resident set of this process in MiB.
double peakRssMb();

/// Everything one run reports: the request tallies behind `attempted`
/// and `failed`, the metrics in print order, and the defects found.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  /// Records one failed check; the message goes to stderr at the end.
  void fail(const std::string &What);

  unsigned long long Attempted = 0;
  unsigned long long Failed = 0;

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;
  bool correct() const { return Failed == 0; }
  const std::vector<std::string> &problems() const { return Problems; }

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  std::vector<std::string> Problems;
};

/// In-memory span recorder. A span is one call into a layer, timed from
/// the benchmark's side of the boundary; spans of one request share its
/// id, and nesting is tracked through the parent index. When disabled
/// every method is a no-op, so untraced runs pay one branch per call.
class Tracer {
public:
  struct Span {
    const char *Name;
    double StartUs;
    double EndUs;
    int Parent; ///< Index of the enclosing span, -1 for a root.
    std::uint64_t Request;
  };

  explicit Tracer(bool On) : On(On), Origin(Clock::now()) {}

  bool enabled() const { return On; }

  /// Records a finished span with explicit endpoints.
  int add(const char *Name, Clock::time_point Start, Clock::time_point End,
          int Parent, std::uint64_t Request);

  /// Opens a span nested in the currently open one.
  int open(const char *Name, std::uint64_t Request);
  void close(int Idx);

  /// Duration of every span named \p Name, summed.
  double totalUs(const std::string &Name) const;

  /// Chrome trace-event JSON with one complete event per span and a
  /// per-name self-time summary under "otherData".
  bool writeChromeTrace(const std::string &Path) const;

  /// Per-name totals: count, inclusive and self microseconds (self =
  /// duration minus the part covered by child spans).
  struct NameTotals {
    std::string Name;
    std::size_t Count = 0;
    double TotalUs = 0;
    double SelfUs = 0;
  };
  std::vector<NameTotals> totals() const;

private:
  bool On;
  Clock::time_point Origin;
  std::vector<Span> Spans;
  int Current = -1;
};

/// RAII span around one layer call.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, std::uint64_t Request)
      : T(T), Idx(T.open(Name, Request)) {}
  ~ScopedSpan() { T.close(Idx); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int Idx;
};

} // namespace gntbench

#endif // GNTBENCH_BENCH_H
