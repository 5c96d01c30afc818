//===- gntbench/src/Bench.cpp - Shared benchmark plumbing -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <map>

using namespace gntbench;

double gntbench::percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size());
  std::size_t Idx = static_cast<std::size_t>(Rank);
  return V[std::min(Idx, V.size() - 1)];
}

double gntbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double gntbench::windowedMedian(
    const std::vector<double> &Samples, std::size_t MinSamples,
    const std::function<double(std::vector<double> &Window)> &Stat) {
  std::size_t Windows = std::max<std::size_t>(
      1, std::min<std::size_t>(NumWindows, Samples.size() / MinSamples));
  std::vector<double> PerWindow;
  for (std::size_t W = 0; W < Windows; ++W) {
    std::vector<double> Slice(
        Samples.begin() + W * Samples.size() / Windows,
        Samples.begin() + (W + 1) * Samples.size() / Windows);
    PerWindow.push_back(Stat(Slice));
  }
  return median(PerWindow);
}

double gntbench::windowedPercentile(const std::vector<double> &Samples,
                                    double P) {
  return windowedMedian(
      Samples, P > 50 ? MinWindowSamples : MinBulkWindowSamples,
      [P](std::vector<double> &W) { return percentile(W, P); });
}

double gntbench::windowedMean(const std::vector<double> &Samples) {
  auto Mean = [](std::vector<double> &W) {
    double Sum = 0;
    for (double X : W)
      Sum += X;
    return W.empty() ? 0 : Sum / static_cast<double>(W.size());
  };
  return windowedMedian(Samples, MinBulkWindowSamples, Mean);
}

double gntbench::cpuUs() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e6 +
         static_cast<double>(T.tv_nsec) / 1e3;
}

double gntbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  Metrics.push_back({Name, Value, Unit});
}

void Report::fail(const std::string &What) {
  ++Failed;
  // Keep the first few verbatim; a systematic defect would otherwise
  // flood stderr with thousands of identical lines.
  if (Problems.size() < 20)
    Problems.push_back(What);
}

std::string Report::json() const {
  gnt::JsonWriter W;
  W.beginObject();
  W.key("correct").value(correct());
  W.key("attempted").value(static_cast<long long>(Attempted));
  W.key("failed").value(static_cast<long long>(Failed));
  W.key("metrics");
  W.beginObject();
  for (const Metric &M : Metrics) {
    W.key(M.Name);
    W.beginObject();
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    W.key("value").raw(Buf);
    W.key("unit").value(M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.str();
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

int Tracer::add(const char *Name, Clock::time_point Start,
                Clock::time_point End, int Parent, std::uint64_t Request) {
  if (!On)
    return -1;
  Spans.push_back({Name, usBetween(Origin, Start), usBetween(Origin, End),
                   Parent, Request});
  return static_cast<int>(Spans.size() - 1);
}

int Tracer::open(const char *Name, std::uint64_t Request) {
  if (!On)
    return -1;
  double Now = usBetween(Origin, Clock::now());
  Spans.push_back({Name, Now, Now, Current, Request});
  Current = static_cast<int>(Spans.size() - 1);
  return Current;
}

void Tracer::close(int Idx) {
  if (!On || Idx < 0)
    return;
  Spans[Idx].EndUs = usBetween(Origin, Clock::now());
  Current = Spans[Idx].Parent;
}

double Tracer::totalUs(const std::string &Name) const {
  double Sum = 0;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Sum += S.EndUs - S.StartUs;
  return Sum;
}

std::vector<Tracer::NameTotals> Tracer::totals() const {
  // Children never overlap each other (one thread, properly nested), so
  // the covered part of a parent is the sum of its children.
  std::vector<double> ChildUs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[S.Parent] += S.EndUs - S.StartUs;
  std::map<std::string, NameTotals> ByName;
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    NameTotals &T = ByName[Spans[I].Name];
    T.Name = Spans[I].Name;
    double Dur = Spans[I].EndUs - Spans[I].StartUs;
    ++T.Count;
    T.TotalUs += Dur;
    T.SelfUs += Dur - ChildUs[I];
  }
  std::vector<NameTotals> Out;
  for (auto &[Name, T] : ByName)
    Out.push_back(T);
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", F);
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"span\":%zu,\"parent\":%d}}",
                 I ? "," : "", S.Name, S.StartUs, S.EndUs - S.StartUs,
                 static_cast<unsigned long long>(S.Request), I, S.Parent);
  }
  std::fputs("\n],\"otherData\":{\"self_time_us\":{", F);
  bool First = true;
  for (const NameTotals &T : totals()) {
    std::fprintf(F, "%s\"%s\":{\"count\":%zu,\"total\":%.3f,\"self\":%.3f}",
                 First ? "" : ",", T.Name.c_str(), T.Count, T.TotalUs,
                 T.SelfUs);
    First = false;
  }
  std::fputs("}}}\n", F);
  return std::fclose(F) == 0;
}
