//===- gntbench/src/ClosedLoop.cpp - Serial closed-loop workloads ---------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// small-cold, large-cold and edit-session: one client calling
// parseServiceRequest + BatchServer::serve serially. A request's latency
// runs from the raw JSON line to the response line, and its CPU time is
// read around the same span; the byte comparison against the reference,
// the metric snapshots and each server's construction and teardown sit
// outside both.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "service/BatchServer.h"

#include <cstdio>
#include <memory>

using namespace gntbench;
using namespace gnt;

void ServiceTally::merge(const ServiceMetrics &M) {
  Jobs += M.Jobs;
  ResultHits += M.CacheHits;
  ResultMisses += M.CacheMisses;
  for (unsigned I = 0; I < NumPipelineStages; ++I)
    StageUs += M.StageLatency[I].mean() *
               static_cast<double>(M.StageLatency[I].count());
  for (unsigned I = 0; I < NumCacheStages; ++I) {
    StageHits[I] += M.StageHits[I];
    StageMisses[I] += M.StageMisses[I];
  }
  Inc.merge(M.Incremental);
}

void ServiceTally::report(Report &R, double ServeUs) const {
  auto Ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  // Shares are reported as misses: a cold workload's hit share is 0 by
  // construction, and a benchmark metric is never 0. With nothing probed
  // (no stage cache, no incremental solve) every run was a miss, and
  // every solve a full one over every interval.
  auto Share = [](unsigned long long Num, unsigned long long Den) {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 1.0;
  };
  double N = static_cast<double>(Jobs);
  R.add("service.serve_us", Ratio(ServeUs, N), "us");
  // What serve costs beyond the pipeline stages it ran: cache probes,
  // content digests, artifact adoption and payload rendering.
  R.add("service.self_us", Ratio(ServeUs - StageUs, N), "us");
  R.add("service.result_miss_ratio",
        Share(ResultMisses, ResultHits + ResultMisses), "ratio");
  for (unsigned I = 0; I < NumCacheStages; ++I)
    R.add(std::string("service.stage_miss_ratio.") +
              cacheStageName(static_cast<CacheStage>(I)),
          Share(StageMisses[I], StageHits[I] + StageMisses[I]), "ratio");
  unsigned long long Solves = Inc.FullSolves + Inc.PartialSolves + Inc.MemoHits;
  R.add("dataflow.inc_full_ratio", Share(Inc.FullSolves, Solves), "ratio");
  R.add("dataflow.inc_memo_miss_ratio",
        Share(Inc.FullSolves + Inc.PartialSolves, Solves), "ratio");
  R.add("dataflow.inc_intervals_resolved_ratio",
        Share(Inc.IntervalsResolved, Inc.IntervalsTotal), "ratio");
}

void gntbench::runClosedLoop(const Options &O, ClosedLoopInputs &In,
                             Tracer &T, Report &R) {
  // At least ten samples beyond p99.
  const unsigned long long MinRequests = O.Smoke ? 1 : MinWindowSamples;
  std::vector<double> Lat, Cpu;
  double TimedUs = 0, DecodeUs = 0, ServeUs = 0;
  ServiceTally Tally;
  unsigned long long N = 0;

  Clock::time_point Start = Clock::now();
  bool Done = false;
  for (std::size_t B = 0; !Done; B = (B + 1) % In.Batches.size()) {
    auto Server = std::make_unique<BatchServer>(ServiceConfig{});
    for (const ClosedRequest &CR : In.Batches[B]) {
      ServiceRequest Req;
      std::string Error, Response;
      double Cpu0 = cpuUs();
      Clock::time_point T0 = Clock::now();
      bool Decoded = parseServiceRequest(CR.Line, "", Req, Error);
      Clock::time_point T1 = Clock::now();
      if (Decoded)
        Response = Server->serve(Req);
      Clock::time_point T2 = Clock::now();
      Cpu.push_back(cpuUs() - Cpu0);

      double Us = usBetween(T0, T2);
      Lat.push_back(Us);
      TimedUs += Us;
      DecodeUs += usBetween(T0, T1);
      ServeUs += usBetween(T1, T2);
      if (T.enabled()) {
        int Root = T.add("request", T0, T2, -1, N);
        T.add("service.decode", T0, T1, Root, N);
        T.add("service.serve", T1, T2, Root, N);
      }
      ++N;
      ++R.Attempted;
      if (!Decoded)
        R.fail("request " + std::to_string(N) + " did not decode: " + Error);
      else if (Response != CR.Expected)
        R.fail("response differs from the cold reference compile:\n"
               "  got:      " + Response.substr(0, 300) +
               "\n  expected: " + CR.Expected.substr(0, 300) +
               "\n  source:\n" + In.C.Progs[CR.Prog].Source);
      if (N >= MinRequests &&
          usBetween(Start, Clock::now()) >= O.Seconds * 1e6) {
        Done = true;
        break;
      }
    }
    Tally.merge(Server->metricsSnapshot());
  }

  // Like the percentiles, throughput and CPU are medians over windows,
  // so a burst of load from elsewhere on the machine moves one window.
  double Count = static_cast<double>(N);
  R.add("throughput_rps", 1e6 / windowedMean(Lat), "1/s");
  R.add("req_p50_us", windowedPercentile(Lat, 50), "us");
  R.add("req_p99_us", windowedPercentile(Lat, 99), "us");
  R.add("cpu_us_per_req", windowedMean(Cpu), "us");
  std::fprintf(stderr, "gntbench: %llu requests in %.2f s timed\n", N,
               TimedUs / 1e6);
  if (T.enabled()) {
    R.add("service.decode_us", DecodeUs / Count, "us");
    Tally.report(R, ServeUs);
  }
}
