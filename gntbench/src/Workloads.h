//===- gntbench/src/Workloads.h - Workload inputs and runners ---*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three gntbench workloads. Inputs are generated from the run seed
/// only; every distinct program gets a reference payload from a cold,
/// cache-free compilePipeline and a simulated execution of its plan at
/// set-up, and every response the service returns is compared byte for
/// byte against the reference.
///
///   small-cold   closed loop, serial BatchServer::serve, distinct
///                ~60-line programs from all six generator buckets
///   large-cold   same loop over 400/800/1600-statement programs
///   edit-session same loop with "incremental": true over edit sessions
///
/// Traced runs also probe the net layer with a short open loop against an
/// in-process net::NetServer.
///
//===----------------------------------------------------------------------===//

#ifndef GNTBENCH_WORKLOADS_H
#define GNTBENCH_WORKLOADS_H

#include "Bench.h"

#include "service/Metrics.h"

#include <string>
#include <vector>

namespace gntbench {

/// One distinct program of a workload with its reference.
struct Prog {
  std::string Source;
  /// renderResultPayload of a cold, cache-free compile.
  std::string Payload;
  /// Messages and executed assignments sim::simulate counts for the
  /// reference plan, with 4 trips per symbolic loop.
  unsigned long long Messages = 0;
  unsigned long long Steps = 0;
};

/// The distinct programs of a workload, all requested with one option
/// set.
struct Corpus {
  std::string OptionsJson; ///< The request's "options" object, or "".
  gnt::PipelineOptions Opts;
  std::vector<Prog> Progs;

  /// Compiles \p Source cold, simulates its plan and appends it; any
  /// failure is recorded in \p R. Returns the program's index.
  unsigned add(std::string Source, Report &R);

  /// Geometric mean over the distinct programs of simulated messages
  /// per 1000 executed assignments (shifted by one).
  double messagesPerKiloStep() const;
};

/// Request frame {"id":..,"source":..[,"options":..]} without newline.
std::string requestLine(const std::string &Id, const std::string &Source,
                        const std::string &OptionsJson);

/// Service counters summed over every server a run used.
struct ServiceTally {
  unsigned long long Jobs = 0;
  unsigned long long ResultHits = 0;
  unsigned long long ResultMisses = 0;
  /// Sum of PipelineResult::StageMicros over compiled jobs.
  double StageUs = 0;
  unsigned long long StageHits[gnt::NumCacheStages] = {};
  unsigned long long StageMisses[gnt::NumCacheStages] = {};
  gnt::GntIncrementalStats Inc;

  void merge(const gnt::ServiceMetrics &M);
  /// Adds the service.* and dataflow.inc_* metrics. \p ServeUs is the
  /// summed time of the BatchServer::serve calls as seen by the caller.
  void report(Report &R, double ServeUs) const;
};

/// One request of a closed-loop workload.
struct ClosedRequest {
  std::string Line;
  std::string Expected; ///< The full response line the service must send.
  unsigned Prog;
};

/// A closed-loop workload: batches of requests, each served by a fresh
/// BatchServer whose construction and teardown stay untimed. The timed
/// phase cycles through the batches until the run's time is up.
struct ClosedLoopInputs {
  Corpus C;
  std::vector<std::vector<ClosedRequest>> Batches;
};

ClosedLoopInputs makeSmallCold(const Options &O, Report &R);
ClosedLoopInputs makeLargeCold(const Options &O, Report &R);
ClosedLoopInputs makeEditSession(const Options &O, Report &R);

/// Runs the closed loop for O.Seconds and adds every end-to-end metric
/// (and, when tracing, the service-layer metrics) to \p R.
void runClosedLoop(const Options &O, ClosedLoopInputs &In, Tracer &T,
                   Report &R);

/// Traced runs only: a 2-second open loop at 200 req/s over up to 64 of
/// \p C's programs against a freshly started NetServer (2 workers), after
/// a warm-up that sends each of them once. Adds the net.* metrics.
void runNetProbe(const Options &O, const Corpus &C, Tracer &T, Report &R);

/// Traced replay: calls each module's public entry point on every
/// distinct program of \p C, records a span around each call, checks
/// the rendered payload against the reference and adds the per-module
/// metrics.
void runLayerReplay(const Corpus &C, Tracer &T, Report &R);

} // namespace gntbench

#endif // GNTBENCH_WORKLOADS_H
