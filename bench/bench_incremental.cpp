//===- bench/bench_incremental.cpp - Incremental re-solve scaling -----------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Edit-distance sweep over the incremental stage pipeline: a program
// with L independent loops is compiled into a warm stage cache, then a
// variant with E edited loop bodies is re-compiled incrementally. The
// interesting curve is time-per-recompile and the measured re-solve
// footprint (intervals_resolved / intervals_total) as E grows from one
// loop to all of them; the cold-compile baseline at the same program
// size anchors the comparison. A single-loop edit re-solving a strict
// subset of intervals is the feature's acceptance bar, so the counters
// that prove it ride along in the trajectory. Every run writes
// BENCH_incremental.json (BenchJson.h schema).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"

#include "service/Pipeline.h"
#include "service/StageCache.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

using namespace gnt;

namespace {

/// L independent loops over distinct owned arrays, all consuming the
/// distributed x and y. Editing loop J moves its y(i) use from the
/// first body statement to the second: every reference pattern exists
/// in both versions, so the item universe and loop forest — and hence
/// the solve memo's structure digest — are unchanged, and exactly the
/// edited loops' init rows differ.
std::string makeProgram(unsigned Loops, unsigned Edits) {
  std::string S = "distribute x, y\narray";
  for (unsigned J = 0; J != Loops; ++J) {
    S += (J ? ", u" : " u") + std::to_string(J);
    S += ", w" + std::to_string(J);
  }
  S += "\n";
  for (unsigned J = 0; J != Loops; ++J) {
    const std::string U = "u" + std::to_string(J);
    const std::string V = "w" + std::to_string(J);
    const bool Edit = J < Edits;
    S += "do i = 1, n\n";
    S += "  " + U + "(i) = x(i)" + (Edit ? "" : " + y(i)") + "\n";
    S += "  " + V + "(i) = x(i)" + (Edit ? " + y(i)" : "") + "\n";
    S += "enddo\n";
  }
  return S;
}

PipelineOptions incrementalOptions() {
  PipelineOptions O;
  O.Annotate = true;
  O.Incremental = true;
  return O;
}

/// Re-compile after editing E of 16 loop bodies, against a stage cache
/// primed with the unedited program. The per-iteration prime is
/// untimed; the measured region is exactly one incremental compile.
void BM_IncrementalEdit(benchmark::State &State) {
  const unsigned Loops = 16;
  const unsigned Edits = static_cast<unsigned>(State.range(0));
  const std::string Base = makeProgram(Loops, 0);
  const std::string Edited = makeProgram(Loops, Edits);
  const PipelineOptions Opts = incrementalOptions();
  StageCacheStats Last;
  for (auto _ : State) {
    State.PauseTiming();
    auto Warm = std::make_unique<StageCache>();
    (void)Pipeline(Opts).compile(Base, Warm.get());
    State.ResumeTiming();
    PipelineResult R = Pipeline(Opts).compile(Edited, Warm.get());
    benchmark::DoNotOptimize(R);
    State.PauseTiming();
    Last = Warm->statsSnapshot();
    Warm.reset(); // Tearing down the warm cache is setup, not the edit.
    State.ResumeTiming();
  }
  State.counters["edited"] = Edits;
  State.counters["intervals_resolved"] =
      static_cast<double>(Last.Inc.IntervalsResolved);
  State.counters["intervals_total"] =
      static_cast<double>(Last.Inc.IntervalsTotal);
  State.counters["nodes_resolved"] =
      static_cast<double>(Last.Inc.NodesResolved);
  State.counters["nodes_total"] = static_cast<double>(Last.Inc.NodesTotal);
}

/// The anchor: a cold compile of the edited program with no cache at
/// all — what every request costs without the stage pipeline.
void BM_ColdCompile(benchmark::State &State) {
  const unsigned Loops = 16;
  const std::string Edited =
      makeProgram(Loops, static_cast<unsigned>(State.range(0)));
  PipelineOptions Opts;
  Opts.Annotate = true;
  for (auto _ : State) {
    PipelineResult R = Pipeline(Opts).compile(Edited);
    benchmark::DoNotOptimize(R);
  }
  State.counters["edited"] = static_cast<double>(State.range(0));
}

/// The no-edit floor: an identical re-compile is a pure memo hit (the
/// arena is re-exported zero-copy), bounding what incrementality can
/// ever save.
void BM_MemoHit(benchmark::State &State) {
  const std::string Base = makeProgram(16, 0);
  const PipelineOptions Opts = incrementalOptions();
  StageCache Warm;
  (void)Pipeline(Opts).compile(Base, &Warm);
  for (auto _ : State) {
    PipelineResult R = Pipeline(Opts).compile(Base, &Warm);
    benchmark::DoNotOptimize(R);
  }
}

} // namespace

BENCHMARK(BM_IncrementalEdit)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ColdCompile)->Arg(1)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MemoHit)->Unit(benchmark::kMicrosecond);

int main(int argc, char **argv) {
  return gnt::bench::runBenchmarksWithTrajectory(argc, argv,
                                                 "BENCH_incremental.json");
}
