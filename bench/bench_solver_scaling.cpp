//===- bench/bench_solver_scaling.cpp - Experiment E8 -----------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Experiment E8 (DESIGN.md): the paper's Section 5.2 complexity claim —
// the elimination solver evaluates each equation once per node, giving
// O(E) set operations ("linear in the program size in most cases"). We
// sweep generated program sizes and nesting depths, reporting time per
// node, and compare against the iterative bitvector solver of the LCM
// baseline whose pass count grows with loop depth.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include <benchmark/benchmark.h>

#include <random>

using namespace gnt;
using namespace gnt::bench;

namespace {

void report() {
  std::printf("== E8: solver complexity (Section 5.2) ==\n");
  std::printf("Paper claim: each equation evaluated once per node -> O(E).\n"
              "Expect near-constant ns/node for GIVE-N-TAKE; the iterative\n"
              "LCM baseline repeats passes until a fixed point.\n\n");
  std::printf("  %8s | %8s | %8s\n", "stmts", "nodes", "lcm iters");
  for (unsigned Stmts : {50u, 100u, 200u, 400u, 800u, 1600u}) {
    Built B = buildRandom(5, Stmts);
    RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
    GntProblem Read, Write;
    buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
    LcmResult L = lazyCodeMotion(B.G, Refs.Items.size(), Read.TakeInit,
                                 Read.StealInit, Read.GiveInit);
    std::printf("  %8u | %8u | %8u\n", Stmts, B.G.size(), L.Iterations);
  }
  std::printf("\n");
}

void BM_GntSolve(benchmark::State &State) {
  unsigned Stmts = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, Stmts);
  RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
  GntProblem Read, Write;
  buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
  for (auto _ : State) {
    GntResult R = solveGiveNTake(B.Ifg, Read);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["nodes"] = B.G.size();
  State.counters["items"] = Refs.Items.size();
  State.counters["ns/node"] = benchmark::Counter(
      static_cast<double>(State.iterations()) * B.G.size(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GntSolve)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Arg(800)
    ->Arg(1600)->Arg(3200);

/// One request's two oriented runs through runGiveNTake: READ (BEFORE,
/// the graph copied as is) plus WRITE (AFTER, the reversed graph and the
/// jump-poisoned STEAL copy), each with its problem copy, solve and
/// result hand-off. ns/node is per CFG node for the READ+WRITE pair.
void BM_GntRun(benchmark::State &State) {
  unsigned Stmts = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, Stmts);
  RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
  GntProblem Read, Write;
  buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
  for (auto _ : State) {
    GntRun ReadRun = runGiveNTake(B.Ifg, Read);
    GntRun WriteRun = runGiveNTake(B.Ifg, Write);
    benchmark::DoNotOptimize(ReadRun.Result.Take.size());
    benchmark::DoNotOptimize(WriteRun.Result.Take.size());
  }
  State.counters["nodes"] = B.G.size();
  State.counters["items"] = Refs.Items.size();
  State.counters["ns/node"] = benchmark::Counter(
      static_cast<double>(State.iterations()) * B.G.size(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GntRun)->Arg(100)->Arg(400)->Arg(1600);

void BM_LcmSolve(benchmark::State &State) {
  unsigned Stmts = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, Stmts);
  RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
  GntProblem Read, Write;
  buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
  for (auto _ : State) {
    LcmResult R = lazyCodeMotion(B.G, Refs.Items.size(), Read.TakeInit,
                                 Read.StealInit, Read.GiveInit);
    benchmark::DoNotOptimize(R.InsertAtEntry.size());
  }
  State.counters["nodes"] = B.G.size();
  State.counters["ns/node"] = benchmark::Counter(
      static_cast<double>(State.iterations()) * B.G.size(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LcmSolve)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Arg(800)
    ->Arg(1600)->Arg(3200);

/// Nesting-depth sweep at fixed size: the elimination solver's pass count
/// does not depend on depth, the iterative one's does.
void BM_GntSolveDepth(benchmark::State &State) {
  unsigned Depth = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(11, 400, Depth);
  RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
  GntProblem Read, Write;
  buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
  for (auto _ : State) {
    GntResult R = solveGiveNTake(B.Ifg, Read);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["nodes"] = B.G.size();
}
BENCHMARK(BM_GntSolveDepth)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_LcmSolveDepth(benchmark::State &State) {
  unsigned Depth = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(11, 400, Depth);
  RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
  GntProblem Read, Write;
  buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
  unsigned Iters = 0;
  for (auto _ : State) {
    LcmResult R = lazyCodeMotion(B.G, Refs.Items.size(), Read.TakeInit,
                                 Read.StealInit, Read.GiveInit);
    Iters = R.Iterations;
    benchmark::DoNotOptimize(R.InsertAtEntry.size());
  }
  State.counters["nodes"] = B.G.size();
  State.counters["iters"] = Iters;
}
BENCHMARK(BM_LcmSolveDepth)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

/// Graph construction cost (normalization + interval analysis).
void BM_IntervalBuild(benchmark::State &State) {
  unsigned Stmts = static_cast<unsigned>(State.range(0));
  GenConfig C;
  C.Seed = 5;
  C.TargetStmts = Stmts;
  Program Prog = generateRandomProgram(C);
  for (auto _ : State) {
    CfgBuildResult CfgRes = buildCfg(Prog);
    auto IfgRes = IntervalFlowGraph::build(CfgRes.G);
    benchmark::DoNotOptimize(IfgRes.Ifg->size());
  }
}
BENCHMARK(BM_IntervalBuild)->Arg(100)->Arg(400)->Arg(1600);

/// READ/WRITE problem construction from a finished reference analysis:
/// each steal predicate runs only inside its array/indirection/scalar
/// bucket, so us/node should stay flat as the program grows.
void BM_CommProblems(benchmark::State &State) {
  unsigned Stmts = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, Stmts);
  RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
  for (auto _ : State) {
    GntProblem Read, Write;
    buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
    benchmark::DoNotOptimize(Write.StealInit[0].words());
    benchmark::ClobberMemory();
  }
  State.counters["items"] = Refs.Items.size();
  State.counters["us/node"] = benchmark::Counter(
      static_cast<double>(State.iterations()) * B.G.size() / 1e6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_CommProblems)->Arg(100)->Arg(400)->Arg(1600);

/// Reference analysis of a finished CFG: item keys, section expansion and
/// reduction detection per array reference, so us/ref should stay flat
/// as the program grows.
void BM_RefAnalysis(benchmark::State &State) {
  unsigned Stmts = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, Stmts);
  std::size_t Refs = 0;
  for (auto _ : State) {
    RefAnalysisResult R = analyzeReferences(B.Prog, B.G);
    Refs = 0;
    for (const NodeRefs &NR : R.PerNode)
      Refs += NR.Uses.size() + NR.Defs.size();
    benchmark::DoNotOptimize(R.Items.size());
  }
  State.counters["refs"] = static_cast<double>(Refs);
  State.counters["us/ref"] = benchmark::Counter(
      static_cast<double>(State.iterations()) * Refs / 1e6,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RefAnalysis)->Arg(100)->Arg(400)->Arg(1600);

//===----------------------------------------------------------------------===//
// Wide-universe sweeps: arena vs classic evaluator, and item sharding
//===----------------------------------------------------------------------===//
//
// The communication problems of generated programs have universes of at
// most a few hundred items, too narrow to expose per-word costs. These
// sweeps keep the graph fixed and synthesize problems with universes up
// to 16k items (256 words per set), the regime the DataflowMatrix arena
// and --solver-shards target.

/// A seeded problem with \p Universe items over \p B's graph: every
/// node takes/gives/steals a sparse random selection.
GntProblem syntheticProblem(const Built &B, unsigned Universe,
                            unsigned Seed) {
  std::mt19937 Rng(Seed);
  unsigned N = B.Ifg.size();
  GntProblem P(N, Universe);
  for (unsigned Node = 0; Node != N; ++Node) {
    for (unsigned Draw = 0, E = 2 + Rng() % 6; Draw != E; ++Draw)
      P.TakeInit[Node].set(Rng() % Universe);
    for (unsigned Draw = 0, E = 1 + Rng() % 4; Draw != E; ++Draw)
      P.GiveInit[Node].set(Rng() % Universe);
    for (unsigned Draw = 0, E = Rng() % 3; Draw != E; ++Draw)
      P.StealInit[Node].set(Rng() % Universe);
  }
  return P;
}

void BM_ArenaSolveWide(benchmark::State &State) {
  unsigned Universe = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, 400);
  GntProblem P = syntheticProblem(B, Universe, 99);
  for (auto _ : State) {
    GntResult R = solveGiveNTake(B.Ifg, P);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["items"] = Universe;
  State.counters["nodes"] = B.Ifg.size();
}
BENCHMARK(BM_ArenaSolveWide)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

/// The pre-arena evaluator on the same problems: the speedup the arena
/// must hold is BM_ClassicSolveWide / BM_ArenaSolveWide >= 1.5 at 4096+
/// items.
void BM_ClassicSolveWide(benchmark::State &State) {
  unsigned Universe = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, 400);
  GntProblem P = syntheticProblem(B, Universe, 99);
  for (auto _ : State) {
    GntResult R = solveGiveNTakeClassic(B.Ifg, P);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["items"] = Universe;
}
BENCHMARK(BM_ClassicSolveWide)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

/// Universe size x shard count. Shards=1 goes through the serial arena
/// path, so the sharding overhead (thread pool spin-up plus each
/// worker's own graph walk over its word window) reads off the table
/// directly; results are byte-identical at every point.
void BM_ShardedSolve(benchmark::State &State) {
  unsigned Universe = static_cast<unsigned>(State.range(0));
  unsigned Shards = static_cast<unsigned>(State.range(1));
  Built B = buildRandom(5, 400);
  GntProblem P = syntheticProblem(B, Universe, 99);
  for (auto _ : State) {
    GntResult R = solveGiveNTakeSharded(B.Ifg, P, Shards);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["items"] = Universe;
  State.counters["shards"] = Shards;
}
BENCHMARK(BM_ShardedSolve)
    ->ArgsProduct({{1024, 4096, 16384}, {1, 2, 4, 8}});

//===----------------------------------------------------------------------===//
// Universe-compression families: duplicate-heavy and incompressible
//===----------------------------------------------------------------------===//
//
// The compressed solver's contract has two sides to measure: the win on
// universes full of repeated columns (the Section 2 array-section
// regime — one distinct access pattern stamped across many items), and
// the ceiling on universes where every column is distinct and the
// profitability gate must fall back to the plain solve after paying
// only the O(set bits) partition sweep.

/// The Section 2 array-section regime: of the whole universe only the
/// leading 1/8 is ever referenced, and those referenced items are 8
/// copies each of Universe/64 distinct access patterns (pattern i is
/// deterministically taken at node (i/64)%N and given at node i%N,
/// plus a little random noise, so patterns are nonempty and pairwise
/// distinct). Compression therefore sees exactly 8-fold duplication
/// among the live columns and elides the untouched 7/8 outright.
GntProblem syntheticDuplicateProblem(const Built &B, unsigned Universe,
                                     unsigned Seed) {
  unsigned Referenced = Universe / 8;
  unsigned Distinct = Referenced / 8;
  unsigned N = B.Ifg.size();
  std::mt19937 Rng(Seed);
  GntProblem Base(N, Distinct);
  for (unsigned Item = 0; Item != Distinct; ++Item) {
    Base.GiveInit[Item % N].set(Item);
    Base.TakeInit[(Item / 64) % N].set(Item);
  }
  for (unsigned Node = 0; Node != N; ++Node) {
    Base.TakeInit[Node].set(Rng() % Distinct);
    if (Rng() % 2)
      Base.StealInit[Node].set(Rng() % Distinct);
  }
  GntProblem P(N, Universe);
  for (unsigned Node = 0; Node != N; ++Node) {
    auto Stamp = [&](ConstBitRow From, BitRow To) {
      for (unsigned Item : From)
        for (unsigned Copy = Item; Copy < Referenced; Copy += Distinct)
          To.set(Copy);
    };
    Stamp(Base.TakeInit[Node], P.TakeInit[Node]);
    Stamp(Base.GiveInit[Node], P.GiveInit[Node]);
    Stamp(Base.StealInit[Node], P.StealInit[Node]);
  }
  return P;
}

/// A universe where every item's column is unique: item i is taken at
/// node i%N and given at node (i/N)%N, so no two items share a column
/// and no item is empty — zero classes merge, zero items elide.
GntProblem syntheticIncompressibleProblem(const Built &B, unsigned Universe) {
  unsigned N = B.Ifg.size();
  GntProblem P(N, Universe);
  for (unsigned Item = 0; Item != Universe; ++Item) {
    P.TakeInit[Item % N].set(Item);
    P.GiveInit[(Item / N) % N].set(Item);
  }
  return P;
}

void BM_ArenaSolveDuplicate(benchmark::State &State) {
  unsigned Universe = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, 400);
  GntProblem P = syntheticDuplicateProblem(B, Universe, 99);
  for (auto _ : State) {
    GntResult R = solveGiveNTake(B.Ifg, P);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["items"] = Universe;
}
BENCHMARK(BM_ArenaSolveDuplicate)->Arg(8192)->Arg(16384);

/// The headline: >= 1.5x over BM_ArenaSolveDuplicate at the same width
/// is the acceptance bar for the compression layer. The full solver
/// does equation work on every word of the universe whether or not any
/// item in it was ever referenced; the compressed solve runs the
/// equations over one bit per distinct pattern and reconstructs the
/// full-width matrix with a compiled whole-word expansion program —
/// copies for the duplicated blocks, memsets for the elided 7/8 — so
/// its cost approaches the arena's plain write floor. Partition +
/// expansion are the overhead being amortized.
void BM_CompressedSolveDuplicate(benchmark::State &State) {
  unsigned Universe = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, 400);
  GntProblem P = syntheticDuplicateProblem(B, Universe, 99);
  double Ratio = 1.0;
  for (auto _ : State) {
    GntResult R = solveGiveNTakeCompressed(B.Ifg, P);
    benchmark::DoNotOptimize(R.Take.size());
    Ratio = R.Compression.Universe
                ? static_cast<double>(R.Compression.Classes) /
                      R.Compression.Universe
                : 1.0;
  }
  State.counters["items"] = Universe;
  State.counters["ratio"] = Ratio;
}
BENCHMARK(BM_CompressedSolveDuplicate)->Arg(8192)->Arg(16384);

void BM_ArenaSolveIncompressible(benchmark::State &State) {
  unsigned Universe = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, 400);
  GntProblem P = syntheticIncompressibleProblem(B, Universe);
  for (auto _ : State) {
    GntResult R = solveGiveNTake(B.Ifg, P);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["items"] = Universe;
}
BENCHMARK(BM_ArenaSolveIncompressible)->Arg(8192)->Arg(16384);

/// The overhead ceiling: every column is unique, the profitability gate
/// rejects compression, and this must stay within 5% of
/// BM_ArenaSolveIncompressible. The cost of finding out is a partial
/// partition sweep: the live class count is monotone under refinement,
/// so the sweep aborts the moment it proves the count will end above
/// the profitability threshold.
void BM_CompressedSolveIncompressible(benchmark::State &State) {
  unsigned Universe = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, 400);
  GntProblem P = syntheticIncompressibleProblem(B, Universe);
  for (auto _ : State) {
    GntResult R = solveGiveNTakeCompressed(B.Ifg, P);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["items"] = Universe;
}
BENCHMARK(BM_CompressedSolveIncompressible)->Arg(8192)->Arg(16384);

} // namespace

int main(int argc, char **argv) {
  report();
  return runBenchmarksWithTrajectory(argc, argv, "BENCH_solver.json");
}
