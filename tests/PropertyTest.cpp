//===- tests/PropertyTest.cpp - Randomized invariant sweeps -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Experiment E7 at scale: seeded random programs swept through the whole
/// pipeline. For every program the static verifier must accept the
/// GIVE-N-TAKE placement (C1/C3/O1), and the trace simulator must run
/// both the GIVE-N-TAKE plan and every baseline without dynamic
/// violations across several branch-outcome seeds. Parameterized gtest
/// keeps each seed an individually reported test.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "baseline/Baselines.h"
#include "baseline/LazyCodeMotion.h"
#include "cfg/Dominators.h"
#include "comm/CommGen.h"
#include "fuzz/Clone.h"
#include "fuzz/Mutator.h"
#include "gen/RandomProgram.h"
#include "interval/LoopForest.h"
#include "ir/AstPrinter.h"
#include "service/BatchServer.h"
#include "service/Pipeline.h"
#include "service/StageCache.h"
#include "sim/TraceSimulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

using namespace gnt;
using namespace gnt::test;

namespace {

class RandomPrograms : public ::testing::TestWithParam<unsigned> {};

Program makeProgram(unsigned Seed, unsigned Stmts = 40,
                    double GotoProb = 0.1) {
  GenConfig C;
  C.Seed = Seed;
  C.TargetStmts = Stmts;
  C.GotoProb = GotoProb;
  return generateRandomProgram(C);
}

struct Built {
  Program Prog;
  Cfg G;
  IntervalFlowGraph Ifg;
};

std::optional<Built> buildProgram(Program Prog) {
  Built B;
  B.Prog = std::move(Prog);
  CfgBuildResult CR = buildCfg(B.Prog);
  EXPECT_TRUE(CR.success()) << (CR.Errors.empty() ? "" : CR.Errors.front());
  if (!CR.success())
    return std::nullopt;
  B.G = std::move(CR.G);
  auto IR = IntervalFlowGraph::build(B.G);
  EXPECT_TRUE(IR.success()) << (IR.Errors.empty() ? "" : IR.Errors.front());
  if (!IR.success())
    return std::nullopt;
  B.Ifg = std::move(*IR.Ifg);
  return B;
}

void simulateClean(const Built &B, const CommPlan &Plan, const char *What,
                   unsigned &WastedOut) {
  for (unsigned BranchSeed = 1; BranchSeed != 4; ++BranchSeed) {
    SimConfig C;
    C.Params["n"] = 5;
    C.BranchSeed = BranchSeed;
    SimStats S = simulate(B.Prog, Plan, C);
    EXPECT_TRUE(S.ok()) << What << " branch seed " << BranchSeed << ": "
                        << (S.Errors.empty() ? "" : S.Errors.front());
    WastedOut += static_cast<unsigned>(S.Wasted);
  }
}

} // namespace

/// The generated source parses back to an identical program.
TEST_P(RandomPrograms, PrintParseRoundTrip) {
  Program Prog = makeProgram(GetParam());
  std::string Printed = AstPrinter().print(Prog);
  ParseResult PR = parseProgram(Printed);
  ASSERT_TRUE(PR.success()) << (PR.Errors.empty() ? "" : PR.Errors.front())
                            << "\n" << Printed;
  EXPECT_EQ(Printed, AstPrinter().print(PR.Prog));
}

/// The static verifier accepts the GIVE-N-TAKE placement.
TEST_P(RandomPrograms, StaticInvariantsHold) {
  for (double GotoProb : {0.1, 0.0}) {
    auto B = buildProgram(makeProgram(GetParam(), 40, GotoProb));
    ASSERT_TRUE(B.has_value());
    CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg);
    GntVerifyResult V = Plan.verify();
    EXPECT_TRUE(V.ok()) << V.firstViolation();
    for (const Diagnostic &D : V.Diags.all())
      if (D.Severity == DiagSeverity::Note)
        ADD_FAILURE() << "optimality note: " << D.render();
  }
}

/// Dynamic C1/C3 hold for the GIVE-N-TAKE plan and all baselines, with
/// and without gotos out of loops (the goto-free configuration keeps the
/// AFTER problems exact, exercising different placement shapes).
TEST_P(RandomPrograms, DynamicInvariantsHold) {
  for (double GotoProb : {0.1, 0.0}) {
    auto B = buildProgram(makeProgram(GetParam(), 40, GotoProb));
    ASSERT_TRUE(B.has_value());
    unsigned Wasted = 0;
    CommPlan Gnt = generateComm(B->Prog, B->G, B->Ifg);
    simulateClean(*B, Gnt, "give-n-take", Wasted);
    CommPlan Naive = naivePlacement(B->Prog, B->G, B->Ifg);
    simulateClean(*B, Naive, "naive", Wasted);
    CommPlan Vec = vectorizedPlacement(B->Prog, B->G, B->Ifg);
    simulateClean(*B, Vec, "vectorized", Wasted);
    CommPlan Lcm = lcmPlacement(B->Prog, B->G, B->Ifg);
    simulateClean(*B, Lcm, "lcm", Wasted);
  }
}

/// All four option combinations stay correct.
TEST_P(RandomPrograms, OptionCombinationsHold) {
  auto B = buildProgram(makeProgram(GetParam(), /*Stmts=*/25));
  ASSERT_TRUE(B.has_value());
  for (bool Atomic : {false, true}) {
    for (bool Hoist : {false, true}) {
      for (bool Owner : {false, true}) {
        CommOptions Opts;
        Opts.Atomic = Atomic;
        Opts.HoistZeroTrip = Hoist;
        Opts.OwnerComputes = Owner;
        CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg, Opts);
        GntVerifyResult V = Plan.verify();
        EXPECT_TRUE(V.ok())
            << "atomic=" << Atomic << " hoist=" << Hoist
            << " owner=" << Owner << ": "
            << V.firstViolation();
        unsigned Wasted = 0;
        simulateClean(*B, Plan, "options", Wasted);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range(1u, 31u));

//===----------------------------------------------------------------------===//
// Shard invariance and arena/classic differential
//===----------------------------------------------------------------------===//
//
// 100 seeds x 2 goto probabilities = 200 random programs, each solved
// for both problem directions (READ is BEFORE, WRITE is AFTER with jump
// poisoning). Every GntResult field — the ten Figure 13 variables plus
// both EAGER and LAZY placements — must be byte-identical across shard
// counts and between the arena solver and the classic per-equation
// oracle. This is the hard contract that lets PipelineOptions exclude
// SolverShards from the service cache key.

namespace {

class ShardInvariance : public ::testing::TestWithParam<unsigned> {};

/// The 20 dataflow variables of \p R in declaration order, by name.
std::vector<std::pair<const char *, const BitRows *>>
gntFields(const GntResult &R) {
  std::vector<std::pair<const char *, const BitRows *>> Out;
  forEachGntField(R, [&](const char *Name, const BitRows &V) {
    Out.emplace_back(Name, &V);
  });
  return Out;
}

void expectResultsIdentical(const GntResult &Want, const GntResult &Got,
                            const char *Problem, const std::string &How) {
  auto A = gntFields(Want);
  auto B = gntFields(Got);
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t F = 0; F != A.size(); ++F) {
    ASSERT_EQ(A[F].second->size(), B[F].second->size())
        << Problem << " " << A[F].first << " (" << How << ")";
    for (std::size_t N = 0; N != A[F].second->size(); ++N)
      EXPECT_TRUE((*A[F].second)[N] == (*B[F].second)[N])
          << Problem << " " << A[F].first << " node " << N << " (" << How
          << ")";
  }
}

} // namespace

/// Solving at any shard count reproduces the serial solve bit for bit.
TEST_P(ShardInvariance, ShardedSolveMatchesSerial) {
  for (double GotoProb : {0.1, 0.0}) {
    auto B = buildProgram(makeProgram(GetParam(), 40, GotoProb));
    ASSERT_TRUE(B.has_value());
    CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg);
    ASSERT_TRUE(Plan.ReadRun.has_value());
    ASSERT_TRUE(Plan.WriteRun.has_value());
    unsigned Items = Plan.ReadProblem.UniverseSize;
    for (unsigned Shards : {1u, 2u, 7u, std::max(Items, 1u)}) {
      std::string How = "goto=" + std::to_string(GotoProb) +
                        " shards=" + std::to_string(Shards);
      GntRun R = runGiveNTake(B->Ifg, Plan.ReadProblem, Shards);
      expectResultsIdentical(Plan.ReadRun->Result, R.Result, "READ", How);
      GntRun W = runGiveNTake(B->Ifg, Plan.WriteProblem, Shards);
      expectResultsIdentical(Plan.WriteRun->Result, W.Result, "WRITE", How);
    }
  }
}

/// The fused arena evaluator agrees with the classic one-equation-at-a-
/// time evaluator on every field.
TEST_P(ShardInvariance, ArenaMatchesClassicOracle) {
  for (double GotoProb : {0.1, 0.0}) {
    auto B = buildProgram(makeProgram(GetParam(), 40, GotoProb));
    ASSERT_TRUE(B.has_value());
    CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg);
    for (const std::optional<GntRun> *Slot : {&Plan.ReadRun, &Plan.WriteRun}) {
      ASSERT_TRUE(Slot->has_value());
      const GntRun &Run = **Slot;
      GntResult Classic =
          solveGiveNTakeClassic(Run.OrientedIfg, Run.OrientedProblem);
      const char *Problem =
          Run.OrientedProblem.Dir == Direction::Before ? "READ" : "WRITE";
      expectResultsIdentical(Classic, Run.Result, Problem,
                             "goto=" + std::to_string(GotoProb));
    }
  }
}

/// Universe compression is the third solver strategy under the same
/// byte-identity contract: for every program, solving with compression
/// on and off, serial and sharded, must agree in all 20 dataflow
/// variables — and the production pipeline's resultSignature must be
/// blind to the knob. Compression decides per problem whether it pays
/// (the profitability gate), so across 100 random programs this covers
/// applied, fallback and all-bottom paths alike.
TEST_P(ShardInvariance, CompressedSolveMatchesSerial) {
  for (double GotoProb : {0.1, 0.0}) {
    auto B = buildProgram(makeProgram(GetParam(), 40, GotoProb));
    ASSERT_TRUE(B.has_value());
    CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg);
    ASSERT_TRUE(Plan.ReadRun.has_value());
    ASSERT_TRUE(Plan.WriteRun.has_value());
    for (unsigned Shards : {1u, 7u}) {
      std::string How = "goto=" + std::to_string(GotoProb) + " shards=" +
                        std::to_string(Shards) + " compressed";
      GntRun R = runGiveNTake(B->Ifg, Plan.ReadProblem, Shards,
                              /*CompressUniverse=*/true);
      expectResultsIdentical(Plan.ReadRun->Result, R.Result, "READ", How);
      GntRun W = runGiveNTake(B->Ifg, Plan.WriteProblem, Shards,
                              /*CompressUniverse=*/true);
      expectResultsIdentical(Plan.WriteRun->Result, W.Result, "WRITE", How);
    }
  }
}

/// The pipeline-level contract behind the shared cache entry: source
/// compiled with and without universe compression produces the same
/// result signature (and therefore the same rendered output).
TEST_P(ShardInvariance, CompressionIsInvisibleInResultSignature) {
  std::string Source = AstPrinter().print(makeProgram(GetParam(), 30));
  PipelineOptions Plain;
  Plain.Audit = true;
  PipelineResult Base = compilePipeline(Source, Plain);
  ASSERT_TRUE(Base.ok()) << Base.Diags.renderText();
  for (unsigned Shards : {0u, 7u}) {
    PipelineOptions Opts = Plain;
    Opts.CompressUniverse = true;
    Opts.SolverShards = Shards;
    PipelineResult R = compilePipeline(Source, Opts);
    EXPECT_EQ(resultSignature(R), resultSignature(Base))
        << "shards " << Shards;
    EXPECT_EQ(R.Annotated, Base.Annotated) << "shards " << Shards;
    // The knob must still *report*: a compressed run carries the
    // accounting that feeds the metrics' compression ratio.
    if (R.Plan && R.Plan->ReadProblem.UniverseSize > 0) {
      EXPECT_GT(R.CompressedUniverse, 0u) << "shards " << Shards;
    }
    EXPECT_LE(R.compressionRatio(), 1.0) << "shards " << Shards;
  }
}

/// The full strategy grid: {1, 2, 7, 16} shards x compression on/off,
/// every cell byte-compared against the classic per-equation oracle.
/// The contiguous arena, the static word-window partition and the
/// class compression all sit below this contract; a divergence in any
/// one of them fails with the exact cell named. (The test keeps its
/// older name, from when the grid also spanned kernel variants and a
/// work-stealing scheduler, so its per-seed test ids stay stable.)
TEST_P(ShardInvariance, KernelShardCompressStealGridMatchesClassic) {
  auto B = buildProgram(makeProgram(GetParam(), 40, 0.1));
  ASSERT_TRUE(B.has_value());
  CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg);
  for (const std::optional<GntRun> *Slot : {&Plan.ReadRun, &Plan.WriteRun}) {
    ASSERT_TRUE(Slot->has_value());
    const GntRun &Run = **Slot;
    const char *Problem =
        Run.OrientedProblem.Dir == Direction::Before ? "READ" : "WRITE";
    GntResult Classic =
        solveGiveNTakeClassic(Run.OrientedIfg, Run.OrientedProblem);
    for (unsigned Shards : {1u, 2u, 7u, 16u}) {
      for (bool Compress : {false, true}) {
        std::string How = "shards=" + std::to_string(Shards) +
                          (Compress ? " compressed" : "");
        GntResult Got =
            Compress ? solveGiveNTakeCompressed(Run.OrientedIfg,
                                                Run.OrientedProblem, Shards)
                     : solveGiveNTakeSharded(Run.OrientedIfg,
                                             Run.OrientedProblem, Shards);
        expectResultsIdentical(Classic, Got, Problem, How);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardInvariance, ::testing::Range(1u, 101u));

//===----------------------------------------------------------------------===//
// Incrementality equivalence battery
//===----------------------------------------------------------------------===//
//
// The contract behind PipelineOptions::Incremental (and behind excluding
// it from the service cache key): for ANY compile history, compiling a
// source through a warm stage cache with incremental solving must be
// byte-identical — result signature, rendered service payload, and all
// 20 solver variables — to a cold compile of the same source. 100 seeds
// each walk an edit script (whitespace-only edit, array rename,
// structural mutations covering statement insert/delete and loop-body
// edits, a revert to the base program, and option flips) against one
// persistent stage cache, under shard counts {1, 7} x universe
// compression {off, on}.

namespace {

class IncrementalEquivalence : public ::testing::TestWithParam<unsigned> {};

/// One step of the edit script: a label for failure messages, the
/// source to compile, and the options to compile it with.
struct EditStep {
  std::string Label;
  std::string Source;
  PipelineOptions Opts;
};

/// A whitespace-only variant: indentation and blank lines change the
/// parse key but not the canonical AST, so everything from the CFG
/// stage on must hit.
std::string whitespaceVariant(const std::string &Source) {
  std::string Out = "\n";
  for (char C : Source) {
    Out += C;
    if (C == '\n')
      Out += "  ";
  }
  Out += "\n\n";
  return Out;
}

/// Renames the first declared array everywhere (a semantic edit that
/// changes item identities but not program shape).
std::string renameVariant(const std::string &Source) {
  ParseResult PR = parseProgram(Source);
  if (!PR.success() || PR.Prog.getArrays().empty())
    return std::string();
  const std::string &Old = PR.Prog.getArrays().begin()->first;
  fuzz::ArrayRenameMap Rename{{Old, "zz_" + Old}};
  return AstPrinter().print(fuzz::cloneProgram(PR.Prog, Rename));
}

std::vector<EditStep> editScript(unsigned Seed, const PipelineOptions &Base) {
  // Goto-free base: partial (masked) incremental re-solves are only
  // legal without JUMP/SYNTHETIC edges, so this exercises the dirty-
  // interval path; mutants may introduce gotos and fall back to full
  // solves, which the equivalence must survive too.
  std::string BaseSrc = AstPrinter().print(makeProgram(Seed, 30, 0.0));
  std::vector<EditStep> Steps;
  Steps.push_back({"base", BaseSrc, Base});
  Steps.push_back({"whitespace", whitespaceVariant(BaseSrc), Base});
  std::string Renamed = renameVariant(BaseSrc);
  if (!Renamed.empty())
    Steps.push_back({"rename", Renamed, Base});
  // Structural mutations (statement insert/delete/duplicate, loop-body
  // rewrites, wraps, goto insertion) from the fuzzer's mutator; each
  // draw is deterministic in (source, seed).
  for (unsigned Draw = 0; Draw != 3; ++Draw) {
    std::mt19937 Rng(Seed * 7919u + Draw);
    std::string Mutant = fuzz::mutateSource(BaseSrc, Rng);
    if (!Mutant.empty() && Mutant != BaseSrc)
      Steps.push_back({"mutant" + std::to_string(Draw), Mutant, Base});
  }
  // Revert: a previously seen AST must still match cold.
  Steps.push_back({"revert", BaseSrc, Base});
  // Option flips against the same warm cache: different solve keys,
  // same frontend artifacts.
  PipelineOptions Owner = Base;
  Owner.Comm.OwnerComputes = true;
  Steps.push_back({"flip-owner-computes", BaseSrc, Owner});
  PipelineOptions Atomic = Base;
  Atomic.Comm.Atomic = true;
  Steps.push_back({"flip-atomic", BaseSrc, Atomic});
  PipelineOptions Pre = Base;
  Pre.Mode = PipelineMode::Pre;
  Steps.push_back({"flip-pre", BaseSrc, Pre});
  return Steps;
}

/// Byte-compares the solver runs of two results (when both carry one).
void expectRunsIdentical(const PipelineResult &Want,
                         const PipelineResult &Got,
                         const std::string &How) {
  if (!Want.Plan || !Got.Plan)
    return;
  auto Check = [&](const std::optional<GntRun> &W,
                   const std::optional<GntRun> &G, const char *Problem) {
    ASSERT_EQ(W.has_value(), G.has_value()) << Problem << " (" << How << ")";
    if (W)
      expectResultsIdentical(W->Result, G->Result, Problem, How);
  };
  Check(Want.Plan->ReadRun, Got.Plan->ReadRun, "READ");
  Check(Want.Plan->WriteRun, Got.Plan->WriteRun, "WRITE");
}

} // namespace

/// The battery: every step's incremental compile is byte-identical to a
/// cold compile, across shard counts and universe compression.
TEST_P(IncrementalEquivalence, EditSweepMatchesColdCompile) {
  for (unsigned Shards : {1u, 7u}) {
    for (bool Compress : {false, true}) {
      PipelineOptions Base;
      Base.Annotate = true;
      Base.Incremental = true;
      Base.SolverShards = Shards;
      Base.CompressUniverse = Compress;
      StageCache Warm; // One warm cache across the whole edit script.
      for (const EditStep &Step : editScript(GetParam(), Base)) {
        std::string How = Step.Label + " shards=" + std::to_string(Shards) +
                          " compress=" + std::to_string(Compress);
        PipelineResult Inc =
            gnt::Pipeline(Step.Opts).compile(Step.Source, &Warm);
        PipelineOptions ColdOpts = Step.Opts;
        ColdOpts.Incremental = false;
        PipelineResult Cold = gnt::Pipeline(ColdOpts).compile(Step.Source);
        EXPECT_EQ(resultSignature(Inc), resultSignature(Cold)) << How;
        EXPECT_EQ(Inc.Annotated, Cold.Annotated) << How;
        EXPECT_EQ(renderResultPayload(Inc), renderResultPayload(Cold))
            << How;
        expectRunsIdentical(Cold, Inc, How);
      }
      // The sweep must actually have exercised the machinery: the
      // whitespace and revert steps guarantee downstream hits, and
      // every comm-mode solve ran through the incremental context.
      StageCacheStats S = Warm.statsSnapshot();
      EXPECT_GT(S.hits(CacheStage::Cfg), 0u);
      EXPECT_GT(S.hits(CacheStage::Solve), 0u);
      EXPECT_TRUE(S.Inc.any());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Range(1u, 101u));

//===----------------------------------------------------------------------===//
// Communication-problem construction vs. a brute-force reference
//===----------------------------------------------------------------------===//
//
// buildCommProblems indexes the item universe by array, by indirection
// array and by dependent scalar, and evaluates each steal predicate only
// inside the matching bucket. The reference below is the direct
// O(nodes x universe) reading of the same rules: every item is tested
// against every use and every array definition of every node. Both must
// set exactly the same TAKE/GIVE/STEAL_init bits. Each seed compiles a
// generated program from one of the generator buckets, plain and with an
// epilogue adding reductions, volatile items (subscripts through
// reassigned scalars, non-affine subscripts) and indirection-array
// definitions, under three option sets.

namespace {

class CommProblemsReference : public ::testing::TestWithParam<unsigned> {};

void referenceCommProblems(const RefAnalysisResult &Refs, const Cfg &G,
                           const IntervalFlowGraph &Ifg,
                           const CommOptions &Opts, GntProblem &Read,
                           GntProblem &Write) {
  unsigned U = Refs.Items.size();
  Read = GntProblem(G.size(), U, Direction::Before);
  Write = GntProblem(G.size(), U, Direction::After);
  for (NodeId N = 0; N != G.size(); ++N) {
    const NodeRefs &R = Refs.PerNode[N];
    for (unsigned Use : R.Uses)
      Read.TakeInit[N].set(Use);
    for (unsigned Use : R.Uses)
      for (unsigned I = 0; I != U; ++I)
        if (Refs.Items.item(I).mayOverlap(Refs.Items.item(Use)))
          Write.StealInit[N].set(I);
    for (unsigned DI = 0; DI != R.Defs.size(); ++DI) {
      unsigned Def = R.Defs[DI];
      bool IsReduction = DI < R.DefOps.size() && R.DefOps[DI] != 0;
      if (!Opts.OwnerComputes && !IsReduction)
        Read.GiveInit[N].set(Def);
      if (!Opts.OwnerComputes)
        Write.TakeInit[N].set(Def);
    }
    for (const RawDef &D : Refs.ArrayDefs[N])
      for (unsigned I = 0; I != U; ++I) {
        const Item &It = Refs.Items.item(I);
        bool Steals = false;
        if (It.Array == D.Array) {
          Item DefItem;
          DefItem.Array = D.Array;
          DefItem.Sec = D.Sec;
          DefItem.Volatile = D.Opaque;
          Steals = It.mayOverlap(DefItem);
          if (Steals && !D.Reduction && !D.Opaque && !It.Volatile &&
              !It.isIndirect() && It.Sec == D.Sec)
            Steals = false;
        }
        if (!Steals && It.isIndirect() && It.IndirectArray == D.Array)
          Steals = D.Opaque || It.Sec.mayOverlap(D.Sec);
        if (Steals)
          Read.StealInit[N].set(I);
      }
    for (const RawDef &D : Refs.ArrayDefs[N])
      for (unsigned I = 0; I != U; ++I) {
        const Item &It = Refs.Items.item(I);
        if (It.isIndirect() && It.IndirectArray == D.Array &&
            (D.Opaque || It.Sec.mayOverlap(D.Sec)))
          Write.StealInit[N].set(I);
      }
  }
  for (const auto &[Scalar, Nodes] : Refs.ScalarAssigns)
    for (unsigned I = 0; I != U; ++I) {
      bool Depends = false;
      for (const std::string &Sym : Refs.Items.item(I).DependsOn)
        Depends |= Sym == Scalar;
      if (Depends)
        for (NodeId N : Nodes) {
          Read.StealInit[N].set(I);
          Write.StealInit[N].set(I);
        }
    }
  if (!Opts.HoistZeroTrip)
    for (NodeId N = 0; N != G.size(); ++N)
      if (N != Ifg.root() && Ifg.isHeader(N)) {
        Read.NoHoistHeaders.push_back(N);
        Write.NoHoistHeaders.push_back(N);
      }
}

/// Appended to generated programs (which declare x0..x2 distributed and
/// a0, a1 local): reductions over direct and indirect sections, items
/// subscripted through the reassigned scalar k (volatile, stolen at each
/// assignment), a non-affine subscript, strided sections and
/// definitions of the indirection array a0.
constexpr const char *Epilogue = "k = n - 2\n"
                                 "do j = 1, n\n"
                                 "  x0(j) = x0(j) + x1(k)\n"
                                 "  x1(a0(j)) = x1(a0(j)) * x2(j + 1)\n"
                                 "  a0(j + 1) = x0(j + 1)\n"
                                 "  x2(a1(k)) = x0(2*j - 1)\n"
                                 "  x0(2*j) = x0(2*j) + 1\n"
                                 "enddo\n"
                                 "x2(x1(a0(1))) = x0(k) + x2(n - 1)\n"
                                 "k = k + 1\n"
                                 "x1(k) = x1(n) + x1(a0(2))\n";

void expectBitsEqual(const BitRows &Want,
                     const BitRows &Got, const char *What,
                     const std::string &How) {
  ASSERT_EQ(Want.size(), Got.size()) << What << " (" << How << ")";
  for (std::size_t N = 0; N != Want.size(); ++N)
    EXPECT_TRUE(Want[N] == Got[N]) << What << " node " << N << " (" << How
                                   << ")";
}

/// Compares buildCommProblems with the reference on \p Source. With
/// \p ExpectEveryKind the universe must hold indirect, reduction and
/// volatile items and the program must reassign a scalar, so every
/// bucket kind is exercised.
void compareWithReference(const std::string &Source, const std::string &How,
                          bool ExpectEveryKind) {
  ParseResult PR = parseProgram(Source);
  ASSERT_TRUE(PR.success()) << How << ": "
                            << (PR.Errors.empty() ? "" : PR.Errors.front());
  auto B = buildProgram(std::move(PR.Prog));
  ASSERT_TRUE(B.has_value()) << How;
  RefAnalysisResult Refs = analyzeReferences(B->Prog, B->G);
  if (ExpectEveryKind) {
    bool Indirect = false, Reduction = false, Volatile = false;
    for (unsigned I = 0; I != Refs.Items.size(); ++I) {
      const Item &It = Refs.Items.item(I);
      Indirect |= It.isIndirect();
      Reduction |= It.ReductionOp != 0;
      Volatile |= It.Volatile;
    }
    EXPECT_TRUE(Indirect && Reduction && Volatile) << How;
    EXPECT_FALSE(Refs.ScalarAssigns.empty()) << How;
  }

  CommOptions Owner;
  Owner.OwnerComputes = true;
  CommOptions NoHoist;
  NoHoist.HoistZeroTrip = false;
  for (const auto &[Name, Opts] :
       {std::pair<const char *, CommOptions>{"default", CommOptions()},
        {"owner-computes", Owner},
        {"no-hoist-zero-trip", NoHoist}}) {
    std::string Label = How + " " + Name;
    GntProblem Read, Write, WantRead, WantWrite;
    buildCommProblems(Refs, B->G, B->Ifg, Opts, Read, Write);
    referenceCommProblems(Refs, B->G, B->Ifg, Opts, WantRead, WantWrite);
    for (auto [Problem, Want, Got] :
         {std::tuple<const char *, GntProblem *, GntProblem *>{
              "READ", &WantRead, &Read},
          {"WRITE", &WantWrite, &Write}}) {
      std::string Where = Label + " " + Problem;
      EXPECT_EQ(Want->Dir, Got->Dir) << Where;
      EXPECT_EQ(Want->UniverseSize, Got->UniverseSize) << Where;
      expectBitsEqual(Want->TakeInit, Got->TakeInit, "TakeInit", Where);
      expectBitsEqual(Want->GiveInit, Got->GiveInit, "GiveInit", Where);
      expectBitsEqual(Want->StealInit, Got->StealInit, "StealInit", Where);
      EXPECT_EQ(Want->NoHoistHeaders, Got->NoHoistHeaders) << Where;
    }
  }
}

} // namespace

TEST_P(CommProblemsReference, BucketedBuildMatchesBruteForce) {
  unsigned Seed = GetParam();
  std::string Source = AstPrinter().print(generateRandomProgram(
      genConfigForBucket(Seed % NumGenBuckets, Seed)));
  compareWithReference(Source, "generated", false);
  compareWithReference(Source + Epilogue, "generated+epilogue", true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommProblemsReference,
                         ::testing::Range(1u, 101u));

//===----------------------------------------------------------------------===//
// Loop forest vs. the membership-matrix reference
//===----------------------------------------------------------------------===//
//
// LoopForest::compute claims each node for its innermost loop in one
// union-find pass over the headers, innermost first. The reference below
// is the direct reading of the definition: one membership row per
// header (the backward closure from its back-edge sources), and for every
// node the smallest loop containing it. Both must agree on parent, level,
// header flag and back-edge sources of every node, in every CFG state
// IntervalFlowGraph::build passes through on its way to the normalized
// graph.

namespace {

class LoopForestReference : public ::testing::TestWithParam<unsigned> {};

struct ReferenceForest {
  std::vector<NodeId> Parent;
  std::vector<unsigned> Level;
  std::vector<std::vector<NodeId>> BackEdgeSources;
};

std::optional<ReferenceForest> referenceLoopForest(const Cfg &G,
                                                   const Dominators &Dom) {
  unsigned N = G.size();
  NodeId Root = G.entry();
  ReferenceForest F;
  F.Parent.assign(N, InvalidNode);
  F.Level.assign(N, 1);
  F.BackEdgeSources.assign(N, {});
  F.Level[Root] = 0;

  // Retreating edges of a DFS from ROOT; each must be a back edge.
  std::vector<char> State(N, 0);
  std::vector<std::pair<NodeId, unsigned>> Stack = {{Root, 0}};
  State[Root] = 1;
  while (!Stack.empty()) {
    auto &[Node, NextSucc] = Stack.back();
    const auto &Succs = G.node(Node).Succs;
    if (NextSucc < Succs.size()) {
      NodeId S = Succs[NextSucc++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.push_back({S, 0});
      } else if (State[S] == 1) {
        if (S == Node || !Dom.dominates(S, Node))
          return std::nullopt;
        F.BackEdgeSources[S].push_back(Node);
      }
      continue;
    }
    State[Node] = 2;
    Stack.pop_back();
  }

  std::vector<NodeId> Headers;
  std::vector<std::vector<char>> Member(N);
  for (NodeId H = 0; H != N; ++H) {
    if (F.BackEdgeSources[H].empty())
      continue;
    Headers.push_back(H);
    Member[H].assign(N, 0);
    std::vector<NodeId> Work;
    for (NodeId Src : F.BackEdgeSources[H])
      if (!Member[H][Src]) {
        Member[H][Src] = 1;
        Work.push_back(Src);
      }
    while (!Work.empty()) {
      NodeId M = Work.back();
      Work.pop_back();
      if (M == H)
        continue;
      for (NodeId P : G.node(M).Preds)
        if (P != H && !Member[H][P]) {
          Member[H][P] = 1;
          Work.push_back(P);
        }
    }
    Member[H][H] = 0;
  }

  std::vector<std::size_t> LoopSize(N, 0);
  for (NodeId H : Headers)
    LoopSize[H] = static_cast<std::size_t>(
        std::count(Member[H].begin(), Member[H].end(), 1));
  for (NodeId Node = 0; Node != N; ++Node) {
    if (Node == Root)
      continue;
    NodeId Best = Root;
    std::size_t BestSize = ~std::size_t(0);
    for (NodeId H : Headers)
      if (Member[H][Node] && LoopSize[H] < BestSize) {
        Best = H;
        BestSize = LoopSize[H];
      }
    F.Parent[Node] = Best;
  }

  // Levels by walking each parent chain up to ROOT.
  for (NodeId Node = 0; Node != N; ++Node) {
    unsigned L = 0;
    for (NodeId Cur = Node; Cur != Root; Cur = F.Parent[Cur])
      ++L;
    F.Level[Node] = L;
  }
  return F;
}

/// Runs IntervalFlowGraph::build's normalization loop on \p G, comparing
/// LoopForest::compute with the reference in every state. Returns the
/// number of states compared.
unsigned expectForestsAgree(Cfg G, const std::string &How) {
  unsigned States = 0;
  for (unsigned Round = 0; Round <= 16; ++Round) {
    Dominators Dom(G);
    std::vector<std::string> Errors;
    std::optional<LoopForest> Got = LoopForest::compute(G, Dom, Errors);
    std::optional<ReferenceForest> Want = referenceLoopForest(G, Dom);
    EXPECT_EQ(Want.has_value(), Got.has_value()) << How;
    if (!Got || !Want)
      return States;
    ++States;
    std::string Where = How + " round " + std::to_string(Round);
    EXPECT_EQ(Got->root(), G.entry()) << Where;
    for (NodeId Node = 0; Node != G.size(); ++Node) {
      EXPECT_EQ(Want->Parent[Node], Got->parent(Node))
          << Where << " node " << Node;
      EXPECT_EQ(Want->Level[Node], Got->level(Node))
          << Where << " node " << Node;
      EXPECT_EQ(!Want->BackEdgeSources[Node].empty(), Got->isHeader(Node))
          << Where << " node " << Node;
      EXPECT_EQ(Want->BackEdgeSources[Node], Got->backEdgeSources(Node))
          << Where << " node " << Node;
    }
    if (::testing::Test::HasFailure() || !normalizeOnce(G, *Got))
      return States;
  }
  ADD_FAILURE() << How << ": normalization did not converge";
  return States;
}

unsigned expectForestsAgreeOnSource(const std::string &Source,
                                    const std::string &How) {
  ParseResult PR = parseProgram(Source);
  EXPECT_TRUE(PR.success()) << How;
  if (!PR.success())
    return 0;
  CfgBuildResult CR = buildCfg(PR.Prog);
  EXPECT_TRUE(CR.success()) << How;
  if (!CR.success())
    return 0;
  return expectForestsAgree(std::move(CR.G), How);
}

} // namespace

TEST_P(LoopForestReference, UnionFindForestMatchesMembershipRows) {
  unsigned Seed = GetParam();
  for (unsigned Bucket = 0; Bucket != NumGenBuckets; ++Bucket) {
    std::string How =
        "seed " + std::to_string(Seed) + " bucket " + std::to_string(Bucket);
    Program Prog = generateRandomProgram(genConfigForBucket(Bucket, Seed));
    CfgBuildResult CR = buildCfg(Prog);
    ASSERT_TRUE(CR.success()) << How;
    EXPECT_GE(expectForestsAgree(std::move(CR.G), How), 1u) << How;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoopForestReference,
                         ::testing::Range(1u, 101u));

TEST(LoopForestReferenceGraphs, LargeGeneratedPrograms) {
  for (unsigned Stmts : {400u, 1600u})
    for (unsigned Bucket : {0u, 1u}) {
      GenConfig C = genConfigForBucket(Bucket, 7);
      C.TargetStmts = Stmts;
      CfgBuildResult CR = buildCfg(generateRandomProgram(C));
      std::string How = std::to_string(Stmts) + " statements bucket " +
                        std::to_string(Bucket);
      ASSERT_TRUE(CR.success()) << How;
      EXPECT_GE(expectForestsAgree(std::move(CR.G), How), 1u) << How;
    }
}

namespace {

/// The loop shapes of IntervalTest and NormalizationTest: nesting,
/// siblings, multi-level jumps, goto-formed loops and the three
/// normalization rounds.
std::vector<std::pair<const char *, const char *>> handWrittenLoopShapes() {
  return {
      {"paper figure 11", fig11Source()},
      {"nested loops", "do i = 1, n\n"
                       "  do j = 1, n\n"
                       "    v = i + j\n"
                       "  enddo\n"
                       "enddo\n"},
      {"sibling loops", "do i = 1, n\n"
                        "  v = i\n"
                        "enddo\n"
                        "do j = 1, n\n"
                        "  w = j\n"
                        "enddo\n"},
      {"multi-level jump", "do i = 1, n\n"
                           "  do j = 1, n\n"
                           "    if (t(j)) goto 99\n"
                           "    v = j\n"
                           "  enddo\n"
                           "enddo\n"
                           "99 w = 1\n"},
      {"goto-formed loop", "10 v = v + 1\n"
                           "if (v < n) goto 10\n"
                           "w = 1\n"},
      {"header with two back edges", "array w\n"
                                     "v = 0\n"
                                     "10 v = v + 1\n"
                                     "if (t(v)) goto 10\n"
                                     "w(1) = v\n"
                                     "if (t(v)) goto 10\n"
                                     "w(2) = v\n"},
      {"header branching into body", "array w\n"
                                     "v = 0\n"
                                     "10 if (t(v)) then\n"
                                     "  v = v + 1\n"
                                     "else\n"
                                     "  v = v + 2\n"
                                     "endif\n"
                                     "if (v < n) goto 10\n"
                                     "w(1) = v\n"},
      {"deep back edge", "array w\n"
                         "v = 0\n"
                         "10 v = v + 1\n"
                         "do i = 1, n\n"
                         "  if (t(i)) goto 10\n"
                         "  w(i) = v\n"
                         "enddo\n"},
  };
}

} // namespace

TEST(LoopForestReferenceGraphs, HandWrittenLoopShapes) {
  const auto Shapes = handWrittenLoopShapes();
  unsigned Normalized = 0;
  for (const auto &[Name, Source] : Shapes) {
    unsigned States = expectForestsAgreeOnSource(Source, Name);
    EXPECT_GE(States, 1u) << Name;
    Normalized += States > 1;
  }
  // The header with two back edges needs a latch round and the header
  // branching into its body an entry-child round.
  EXPECT_GE(Normalized, 2u);

  // Irreducible control flow is rejected by both.
  EXPECT_EQ(expectForestsAgreeOnSource("if (c > 0) goto 20\n"
                                       "do i = 1, n\n"
                                       "20 v = i\n"
                                       "enddo\n",
                                       "irreducible"),
            0u);
}

//===----------------------------------------------------------------------===//
// Interval flow graph reversal: the AFTER orientation is the CSR
// transpose with ENTRY and CYCLE swapped, and reversing twice is the
// identity on every accessor.
//===----------------------------------------------------------------------===//

namespace {

class ReversedGraph : public ::testing::TestWithParam<unsigned> {};

bool sameEdges(std::span<const IfgEdge> A, std::span<const IfgEdge> B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(),
                    [](const IfgEdge &X, const IfgEdge &Y) {
                      return X.Src == Y.Src && X.Dst == Y.Dst &&
                             X.Type == Y.Type;
                    });
}

/// \p Edges with every edge flipped: source and destination swapped,
/// ENTRY and CYCLE exchanged.
std::vector<IfgEdge> flipped(std::span<const IfgEdge> Edges) {
  std::vector<IfgEdge> Out;
  for (const IfgEdge &E : Edges) {
    EdgeType T = E.Type == EdgeType::Entry   ? EdgeType::Cycle
                 : E.Type == EdgeType::Cycle ? EdgeType::Entry
                                             : E.Type;
    Out.push_back({E.Dst, E.Src, T});
  }
  return Out;
}

/// Checks both reversal laws on \p G; returns the node count.
unsigned expectReversalLaws(const IntervalFlowGraph &G,
                            const std::string &How) {
  const IntervalFlowGraph R = G.reversed();
  const IntervalFlowGraph RR = R.reversed();
  EXPECT_TRUE(R.isReversed()) << How;
  EXPECT_EQ(RR.isReversed(), G.isReversed()) << How;
  EXPECT_EQ(RR.size(), G.size()) << How;
  EXPECT_EQ(RR.root(), G.root()) << How;
  EXPECT_EQ(RR.preorder(), G.preorder()) << How;
  EXPECT_EQ(RR.hasJumpEdges(), G.hasJumpEdges()) << How;
  EXPECT_EQ(RR.jumpPoisonedHeaders(), G.jumpPoisonedHeaders()) << How;
  for (NodeId N = 0; N != G.size(); ++N) {
    const std::string At = How + " node " + std::to_string(N);
    EXPECT_EQ(RR.level(N), G.level(N)) << At;
    EXPECT_EQ(RR.parent(N), G.parent(N)) << At;
    EXPECT_EQ(RR.isHeader(N), G.isHeader(N)) << At;
    EXPECT_EQ(RR.lastChild(N), G.lastChild(N)) << At;
    EXPECT_EQ(RR.headerOf(N), G.headerOf(N)) << At;
    EXPECT_TRUE(std::ranges::equal(RR.children(N), G.children(N))) << At;
    EXPECT_TRUE(sameEdges(RR.succs(N), G.succs(N))) << At;
    EXPECT_TRUE(sameEdges(RR.preds(N), G.preds(N))) << At;

    EXPECT_TRUE(sameEdges(R.succs(N), flipped(G.preds(N)))) << At;
    EXPECT_TRUE(sameEdges(R.preds(N), flipped(G.succs(N)))) << At;
    std::vector<NodeId> Kids(G.children(N).begin(), G.children(N).end());
    std::reverse(Kids.begin(), Kids.end());
    EXPECT_TRUE(std::ranges::equal(R.children(N), Kids)) << At;
    EXPECT_EQ(R.level(N), G.level(N)) << At;
    EXPECT_EQ(R.parent(N), G.parent(N)) << At;
  }
  return G.size();
}

unsigned expectReversalLawsOnSource(const std::string &Source,
                                    const std::string &How) {
  ParseResult PR = parseProgram(Source);
  EXPECT_TRUE(PR.success()) << How;
  if (!PR.success())
    return 0;
  CfgBuildResult CR = buildCfg(PR.Prog);
  EXPECT_TRUE(CR.success()) << How;
  if (!CR.success())
    return 0;
  auto IR = IntervalFlowGraph::build(CR.G);
  EXPECT_TRUE(IR.success()) << How;
  return IR.success() ? expectReversalLaws(*IR.Ifg, How) : 0;
}

} // namespace

TEST_P(ReversedGraph, DoubleReversalIsIdentity) {
  unsigned Seed = GetParam();
  for (unsigned Bucket = 0; Bucket != NumGenBuckets; ++Bucket) {
    std::string How =
        "seed " + std::to_string(Seed) + " bucket " + std::to_string(Bucket);
    Program Prog = generateRandomProgram(genConfigForBucket(Bucket, Seed));
    EXPECT_GE(expectReversalLawsOnSource(AstPrinter().print(Prog), How), 2u)
        << How;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReversedGraph, ::testing::Range(1u, 101u));

TEST(ReversedGraphShapes, HandWrittenLoopShapes) {
  for (const auto &[Name, Source] : handWrittenLoopShapes())
    EXPECT_GE(expectReversalLawsOnSource(Source, Name), 2u) << Name;
}
