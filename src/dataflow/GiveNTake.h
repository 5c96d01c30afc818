//===- dataflow/GiveNTake.h - The GIVE-N-TAKE framework ---------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution: the GIVE-N-TAKE balanced code placement
/// framework. Given per-node initial sets over an abstract item universe —
///
///   TAKE_init(n)  items consumed at n,
///   GIVE_init(n)  items produced "for free" at n (side effects),
///   STEAL_init(n) items whose production is voided at n —
///
/// the solver evaluates Equations 1-15 (Figure 13) with the three-pass
/// elimination schedule of Figure 15, producing the EAGER and LAZY
/// placements RES_in/RES_out for every node. Each equation is evaluated
/// exactly once per node, so the solver runs in O(E) set operations.
///
/// BEFORE problems (produce before consuming, e.g. message receives) run
/// on the forward interval flow graph; AFTER problems (produce after
/// consuming, e.g. writing results back) run on the reversed graph, with
/// every interval that a JUMP edge leaves poisoned via STEAL_init = TOP
/// to prevent unsafe hoisting (Section 5.3).
///
/// Solver performance is three composable layers, each preserving
/// byte-identical results: fused word sweeps over a flat DataflowMatrix
/// arena (solveGiveNTake), item-sharded parallel solving of disjoint
/// word windows (solveGiveNTakeSharded), and universe compression onto
/// column equivalence classes with verified expansion
/// (solveGiveNTakeCompressed — which itself shards the compressed
/// solve). None is "the" fast path; their wins multiply.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_DATAFLOW_GIVENTAKE_H
#define GNT_DATAFLOW_GIVENTAKE_H

#include "interval/IntervalFlowGraph.h"
#include "support/BitVector.h"
#include "support/DataflowMatrix.h"

#include <atomic>
#include <memory>
#include <vector>

namespace gnt {

namespace detail {
/// Test-only fault injection: when set, the arena evaluator's fused S4
/// sweep computes Eq. 14 as GIVEN n GIVEN_in instead of
/// GIVEN - GIVEN_in. The classic per-equation solver is unaffected, so
/// the fuzzer's differential oracle must flag every program with a
/// nonempty placement. Exists solely so gnt-fuzz --inject-bug and
/// FuzzTest can prove the harness catches and minimizes a real solver
/// bug; never set on a production path.
extern std::atomic<bool> InjectFusedSweepBug;
} // namespace detail

/// Whether items must be produced before or after they are consumed.
enum class Direction { Before, After };

/// Whether to produce as early as possible (e.g. sends) or as late as
/// possible (e.g. receives). For AFTER problems "early" and "late" are
/// relative to the reversed flow of control.
enum class Urgency { Eager, Lazy };

/// Inputs to a GIVE-N-TAKE instance. The three init fields are indexed
/// by CFG node id and sized to the item universe; they are row views
/// (BitRows) over one zeroed matrix the problem owns, so `TakeInit[n]`
/// is a BitRow: `set(i)`, `|=`, iteration and assignment all read or
/// write the matrix row in place. Copying a problem copies the matrix
/// in one memcpy and re-binds the fields to the copy.
struct GntProblem {
  Direction Dir = Direction::Before;
  unsigned UniverseSize = 0;
  BitRows TakeInit;
  BitRows GiveInit;
  BitRows StealInit;

  /// Headers treated pessimistically for zero-trip execution: the
  /// Equation 5 hoisting terms are suppressed (consumption from the loop
  /// body is not pulled into the header) and the Equation 2 GIVE summary
  /// is dropped (in-body production does not count as available past the
  /// loop). Unrelated production can still cross such loops. This is the
  /// per-loop opt-out of Sections 4.1 / 5.3.
  std::vector<NodeId> NoHoistHeaders;

  GntProblem() = default;
  GntProblem(unsigned NumNodes, unsigned UniverseSize,
             Direction Dir = Direction::Before)
      : Dir(Dir), UniverseSize(UniverseSize),
        Init(3 * NumNodes, UniverseSize) {
    bind();
  }
  GntProblem(const GntProblem &RHS)
      : Dir(RHS.Dir), UniverseSize(RHS.UniverseSize),
        NoHoistHeaders(RHS.NoHoistHeaders), Init(RHS.Init) {
    bind();
  }
  GntProblem(GntProblem &&RHS) noexcept
      : Dir(RHS.Dir), UniverseSize(RHS.UniverseSize),
        NoHoistHeaders(std::move(RHS.NoHoistHeaders)),
        Init(std::move(RHS.Init)) {
    bind();
    RHS.bind();
  }
  GntProblem &operator=(const GntProblem &RHS) {
    if (this != &RHS)
      *this = GntProblem(RHS);
    return *this;
  }
  GntProblem &operator=(GntProblem &&RHS) noexcept {
    if (this != &RHS) {
      Dir = RHS.Dir;
      UniverseSize = RHS.UniverseSize;
      NoHoistHeaders = std::move(RHS.NoHoistHeaders);
      Init = std::move(RHS.Init);
      bind();
      RHS.bind();
    }
    return *this;
  }

  unsigned numNodes() const { return TakeInit.size(); }

  /// The backing matrix, field-major: rows [0, N) are TAKE_init,
  /// [N, 2N) GIVE_init and [2N, 3N) STEAL_init.
  const DataflowMatrix &initMatrix() const { return Init; }

private:
  void bind() {
    const unsigned N = Init.rows() / 3;
    TakeInit = Init.field(0, N);
    GiveInit = Init.field(N, N);
    StealInit = Init.field(2 * N, N);
  }

  DataflowMatrix Init;
};

/// One placement solution (either EAGER or LAZY): Equations 11-15.
struct GntPlacement {
  BitRows GivenIn;  ///< Eq. 11.
  BitRows Given;    ///< Eq. 12.
  BitRows GivenOut; ///< Eq. 13.
  BitRows ResIn;    ///< Eq. 14: production at node entry.
  BitRows ResOut;   ///< Eq. 15: production at node exit.
};

/// What the universe-compression layer did for one solve. Zero-valued
/// (Applied == false, Classes == Universe) when compression was not
/// requested; when it was requested but unprofitable, the partition
/// numbers are still reported with Applied == false.
struct GntCompressionStats {
  unsigned Universe = 0; ///< Original item universe size.
  unsigned Classes = 0;  ///< Column equivalence classes (compressed size).
  unsigned Elided = 0;   ///< Trivially-bottom items dropped outright.
  bool Applied = false;  ///< Whether the compressed solve actually ran.
};

/// Full solver output, exposing every intermediate dataflow variable so
/// tests can validate the paper's Section 4 worked example directly.
/// All variables are expressed in the *solving* orientation: for AFTER
/// problems, "in" refers to the node exit in program order.
///
/// Every field is a row view over one solve arena: `Take[n]` is row
/// (FTake * N + n) of \p Arena, with no per-node object behind it.
struct GntResult {
  BitRows Steal;    ///< Eq. 1.
  BitRows Give;     ///< Eq. 2.
  BitRows Block;    ///< Eq. 3.
  BitRows TakenOut; ///< Eq. 4.
  BitRows Take;     ///< Eq. 5.
  BitRows TakenIn;  ///< Eq. 6.
  BitRows BlockLoc; ///< Eq. 7.
  BitRows TakeLoc;  ///< Eq. 8.
  BitRows GiveLoc;  ///< Eq. 9.
  BitRows StealLoc; ///< Eq. 10.
  GntPlacement Eager;
  GntPlacement Lazy;

  /// The arena the fields view: 20 x N rows, field-major in
  /// forEachGntField order. An incremental memo hit shares it with the
  /// memo; copying a GntResult deep-copies it, so a copy owns
  /// independent storage. Null for a default-constructed result.
  std::shared_ptr<DataflowMatrix> Arena;

  /// Universe-compression accounting for this solve (see
  /// solveGiveNTakeCompressed). Default-constructed for the other
  /// entry points.
  GntCompressionStats Compression;

  GntResult() = default;
  /// Binds the 20 fields to \p Arena, which must hold 20 x N rows.
  explicit GntResult(std::shared_ptr<DataflowMatrix> Arena);
  GntResult(const GntResult &RHS);
  GntResult(GntResult &&RHS) noexcept;
  GntResult &operator=(const GntResult &RHS);
  GntResult &operator=(GntResult &&RHS) noexcept;

  /// Number of nodes (rows per field).
  unsigned numNodes() const { return Steal.size(); }

private:
  void bind();
};

/// Number of dataflow variables a GntResult holds per node.
inline constexpr unsigned NumGntFields = 20;

/// Applies \p Fn("NAME", Field) to every dataflow variable of a
/// GntResult: the ten Figure 13 variables plus the five placement
/// variables of each urgency (20 BitRows fields total), in arena
/// order. Shard stitching and
/// the differential test battery iterate fields through this helper, so
/// both stay exhaustive by construction when a field is added.
template <typename ResultT, typename Fn>
void forEachGntField(ResultT &&R, Fn &&F) {
  F("STEAL", R.Steal);
  F("GIVE", R.Give);
  F("BLOCK", R.Block);
  F("TAKEN_out", R.TakenOut);
  F("TAKE", R.Take);
  F("TAKEN_in", R.TakenIn);
  F("BLOCK_loc", R.BlockLoc);
  F("TAKE_loc", R.TakeLoc);
  F("GIVE_loc", R.GiveLoc);
  F("STEAL_loc", R.StealLoc);
  F("EAGER.GIVEN_in", R.Eager.GivenIn);
  F("EAGER.GIVEN", R.Eager.Given);
  F("EAGER.GIVEN_out", R.Eager.GivenOut);
  F("EAGER.RES_in", R.Eager.ResIn);
  F("EAGER.RES_out", R.Eager.ResOut);
  F("LAZY.GIVEN_in", R.Lazy.GivenIn);
  F("LAZY.GIVEN", R.Lazy.Given);
  F("LAZY.GIVEN_out", R.Lazy.GivenOut);
  F("LAZY.RES_in", R.Lazy.ResIn);
  F("LAZY.RES_out", R.Lazy.ResOut);
}

/// Runs the three-pass elimination solver of Figure 15 on \p Ifg. The
/// graph must already be oriented for the problem direction (callers
/// normally use runGiveNTake() below). ROOT's placement variables are
/// pinned to bottom so production lands on real program nodes, matching
/// the paper's worked example.
///
/// The evaluator works on a flat DataflowMatrix arena (one contiguous
/// allocation for all 20 variables) and fuses the equations of each
/// schedule step into a single word loop per node; the result's fields
/// are row views over that arena. Values are
/// bit-for-bit identical to solveGiveNTakeClassic(). This is the base
/// layer of the solver stack; solveGiveNTakeSharded parallelizes it
/// across the universe and solveGiveNTakeCompressed narrows the
/// universe it sweeps.
GntResult solveGiveNTake(const IntervalFlowGraph &Ifg, const GntProblem &P);

/// The pre-arena evaluator: one BitVector temporary per equation term,
/// exactly one equation at a time. Kept as the differential oracle for
/// the arena solver (the property battery asserts byte-identical
/// results) and as the baseline bench_solver_scaling measures the arena
/// speedup against. Not used on any production path.
GntResult solveGiveNTakeClassic(const IntervalFlowGraph &Ifg,
                                const GntProblem &P);

/// Solves \p P with the item universe split into \p Shards static,
/// balanced word windows solved in parallel over one shared arena (at
/// most one worker per hardware thread). Equations 1-15 are item-wise
/// independent — every operation is a bitwise AND/OR/ANDNOT that never
/// crosses bit lanes — so any shard count yields results byte-identical
/// to the serial solve; that invariance is a hard contract enforced by
/// the property battery. Shards <= 1 (or a single-word universe) falls
/// back to the serial arena solver; shard counts beyond the word count
/// are clamped.
GntResult solveGiveNTakeSharded(const IntervalFlowGraph &Ifg,
                                const GntProblem &P, unsigned Shards);

/// Solves \p P on the universe compressed to its column equivalence
/// classes. Equations 1-15 never cross bit lanes, so an item's solution
/// in every variable is a function of its column across (TAKE_init,
/// GIVE_init, STEAL_init) alone: items with identical columns are
/// solved once via a representative, items with all-empty columns are
/// elided as trivially bottom, and the compressed solution is expanded
/// back to the full universe afterwards (word-run copies into a fresh
/// arena of the same 20 x N layout).
/// Results are byte-identical to the plain solve — a contract enforced
/// by the property battery and the fuzzer's differential oracle.
///
/// When the partition does not shrink the universe at least 4x the
/// call falls back to the plain arena/sharded solve; the partition
/// aborts as soon as its (monotone) live class count proves that
/// outcome, bounding the overhead on incompressible problems to a
/// fraction of the O(set bits) partition sweep. \p Shards applies to
/// whichever solve runs (compressed or fallback) and to the row
/// expansion. Compression accounting is reported in
/// GntResult::Compression either way.
GntResult solveGiveNTakeCompressed(const IntervalFlowGraph &Ifg,
                                   const GntProblem &P, unsigned Shards = 0);

/// A complete, oriented GIVE-N-TAKE run.
struct GntRun {
  /// The graph the solver ran on: \p Forward itself for BEFORE problems,
  /// its reversal for AFTER problems.
  IntervalFlowGraph OrientedIfg;
  /// The problem after AFTER-direction jump poisoning.
  GntProblem OrientedProblem;
  GntResult Result;

  /// Production at the *program-order* entry of node \p N for \p U.
  ConstBitRow resAtEntry(Urgency U, NodeId N) const {
    const GntPlacement &P = U == Urgency::Eager ? Result.Eager : Result.Lazy;
    return OrientedProblem.Dir == Direction::Before ? P.ResIn[N]
                                                    : P.ResOut[N];
  }

  /// Production at the *program-order* exit of node \p N for \p U.
  ConstBitRow resAtExit(Urgency U, NodeId N) const {
    const GntPlacement &P = U == Urgency::Eager ? Result.Eager : Result.Lazy;
    return OrientedProblem.Dir == Direction::Before ? P.ResOut[N]
                                                    : P.ResIn[N];
  }
};

/// Orients the problem (reversing the graph and poisoning jumped-out
/// intervals for AFTER problems) and solves it. \p SolverShards > 1
/// solves the item universe in that many word-aligned shards on a
/// transient thread pool; \p CompressUniverse first narrows the
/// universe to its column equivalence classes (compression runs on the
/// *oriented* problem, after jump poisoning, so poisoned STEAL rows are
/// part of the partitioned columns). Both are solver strategy knobs:
/// by contract the result is byte-identical to the serial,
/// uncompressed solve.
GntRun runGiveNTake(const IntervalFlowGraph &Forward, const GntProblem &P,
                    unsigned SolverShards = 0, bool CompressUniverse = false);

namespace detail {

/// Node masks selecting which schedule steps the masked re-solve
/// evaluates (dataflow/Incremental.cpp computes them as the dirty
/// closure of the nodes whose init rows changed). Each vector has one
/// char per node; nonzero means "recompute this node's step". A step
/// skipped for node n leaves n's rows exactly as the caller seeded
/// them, so the arena must arrive holding a previously converged
/// solution for the same graph.
struct ArenaSolveMasks {
  const std::vector<char> *S1 = nullptr; ///< Pass 1 gathers + Eq. 1-8.
  const std::vector<char> *S2 = nullptr; ///< Eq. 9-10 at child visit.
  const std::vector<char> *S3 = nullptr; ///< Pass 2, Eq. 11-13.
  const std::vector<char> *S4 = nullptr; ///< Pass 3, Eq. 14-15.

  /// Optional value-level refinement. The step masks above are a
  /// structural over-approximation: they mark every step whose inputs
  /// *could* transitively depend on a changed init row, which on a
  /// straight-line interval chain degenerates to all steps (ROOT's
  /// Eq. 1-2 summaries chain through every sibling's S2 row). With
  /// \p Baseline set to the previously converged arena and
  /// \p ChangedInit to the per-node init-digest change flags, the
  /// evaluator prunes exactly: a candidate step runs only when one of
  /// the rows it reads has actually changed relative to \p Baseline
  /// (tracked by comparing each evaluated step's output rows against
  /// the baseline bytes). Skipping is sound by induction over the
  /// schedule — a skipped step's inputs are byte-equal to the baseline
  /// solve's, so its cloned output rows are exactly what re-evaluation
  /// would write.
  const DataflowMatrix *Baseline = nullptr;
  /// One char per node; nonzero marks nodes whose TAKE/GIVE/STEAL init
  /// rows differ from the baseline solve. Required when \p Baseline is
  /// set.
  const std::vector<char> *ChangedInit = nullptr;
  /// Out-param (may be null): one char per node, set to 1 when any
  /// schedule step for that node was actually evaluated. S2 runs are
  /// attributed to the child whose rows they write.
  std::vector<char> *Ran = nullptr;
};

/// Re-runs the fused evaluator full-width over \p M, restricted to the
/// nodes selected by \p Masks. Unlike a cold solve the arena is NOT
/// zero-initialized first: \p M must hold a complete converged solution
/// for the same (graph, universe) whose non-dirty rows double as the
/// skipped steps' values. Sound only on graphs whose oriented form has
/// no JUMP/SYNTHETIC edges — early reads across those edges must see
/// bottom on a cold solve, which a warm arena cannot provide; callers
/// (runGiveNTakeIncremental) gate on that and fall back to a full
/// solve.
void resolveArenaMasked(const IntervalFlowGraph &Ifg, const GntProblem &P,
                        DataflowMatrix &M, const ArenaSolveMasks &Masks);

} // namespace detail

} // namespace gnt

#endif // GNT_DATAFLOW_GIVENTAKE_H
