//===- gntbench/src/Replay.cpp - Traced per-module replay -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The per-layer split of a request. Every distinct program of the
// workload is compiled once more by calling each module's public entry
// point in the order Pipeline::compile and generateComm call them, with
// a span around each call. The rendered payload must equal the
// reference, so the replay times exactly the work the service does on a
// cold request.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "cfg/CfgBuilder.h"
#include "comm/CommGen.h"
#include "frontend/Parser.h"
#include "service/BatchServer.h"

#include <memory>

using namespace gntbench;
using namespace gnt;

void gntbench::runLayerReplay(const Corpus &C, Tracer &T, Report &R) {
  const CommOptions &CO = C.Opts.Comm;
  double Stmts = 0, CfgNodes = 0, IfgNodes = 0, Items = 0, SolvedNodes = 0;
  std::uint64_t Id = 0;
  for (const Prog &P : C.Progs) {
    ++Id;
    ScopedSpan Root(T, "replay", Id);

    ParseResult Parsed;
    {
      ScopedSpan S(T, "frontend.parse", Id);
      Parsed = parseProgram(P.Source);
    }
    if (!Parsed.success()) {
      R.fail("replay: parse failed:\n" + P.Source);
      continue;
    }
    auto Prog = std::make_shared<const Program>(std::move(Parsed.Prog));
    forEachStmt(Prog->getBody(), [&](const Stmt *) { ++Stmts; });

    CfgBuildResult Built;
    {
      ScopedSpan S(T, "cfg.build", Id);
      Built = buildCfg(*Prog);
    }
    if (!Built.success()) {
      R.fail("replay: cfg build failed:\n" + P.Source);
      continue;
    }
    Cfg G = std::move(Built.G);
    CfgNodes += G.size();

    IfgBuildResult Intervals;
    {
      ScopedSpan S(T, "interval.build", Id);
      Intervals = IntervalFlowGraph::build(G);
    }
    if (!Intervals.success()) {
      R.fail("replay: interval build failed:\n" + P.Source);
      continue;
    }
    const IntervalFlowGraph &Ifg = *Intervals.Ifg;
    IfgNodes += Ifg.size();

    auto Plan = std::make_shared<CommPlan>();
    Plan->Opts = CO;
    {
      ScopedSpan S(T, "comm.refs", Id);
      Plan->Refs = analyzeReferences(*Prog, G);
    }
    Items += Plan->Refs.Items.size();
    {
      ScopedSpan S(T, "comm.problems", Id);
      buildCommProblems(Plan->Refs, G, Ifg, CO, Plan->ReadProblem,
                        Plan->WriteProblem);
    }
    if (CO.GenerateReads) {
      ScopedSpan S(T, "dataflow.read_solve", Id);
      Plan->ReadRun = runGiveNTake(Ifg, Plan->ReadProblem);
      SolvedNodes += Ifg.size();
    }
    if (CO.GenerateWrites && !CO.OwnerComputes) {
      ScopedSpan S(T, "dataflow.write_solve", Id);
      Plan->WriteRun = runGiveNTake(Ifg, Plan->WriteProblem);
      SolvedNodes += Ifg.size();
    }
    {
      ScopedSpan S(T, "comm.place", Id);
      if (Plan->WriteRun)
        emitCommPhase(*Plan, G, Ifg, *Plan->WriteRun, Urgency::Lazy,
                      CommOpKind::WriteSend, CommOpKind::WriteRecv,
                      CommOpKind::AtomicWrite, CO.Atomic);
      if (Plan->ReadRun)
        emitCommPhase(*Plan, G, Ifg, *Plan->ReadRun, Urgency::Eager,
                      CommOpKind::ReadSend, CommOpKind::ReadRecv,
                      CommOpKind::AtomicRead, CO.Atomic);
    }

    PipelineResult Res;
    Res.Opts = C.Opts;
    Res.Prog = Prog;
    Res.Plan = Plan;
    {
      ScopedSpan S(T, "comm.annotate", Id);
      Res.Annotated = Plan->annotate(*Prog);
    }
    std::string Payload;
    {
      ScopedSpan S(T, "service.render", Id);
      Payload = renderResultPayload(Res);
    }
    if (Payload != P.Payload)
      R.fail("replay: layer-by-layer payload differs from the reference:\n" +
             P.Source);
  }

  double N = static_cast<double>(C.Progs.size());
  auto PerProg = [&](const char *Span) { return T.totalUs(Span) / N; };
  R.add("frontend.parse_us", PerProg("frontend.parse"), "us");
  R.add("frontend.stmts", Stmts / N, "count");
  R.add("cfg.build_us", PerProg("cfg.build"), "us");
  R.add("cfg.nodes", CfgNodes / N, "count");
  R.add("interval.build_us", PerProg("interval.build"), "us");
  R.add("interval.us_per_node", T.totalUs("interval.build") / IfgNodes,
        "us/node");
  R.add("comm.refs_us", PerProg("comm.refs"), "us");
  R.add("comm.problems_us", PerProg("comm.problems"), "us");
  R.add("comm.items", Items / N, "count");
  R.add("comm.place_us", PerProg("comm.place"), "us");
  R.add("comm.annotate_us", PerProg("comm.annotate"), "us");
  R.add("dataflow.read_solve_us", PerProg("dataflow.read_solve"), "us");
  R.add("dataflow.write_solve_us", PerProg("dataflow.write_solve"), "us");
  double SolveUs =
      T.totalUs("dataflow.read_solve") + T.totalUs("dataflow.write_solve");
  R.add("dataflow.ns_per_node",
        SolvedNodes > 0 ? SolveUs * 1e3 / SolvedNodes : 0, "ns/node");
  R.add("service.render_us", PerProg("service.render"), "us");
}
