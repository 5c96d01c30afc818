//===- gntbench/src/main.cpp - gntd request benchmark ---------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
//   gntbench --workload NAME --seed N --seconds S --trace 0|1
//            [--smoke] [--trace-out FILE]
//
// Runs one workload in this process and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs additionally record spans
// around every layer call, replay each distinct program module by module,
// probe the net layer with a short socket run over the same programs, and
// report the per-layer metrics.
// Exit status 1 when any response or simulated plan failed its check,
// 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "service/BatchServer.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

using namespace gntbench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: gntbench --workload small-cold|large-cold|"
               "edit-session\n"
               "                --seed N --seconds S --trace 0|1 [--smoke]\n"
               "                [--trace-out FILE]\n");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--smoke") {
      O.Smoke = true;
      continue;
    }
    if (I + 1 == Argc)
      return false;
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else if (A == "--seed") {
      unsigned long S = std::strtoul(V, &End, 10);
      if (*End || S > 0xffffffffu)
        return false;
      O.Seed = static_cast<unsigned>(S);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (*End || !(O.Seconds > 0) || O.Seconds > 600)
        return false;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return false;
      O.Trace = V[0] == '1';
    } else
      return false;
  }
  return !O.Workload.empty();
}

/// A few requests on a throwaway server, so the timed phase starts with
/// code and allocator warm.
void warmClosedLoop(ClosedLoopInputs &In) {
  gnt::BatchServer Server;
  const std::vector<ClosedRequest> &B = In.Batches.front();
  for (std::size_t I = 0; I < std::min<std::size_t>(B.size(), 32); ++I) {
    gnt::ServiceRequest Req;
    std::string Error;
    if (gnt::parseServiceRequest(B[I].Line, "", Req, Error))
      (void)Server.serve(Req);
  }
}

/// Builds and warms the inputs \p Reps times and returns the median wall
/// time; the last build is kept and only its checks count.
double timedSetup(unsigned Reps, ClosedLoopInputs &Out, Report &R,
                  const std::function<ClosedLoopInputs(Report &)> &Make) {
  std::vector<double> Times;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    Report Scratch;
    Report &Into = Rep + 1 == Reps ? R : Scratch;
    Out = ClosedLoopInputs(); // Old inputs must not add to the peak RSS.
    Clock::time_point Start = Clock::now();
    Out = Make(Into);
    warmClosedLoop(Out);
    Times.push_back(usBetween(Start, Clock::now()) / 1e6);
  }
  return median(Times);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    usage();
    return 2;
  }
  // A peer that closes early must fail a write, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  Report R;
  Tracer T(O.Trace);
  std::function<ClosedLoopInputs(Report &)> Make;
  if (O.Workload == "small-cold")
    Make = [&](Report &Into) { return makeSmallCold(O, Into); };
  else if (O.Workload == "large-cold")
    Make = [&](Report &Into) { return makeLargeCold(O, Into); };
  else if (O.Workload == "edit-session")
    Make = [&](Report &Into) { return makeEditSession(O, Into); };
  else {
    std::fprintf(stderr, "gntbench: unknown workload `%s`\n",
                 O.Workload.c_str());
    usage();
    return 2;
  }

  ClosedLoopInputs In;
  double SetupS = timedSetup(O.Smoke ? 1 : 3, In, R, Make);
  runClosedLoop(O, In, T, R);

  R.add("setup_s", SetupS, "s");
  R.add("peak_rss_mb", peakRssMb(), "MiB");
  R.add("msgs_per_kstep", In.C.messagesPerKiloStep(), "msgs/kstep");
  double Attempted = static_cast<double>(std::max<unsigned long long>(
      R.Attempted, 1));
  R.add("ok_ratio",
        std::max(0.0, (Attempted - static_cast<double>(R.Failed)) / Attempted),
        "ratio");

  if (O.Trace) {
    runLayerReplay(In.C, T, R);
    // The closed loops never touch the net layer; a short open-loop
    // probe over the same programs gives its per-layer numbers.
    unsigned long long Before = R.Attempted;
    runNetProbe(O, In.C, T, R);
    R.Attempted = Before; // Probe requests are checked, not counted.
    for (const Tracer::NameTotals &N : T.totals())
      std::fprintf(stderr,
                   "  span %-24s n=%-7zu total %12.1f us  self %12.1f us\n",
                   N.Name.c_str(), N.Count, N.TotalUs, N.SelfUs);
    if (!O.TraceOut.empty() && !T.writeChromeTrace(O.TraceOut))
      R.fail("cannot write trace file " + O.TraceOut);
  }

  for (const std::string &P : R.problems())
    std::fprintf(stderr, "gntbench: FAILED: %s\n", P.c_str());
  std::printf("%s\n", R.json().c_str());
  return R.correct() ? 0 : 1;
}
