//===- sim/TraceSimulator.cpp - Annotated-program execution sim -------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/TraceSimulator.h"

#include "support/Support.h"

#include <optional>
#include <random>

using namespace gnt;

namespace {

/// Per-item runtime state.
struct ItemState {
  bool Avail = false;        ///< Locally available (read side).
  bool ReadPending = false;  ///< Read_Send issued, Read_Recv outstanding.
  double ReadSendTime = 0;
  bool ConsumedSinceProduced = true; ///< For waste accounting.
  bool Dirty = false;        ///< Defined locally, write-back outstanding.
  bool WritePending = false; ///< Write_Send issued, Write_Recv outstanding.
  double WriteSendTime = 0;
};

class Simulator {
public:
  Simulator(const Program &P, const CommPlan &Plan, const SimConfig &C,
            SimStats &Stats)
      : P(P), Plan(Plan), C(C), Stats(Stats), Rng(C.BranchSeed),
        Coin(C.BranchTrueProb) {
    Items.assign(Plan.Refs.Items.size(), ItemState());
    for (const auto &[Sym, V] : C.Params)
      Env[Sym] = V;
    unsigned Ord = 0;
    forEachStmt(P.getBody(), [&](const Stmt *S) { Ordinal[S] = Ord++; });
    Sizes.resize(Items.size());
    for (unsigned I = 0; I != Items.size(); ++I)
      Sizes[I] = Plan.ElementMessages
                     ? 1
                     : Plan.Refs.Items.item(I).size(C.Params,
                                                    C.DefaultSectionSize);
    for (const auto &[Key, Ops] : Plan.Anchored)
      for (const CommOp &Op : Ops)
        HasWrites |= Op.Kind == CommOpKind::WriteSend ||
                     Op.Kind == CommOpKind::WriteRecv ||
                     Op.Kind == CommOpKind::AtomicWrite;
    EverGiven.assign(Items.size(), false);
    for (ConstBitRow BV : Plan.ReadProblem.GiveInit)
      for (unsigned I : BV)
        EverGiven[I] = true;
  }

  void run() {
    runList(P.getBody());
    finish();
  }

private:
  void error(const std::string &Msg) {
    if (Stats.Errors.size() < 20)
      Stats.Errors.push_back(Msg);
  }

  std::string itemName(unsigned I) const {
    return Plan.Refs.Items.item(I).Key;
  }

  //===--------------------------------------------------------------------===//
  // Expression evaluation
  //===--------------------------------------------------------------------===//

  std::optional<long long> eval(const Expr *E) {
    switch (E->getKind()) {
    case Expr::Kind::IntLit:
      return cast<IntLitExpr>(E)->getValue();
    case Expr::Kind::Var: {
      auto It = Env.find(cast<VarExpr>(E)->getName());
      if (It == Env.end())
        return std::nullopt;
      return It->second;
    }
    case Expr::Kind::Unary: {
      auto V = eval(cast<UnaryExpr>(E)->getOperand());
      if (!V)
        return std::nullopt;
      return -*V;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      auto L = eval(B->getLHS()), R = eval(B->getRHS());
      if (!L || !R)
        return std::nullopt;
      switch (B->getOp()) {
      case BinaryExpr::Op::Add:
        return *L + *R;
      case BinaryExpr::Op::Sub:
        return *L - *R;
      case BinaryExpr::Op::Mul:
        return *L * *R;
      case BinaryExpr::Op::Div:
        return *R == 0 ? std::nullopt : std::optional<long long>(*L / *R);
      case BinaryExpr::Op::Lt:
        return *L < *R;
      case BinaryExpr::Op::Le:
        return *L <= *R;
      case BinaryExpr::Op::Gt:
        return *L > *R;
      case BinaryExpr::Op::Ge:
        return *L >= *R;
      case BinaryExpr::Op::Eq:
        return *L == *R;
      case BinaryExpr::Op::Ne:
        return *L != *R;
      }
      gntUnreachable("covered switch");
    }
    case Expr::Kind::ArrayRef:
    case Expr::Kind::Call:
      return std::nullopt; // Array contents and calls are not modeled.
    }
    gntUnreachable("covered switch");
  }

  bool evalCond(const Expr *E) {
    if (auto V = eval(E))
      return *V != 0;
    return Coin(Rng);
  }

  //===--------------------------------------------------------------------===//
  // Communication operations
  //===--------------------------------------------------------------------===//

  void setAvail(ItemState &S, bool V) {
    if (S.Avail == V)
      return;
    S.Avail = V;
    AvailCount += V ? 1 : -1;
    if (AvailCount > Stats.PeakAvail)
      Stats.PeakAvail = AvailCount;
  }

  void chargeMessage(unsigned Item, double SendTime) {
    ++Stats.Messages;
    Stats.Volume += static_cast<unsigned long long>(Sizes[Item]);
    double Exposed = C.Latency - (Now - SendTime);
    if (Exposed > 0) {
      Stats.ExposedLatency += Exposed;
      Now += Exposed; // The receive blocks until the data arrives.
    }
  }

  void fireOp(const CommOp &Op) {
    ItemState &S = Items[Op.Item];
    switch (Op.Kind) {
    case CommOpKind::ReadSend:
      if (S.ReadPending)
        error("C1: second Read_Send of " + itemName(Op.Item) +
              " while one is in flight");
      if (S.Avail)
        ++Stats.Redundant;
      S.ReadPending = true;
      S.ReadSendTime = Now;
      break;
    case CommOpKind::ReadRecv:
      if (!S.ReadPending) {
        error("C1: Read_Recv of " + itemName(Op.Item) + " without a send");
        break;
      }
      S.ReadPending = false;
      chargeMessage(Op.Item, S.ReadSendTime);
      setAvail(S, true);
      S.ConsumedSinceProduced = false;
      break;
    case CommOpKind::AtomicRead:
      if (S.Avail)
        ++Stats.Redundant;
      chargeMessage(Op.Item, Now); // No hiding: send and receive fused.
      setAvail(S, true);
      S.ConsumedSinceProduced = false;
      break;
    case CommOpKind::WriteSend:
      if (S.WritePending)
        error("C1: second Write_Send of " + itemName(Op.Item) +
              " while one is in flight");
      if (!S.Dirty)
        ++Stats.Redundant;
      S.WritePending = true;
      S.WriteSendTime = Now;
      S.Dirty = false; // The outgoing message captured the data.
      break;
    case CommOpKind::WriteRecv:
      if (!S.WritePending) {
        error("C1: Write_Recv of " + itemName(Op.Item) + " without a send");
        break;
      }
      S.WritePending = false;
      chargeMessage(Op.Item, S.WriteSendTime);
      break;
    case CommOpKind::AtomicWrite:
      if (!S.Dirty)
        ++Stats.Redundant;
      chargeMessage(Op.Item, Now);
      S.Dirty = false;
      break;
    }
  }

  void fireAnchor(const Stmt *S, EmitWhere W) {
    auto It = Plan.Anchored.find({S, W});
    if (It == Plan.Anchored.end())
      return;
    for (const CommOp &Op : It->second)
      fireOp(Op);
  }

  //===--------------------------------------------------------------------===//
  // Statement-level reference/definition events
  //===--------------------------------------------------------------------===//

  void nodeEvents(const Stmt *S) {
    auto It = Plan.Refs.StmtNode.find(S);
    if (It == Plan.Refs.StmtNode.end())
      return;
    NodeId N = It->second;

    // References consume (C3). A miss on an item that some definition
    // gives "for free" is the zero-trip optimism of Section 2 (the
    // defining loop ran zero times); anything else is a hard violation.
    for (unsigned I : Plan.ReadProblem.TakeInit[N]) {
      ItemState &St = Items[I];
      if (!St.Avail) {
        if (EverGiven.size() > I && EverGiven[I])
          ++Stats.OptimisticMisses;
        else
          error("C3: reference to " + itemName(I) +
                " is not locally available");
      }
      St.ConsumedSinceProduced = true;
    }
    // ... and require overlapping write-backs to have completed.
    if (HasWrites)
      for (unsigned I : Plan.WriteProblem.StealInit[N]) {
        ItemState &St = Items[I];
        if (St.Dirty)
          error("C3: " + itemName(I) +
                " referenced before its write-back was sent");
        if (St.WritePending)
          error("C3: " + itemName(I) +
                " referenced while its write-back is in flight");
      }
    // Definitions destroy overlapping read availability ...
    for (unsigned I : Plan.ReadProblem.StealInit[N]) {
      ItemState &St = Items[I];
      if (St.Avail && !St.ConsumedSinceProduced)
        ++Stats.Wasted;
      if (St.ReadPending)
        error("C1: read of " + itemName(I) + " in flight at a steal");
      setAvail(St, false);
    }
    // ... produce their own section for free ...
    for (unsigned I : Plan.ReadProblem.GiveInit[N]) {
      ItemState &St = Items[I];
      setAvail(St, true);
      St.ConsumedSinceProduced = true; // Free: never counted as waste.
    }
    // ... and leave data to be written back.
    if (HasWrites)
      for (unsigned I : Plan.WriteProblem.TakeInit[N])
        Items[I].Dirty = true;
  }

  //===--------------------------------------------------------------------===//
  // Control flow
  //===--------------------------------------------------------------------===//

  void runList(const StmtList &L) {
    size_t I = 0;
    bool SkipEntryAnchor = false;
    while (!Halt) {
      // Resolve a pending jump first — it may target a label anywhere in
      // this list (including backwards from the final statement).
      if (Jump) {
        bool Found = false;
        for (size_t K = 0; K != L.size(); ++K)
          if (L[K]->getLabel() == Jump->Label) {
            I = K;
            // A backward jump is the CYCLE edge of a goto-formed loop:
            // the target's entry productions fire on loop entry only,
            // not on this arrival.
            SkipEntryAnchor = Ordinal[L[K].get()] <= Jump->FromOrdinal;
            Jump.reset();
            Found = true;
            break;
          }
        if (!Found)
          return; // The label lives in an enclosing list.
      }
      if (I >= L.size())
        return;
      execStmt(L[I].get(), SkipEntryAnchor);
      SkipEntryAnchor = false;
      ++I;
    }
  }

  void execStmt(const Stmt *S, bool SkipEntryAnchor = false) {
    if (Halt)
      return;
    Stats.Profile.Stmt[Ordinal[S]] += 1;
    if (!SkipEntryAnchor)
      fireAnchor(S, EmitWhere::Before);
    switch (S->getKind()) {
    case Stmt::Kind::Assign: {
      nodeEvents(S);
      step();
      const auto *A = cast<AssignStmt>(S);
      if (const auto *V = dyn_cast<VarExpr>(A->getLHS())) {
        if (auto Val = eval(A->getRHS()))
          Env[V->getName()] = *Val;
        else
          Env.erase(V->getName());
      }
      break;
    }
    case Stmt::Kind::Do: {
      const auto *D = cast<DoStmt>(S);
      nodeEvents(S); // Bound expressions are evaluated once.
      step();
      long long Lo = eval(D->getLo()).value_or(1);
      long long Hi = eval(D->getHi()).value_or(Lo + C.DefaultTrip - 1);
      const std::string &Idx = D->getIndexVar();
      long long V = Lo;
      for (; V <= Hi && !Halt; ++V) {
        Env[Idx] = V;
        Stats.Profile.Loop[Ordinal[S]] += 1;
        fireAnchor(S, EmitWhere::BodyStart);
        runList(D->getBody());
        if (Jump || Halt)
          break;
        fireAnchor(S, EmitWhere::BodyEnd);
      }
      Env[Idx] = V; // Fortran leaves the index one past the bound.
      break;
    }
    case Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(S);
      nodeEvents(S);
      step();
      auto &Arms = Stats.Profile.Branch[Ordinal[S]];
      if (evalCond(If->getCond())) {
        Arms.first += 1;
        fireAnchor(S, EmitWhere::ThenEntry);
        runList(If->getThen());
        if (!Jump && !Halt)
          fireAnchor(S, EmitWhere::ThenExit);
      } else {
        Arms.second += 1;
        fireAnchor(S, EmitWhere::ElseEntry);
        runList(If->getElse());
        if (!Jump && !Halt)
          fireAnchor(S, EmitWhere::ElseExit);
      }
      break;
    }
    case Stmt::Kind::Goto:
      // Landing-pad productions print before and after the goto line and
      // execute exactly on the jump path.
      fireAnchor(S, EmitWhere::After);
      Jump = PendingJump{cast<GotoStmt>(S)->getTarget(), Ordinal[S]};
      return; // The After anchor already fired.
    case Stmt::Kind::Continue:
      nodeEvents(S);
      break;
    }
    if (!Jump && !Halt)
      fireAnchor(S, EmitWhere::After);
  }

  void step() {
    ++Stats.Steps;
    Stats.Work += C.WorkPerStmt;
    Now += C.WorkPerStmt;
    if (Stats.Steps >= C.MaxSteps) {
      error("step limit exceeded");
      Halt = true;
    }
  }

  void finish() {
    for (unsigned I = 0; I != Items.size(); ++I) {
      ItemState &S = Items[I];
      if (S.Avail && !S.ConsumedSinceProduced)
        ++Stats.Wasted;
      if (S.ReadPending)
        error("C1: Read_Send of " + itemName(I) + " never received");
      if (S.WritePending)
        error("C1: Write_Send of " + itemName(I) + " never received");
      if (HasWrites && S.Dirty)
        error("C3: " + itemName(I) + " never written back");
    }
  }

  const Program &P;
  const CommPlan &Plan;
  const SimConfig &C;
  SimStats &Stats;

  std::mt19937 Rng;
  std::bernoulli_distribution Coin;
  std::map<std::string, long long> Env;
  std::vector<ItemState> Items;
  std::vector<long long> Sizes;
  struct PendingJump {
    unsigned Label;
    unsigned FromOrdinal;
  };
  std::optional<PendingJump> Jump;
  std::map<const Stmt *, unsigned> Ordinal;
  std::vector<bool> EverGiven;
  unsigned long long AvailCount = 0;
  bool Halt = false;
  bool HasWrites = false;
  double Now = 0;
};

} // namespace

SimStats gnt::simulate(const Program &P, const CommPlan &Plan,
                       const SimConfig &Config) {
  SimStats Stats;
  Simulator S(P, Plan, Config, Stats);
  S.run();
  return Stats;
}
