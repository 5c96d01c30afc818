//===- gntbench/src/Socket.cpp - Loopback net-layer probe -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The net layer's per-layer numbers: an in-process net::NetServer with
// 2 workers, driven by one client thread that runs epoll over 3 request
// connections and one /metrics scrape connection.
//
//  - Open loop: request k is due at start + k/rate whatever came back
//    before it; its latency runs from that due time to the receipt of its
//    response, so a stall is charged to every request it delays. The
//    generator's own lateness and the requests in flight when the last
//    one goes out are reported.
//  - GET /metrics is scraped once a second.
//
// Program popularity is zipf(1.1) over the probed programs, drawn from
// the run seed with raw mt19937_64 draws.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "net/NetServer.h"
#include "service/BatchServer.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <random>
#include <string_view>

using namespace gntbench;
using namespace gnt;

namespace {

constexpr unsigned NumConns = 3;
constexpr std::uint64_t TagOpenTimer = 100, TagScrapeTimer = 101,
                        TagScrape = 102;

/// The probe's open-loop rate, and how many of the workload's programs
/// it sends.
constexpr double ProbeRps = 200;
constexpr std::size_t ProbePrograms = 64;

std::vector<double> zipfCdf(std::size_t N, double S) {
  std::vector<double> Cdf(N);
  double Sum = 0;
  for (std::size_t R = 0; R < N; ++R)
    Cdf[R] = Sum += 1.0 / std::pow(static_cast<double>(R + 1), S);
  for (double &V : Cdf)
    V /= Sum;
  return Cdf;
}

int dial(std::uint16_t Port, std::string &Error) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error = std::string("connect: ") + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

bool writeAll(int Fd, std::string_view Data) {
  while (!Data.empty()) {
    ssize_t W = ::write(Fd, Data.data(), Data.size());
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data.remove_prefix(static_cast<std::size_t>(W));
  }
  return true;
}

/// Blocking read of one response line from \p Fd into \p Line.
bool readLine(int Fd, std::string &Buf, std::string &Line) {
  char Chunk[16384];
  for (;;) {
    std::size_t Nl = Buf.find('\n');
    if (Nl != std::string::npos) {
      Line = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      return true;
    }
    ssize_t R = ::read(Fd, Chunk, sizeof(Chunk));
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      return false;
    Buf.append(Chunk, static_cast<std::size_t>(R));
  }
}

void armAt(int TimerFd, Clock::time_point At) {
  auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                At.time_since_epoch())
                .count();
  itimerspec Spec{};
  Spec.it_value.tv_sec = Ns / 1000000000;
  Spec.it_value.tv_nsec = Ns % 1000000000;
  if (Spec.it_value.tv_sec == 0 && Spec.it_value.tv_nsec == 0)
    Spec.it_value.tv_nsec = 1; // All-zero would disarm.
  ::timerfd_settime(TimerFd, TFD_TIMER_ABSTIME, &Spec, nullptr);
}

void drainTimer(int Fd) {
  std::uint64_t Expirations = 0;
  while (::read(Fd, &Expirations, sizeof(Expirations)) > 0) {
  }
}

struct Pending {
  std::uint64_t K;
  Clock::time_point Due;
  unsigned Prog;
};

struct Conn {
  int Fd = -1;
  std::string Out;
  std::size_t OutPos = 0;
  bool WantWrite = false;
  std::string In;
  std::deque<Pending> Q;
};

/// The single-threaded epoll client.
class Client {
public:
  Client(unsigned Seed, const Corpus &In, double Seconds, std::uint16_t Port,
         Tracer &T, Report &R)
      : In(In), Seconds(Seconds), Port(Port), T(T), R(R),
        Cdf(zipfCdf(In.Progs.size(), 1.1)),
        Rng(Seed * 0x9E3779B97F4A7C15ull + 17) {
    // The request frame minus its id: {"id":"<id>",<Tail>.
    std::string Head = "{\"id\":\"\",";
    for (const Prog &Pr : In.Progs)
      Tails.push_back(
          requestLine("", Pr.Source, In.OptionsJson).substr(Head.size()) +
          "\n");
  }

  ~Client() {
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::close(C.Fd);
    for (int Fd : {Ep, OpenTimer, ScrapeTimer, ScrapeFd})
      if (Fd >= 0)
        ::close(Fd);
  }

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Dials the connections and sends every program once (blocking).
  bool connect(std::string &Error);

  /// Runs the open loop; false when the client could not make progress.
  bool run(net::NetServer &Server);

  std::vector<double> OpenLatUs;
  std::vector<double> LateUs;
  std::vector<double> ScrapeUs;
  /// Requests in flight when the last one went out, that one included.
  std::size_t InFlightAtEnd = 0;
  double ServerJobP50Us = 0;

private:
  unsigned draw() {
    double U = static_cast<double>(Rng() >> 11) * (1.0 / 9007199254740992.0);
    return static_cast<unsigned>(std::lower_bound(Cdf.begin(), Cdf.end(), U) -
                                 Cdf.begin());
  }
  void send(unsigned C, Clock::time_point Due);
  bool flush(Conn &C);
  bool readable(unsigned C);
  void complete(Conn &C, std::string_view Line);
  void startScrape();
  bool scrapeReadable();
  bool pump(int TimeoutMs);
  std::size_t outstanding() const {
    std::size_t N = 0;
    for (const Conn &C : Conns)
      N += C.Q.size();
    return N;
  }

  const Corpus &In;
  double Seconds;
  std::uint16_t Port;
  Tracer &T;
  Report &R;
  std::vector<double> Cdf;
  std::mt19937_64 Rng;
  std::vector<std::string> Tails;

  Conn Conns[NumConns];
  int Ep = -1, OpenTimer = -1, ScrapeTimer = -1, ScrapeFd = -1;
  std::string ScrapeBuf;
  Clock::time_point ScrapeStart;
  std::uint64_t NextK = 0;
  Clock::time_point LastProgress;
};

bool Client::connect(std::string &Error) {
  for (Conn &C : Conns)
    if ((C.Fd = dial(Port, Error)) < 0)
      return false;
  // Warm-up: every program once, one at a time on the first connection,
  // checked like any other response.
  std::string Buf, Line;
  for (std::size_t I = 0; I < In.Progs.size(); ++I) {
    std::string Id = "w" + std::to_string(I);
    if (!writeAll(Conns[0].Fd,
                  requestLine(Id, In.Progs[I].Source, In.OptionsJson) +
                      "\n") ||
        !readLine(Conns[0].Fd, Buf, Line)) {
      Error = "warm-up request got no response";
      return false;
    }
    if (Line != renderResponse(Id, In.Progs[I].Payload))
      R.fail("warm-up response differs from the cold reference compile:\n"
             "  got: " + Line.substr(0, 300) + "\n  source:\n" +
             In.Progs[I].Source);
  }
  Ep = ::epoll_create1(EPOLL_CLOEXEC);
  OpenTimer = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  ScrapeTimer = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (Ep < 0 || OpenTimer < 0 || ScrapeTimer < 0) {
    Error = std::string("epoll/timerfd: ") + std::strerror(errno);
    return false;
  }
  for (unsigned I = 0; I < NumConns; ++I) {
    ::fcntl(Conns[I].Fd, F_SETFL, O_NONBLOCK);
    epoll_event E{};
    E.events = EPOLLIN;
    E.data.u64 = I;
    ::epoll_ctl(Ep, EPOLL_CTL_ADD, Conns[I].Fd, &E);
  }
  for (auto [Fd, Tag] : {std::pair{OpenTimer, TagOpenTimer},
                         std::pair{ScrapeTimer, TagScrapeTimer}}) {
    epoll_event E{};
    E.events = EPOLLIN;
    E.data.u64 = Tag;
    ::epoll_ctl(Ep, EPOLL_CTL_ADD, Fd, &E);
  }
  return true;
}

void Client::send(unsigned CI, Clock::time_point Due) {
  Conn &C = Conns[CI];
  unsigned Prog = draw();
  std::uint64_t K = NextK++;
  C.Out += "{\"id\":\"q" + std::to_string(K) + "\",";
  C.Out += Tails[Prog];
  C.Q.push_back({K, Due, Prog});
  ++R.Attempted;
  flush(C);
}

bool Client::flush(Conn &C) {
  while (C.OutPos < C.Out.size()) {
    ssize_t W =
        ::write(C.Fd, C.Out.data() + C.OutPos, C.Out.size() - C.OutPos);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK)
        return false;
      break;
    }
    C.OutPos += static_cast<std::size_t>(W);
  }
  if (C.OutPos == C.Out.size()) {
    C.Out.clear();
    C.OutPos = 0;
  }
  bool Want = !C.Out.empty();
  if (Want != C.WantWrite) {
    C.WantWrite = Want;
    epoll_event E{};
    E.events = Want ? EPOLLIN | EPOLLOUT : EPOLLIN;
    E.data.u64 = static_cast<std::uint64_t>(&C - Conns);
    ::epoll_ctl(Ep, EPOLL_CTL_MOD, C.Fd, &E);
  }
  return true;
}

void Client::complete(Conn &C, std::string_view Line) {
  Clock::time_point Now = Clock::now();
  LastProgress = Now;
  if (C.Q.empty()) {
    R.fail("response without an outstanding request");
    return;
  }
  Pending Done = C.Q.front();
  C.Q.pop_front();

  // Expected bytes: {"id":"q<K>","result":<reference payload>}.
  std::string Head = "{\"id\":\"q" + std::to_string(Done.K) + "\",\"result\":";
  const std::string &Payload = In.Progs[Done.Prog].Payload;
  bool Match = Line.size() == Head.size() + Payload.size() + 1 &&
               Line.substr(0, Head.size()) == Head &&
               Line.substr(Head.size(), Payload.size()) == Payload &&
               Line.back() == '}';
  if (!Match)
    R.fail("socket response differs from the cold reference compile:\n"
           "  got:      " + std::string(Line.substr(0, 300)) +
           "\n  expected: " + Head + Payload.substr(0, 300) + "\n  source:\n" +
           In.Progs[Done.Prog].Source);
  OpenLatUs.push_back(usBetween(Done.Due, Now));
  T.add("net.request", Done.Due, Now, -1, Done.K);
}

bool Client::readable(unsigned CI) {
  Conn &C = Conns[CI];
  char Chunk[65536];
  for (;;) {
    ssize_t N = ::read(C.Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    if (N <= 0)
      return false; // The server never closes a request connection.
    C.In.append(Chunk, static_cast<std::size_t>(N));
  }
  std::size_t Pos = 0;
  for (std::size_t Nl; (Nl = C.In.find('\n', Pos)) != std::string::npos;
       Pos = Nl + 1)
    complete(C, std::string_view(C.In).substr(Pos, Nl - Pos));
  C.In.erase(0, Pos);
  return true;
}

void Client::startScrape() {
  if (ScrapeFd >= 0)
    return; // The previous scrape is still running.
  std::string Error;
  ScrapeStart = Clock::now();
  ScrapeFd = dial(Port, Error);
  if (ScrapeFd < 0 || !writeAll(ScrapeFd, "GET /metrics HTTP/1.0\r\n\r\n")) {
    R.fail("metrics scrape failed: " + Error);
    if (ScrapeFd >= 0)
      ::close(ScrapeFd);
    ScrapeFd = -1;
    return;
  }
  ::fcntl(ScrapeFd, F_SETFL, O_NONBLOCK);
  ScrapeBuf.clear();
  epoll_event E{};
  E.events = EPOLLIN;
  E.data.u64 = TagScrape;
  ::epoll_ctl(Ep, EPOLL_CTL_ADD, ScrapeFd, &E);
}

bool Client::scrapeReadable() {
  char Chunk[65536];
  for (;;) {
    ssize_t N = ::read(ScrapeFd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;
    if (N < 0) {
      R.fail(std::string("metrics scrape read: ") + std::strerror(errno));
      break;
    }
    if (N == 0)
      break;
    ScrapeBuf.append(Chunk, static_cast<std::size_t>(N));
  }
  Clock::time_point End = Clock::now();
  ScrapeUs.push_back(usBetween(ScrapeStart, End));
  if (T.enabled())
    T.add("net.scrape", ScrapeStart, End, -1, ScrapeUs.size());
  if (ScrapeBuf.rfind("HTTP/1.0 200 OK\r\n", 0) != 0 ||
      ScrapeBuf.find("gntd_") == std::string::npos)
    R.fail("metrics scrape returned: " + ScrapeBuf.substr(0, 200));
  ::epoll_ctl(Ep, EPOLL_CTL_DEL, ScrapeFd, nullptr);
  ::close(ScrapeFd);
  ScrapeFd = -1;
  return true;
}

/// One epoll round; false when the client is stuck or a socket failed.
bool Client::pump(int TimeoutMs) {
  epoll_event Events[8];
  int N = ::epoll_wait(Ep, Events, 8, TimeoutMs);
  if (N < 0 && errno != EINTR)
    return false;
  for (int I = 0; I < N; ++I) {
    std::uint64_t Tag = Events[I].data.u64;
    if (Tag < NumConns) {
      if ((Events[I].events & EPOLLOUT) && !flush(Conns[Tag]))
        return false;
      if ((Events[I].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) &&
          !readable(static_cast<unsigned>(Tag)))
        return false;
    } else if (Tag == TagScrapeTimer) {
      drainTimer(ScrapeTimer);
      startScrape();
    } else if (Tag == TagScrape) {
      scrapeReadable();
    } else if (Tag == TagOpenTimer) {
      drainTimer(OpenTimer);
    }
  }
  // Nothing answered for 30 s while requests are outstanding: the
  // server is wedged; fail the run rather than hang it.
  return outstanding() == 0 ||
         usBetween(LastProgress, Clock::now()) < 30e6;
}

bool Client::run(net::NetServer &Server) {
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
  LastProgress = Start;
  itimerspec Every{};
  Every.it_interval.tv_sec = 1;
  Every.it_value.tv_nsec = 500000000;
  ::timerfd_settime(ScrapeTimer, 0, &Every, nullptr);

  // Open loop: request k is due at Start + k / rate.
  const std::uint64_t Total = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(ProbeRps * Seconds + 0.5));
  auto Due = [&](std::uint64_t K) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(K / ProbeRps));
  };
  std::uint64_t Sent = 0;
  while (Sent < Total || outstanding() > 0) {
    Clock::time_point Now = Clock::now();
    while (Sent < Total && Due(Sent) <= Now) {
      LateUs.push_back(usBetween(Due(Sent), Now));
      send(static_cast<unsigned>(Sent % NumConns), Due(Sent));
      ++Sent;
      if (Sent == Total)
        InFlightAtEnd = outstanding();
    }
    if (Sent < Total)
      armAt(OpenTimer, Due(Sent));
    if (!pump(1000))
      return false;
  }
  // The server's own job latency over the open loop; the warm-up jobs
  // are the only other samples.
  ServerJobP50Us = Server.service().metricsSnapshot().JobLatency.percentile(50);
  // Let a scrape in flight finish so its socket is closed cleanly.
  while (ScrapeFd >= 0)
    if (!pump(1000))
      return false;
  return true;
}

} // namespace

void gntbench::runNetProbe(const Options &O, const Corpus &C, Tracer &T,
                           Report &R) {
  Corpus Probe;
  Probe.OptionsJson = C.OptionsJson;
  Probe.Opts = C.Opts;
  Probe.Progs.assign(C.Progs.begin(),
                     C.Progs.begin() +
                         std::min(C.Progs.size(), ProbePrograms));
  ServiceConfig SC;
  SC.Workers = 2;
  net::NetConfig NC;
  NC.Port = 0;
  net::NetServer Server(SC, NC);
  std::string Error;
  if (!Server.start(Error)) {
    R.fail("cannot start NetServer: " + Error);
    return;
  }
  {
    Client Cl(O.Seed, Probe, O.Smoke ? 0.5 : 2, Server.port(), T, R);
    if (!Cl.connect(Error))
      R.fail("socket client: " + Error);
    else if (!Cl.run(Server))
      R.fail("socket client stopped making progress");

    double P50 = windowedPercentile(Cl.OpenLatUs, 50);
    double ScrapeSum = 0;
    for (double S : Cl.ScrapeUs)
      ScrapeSum += S;
    R.add("net.open_p50_us", P50, "us");
    R.add("net.open_p99_us", windowedPercentile(Cl.OpenLatUs, 99), "us");
    R.add("net.overhead_p50_us", P50 - Cl.ServerJobP50Us, "us");
    R.add("net.scrape_us",
          Cl.ScrapeUs.empty() ? 0 : ScrapeSum / Cl.ScrapeUs.size(), "us");
    R.add("net.gen_late_ms", percentile(Cl.LateUs, 99) / 1e3, "ms");
    R.add("net.backlog", static_cast<double>(Cl.InFlightAtEnd), "count");
  }
  Server.requestDrain();
  Server.join();
}
