// Server workloads: a closed-loop RESP load generator with the value oracle,
// and the post-restart verify sweep.
//
//   perfbench_drv load --port=P --server-pid=PID --workload=W --seed=S
//                      --seconds=T [--warmup=T] [--trace=1] [--expect-out=F]
//                      [--spans-out=F] [--preload-only] [--stale-oracle]
//   perfbench_drv sweep --port=P --workload=W --seed=S --expect=F
//
// Each connection owns the keys g with g % conns == its index and is their
// only writer, so the oracle knows every key's history: a GET must return
// its own key at a version no older than the last SET acked before the GET
// was sent and no newer than the last SET sent before it.
//
// Requests are timed one by one, from the write that carries the command to
// the read that completes its reply. The pipeline keeps `depth` requests in
// flight: every reply that arrives frees a slot, and the requests refilling
// the slots freed by one read leave together in one write. (One write per
// request, as server::Client::SendCommand does, costs the single client CPU
// more than the server spends on a GET, and the load generator would set the
// pace.)
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <cerrno>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "perfbench/common.h"
#include "src/server/client.h"
#include "src/server/protocol.h"

namespace perfbench {

namespace {

using jnvm::server::Client;
using jnvm::server::RespReply;

std::unique_ptr<Client> Dial(uint16_t port) {
  std::string err;
  auto c = Client::Connect("127.0.0.1", port, &err);
  if (c == nullptr) {
    Die("connect 127.0.0.1:" + std::to_string(port) + ": " + err);
  }
  return c;
}

// One TCP connection driven directly, so one write can carry many commands
// and one read can complete many replies. Encoding and parsing are the
// server library's own.
class Wire {
 public:
  explicit Wire(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die("connect 127.0.0.1:" + std::to_string(port) + ": " + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Wire() { ::close(fd_); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  void Queue(std::initializer_list<std::string_view> args) {
    jnvm::server::AppendArrayHeader(&out_, args.size());
    for (const std::string_view a : args) {
      jnvm::server::AppendBulk(&out_, a);
    }
  }

  bool Flush() {
    for (size_t off = 0; off < out_.size();) {
      const ssize_t w = ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
      if (w < 0 && errno != EINTR) {
        err_ = std::string("write: ") + std::strerror(errno);
        return false;
      }
      off += w < 0 ? 0 : static_cast<size_t>(w);
    }
    out_.clear();
    return true;
  }

  // Blocks until at least one reply is complete; appends every complete one.
  bool Read(std::vector<RespReply>* out) {
    char buf[65536];
    for (;;) {
      RespReply r;
      std::string perr;
      while (parser_.Next(&r, &perr) == jnvm::server::RespParser::Status::kCommand) {
        out->push_back(std::move(r));
      }
      if (!perr.empty()) {
        err_ = "reply parse: " + perr;
        return false;
      }
      if (!out->empty()) {
        return true;
      }
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n == 0 || (n < 0 && errno != EINTR)) {
        err_ = n == 0 ? "server closed the connection" : std::string("read: ") + std::strerror(errno);
        return false;
      }
      if (n > 0) {
        parser_.Feed(buf, static_cast<size_t>(n));
      }
    }
  }

  const std::string& error() const { return err_; }

 private:
  int fd_ = -1;
  std::string out_;
  jnvm::server::RespReplyParser parser_;
  std::string err_;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) {
      first_failure = why;
    }
  }
};

// One connection: its keys, the oracle's view of them and its samples.
class Conn {
 public:
  Conn(const Shape& shape, uint64_t seed, uint32_t index, uint16_t port, bool stale)
      : shape_(shape), index_(index), stale_(stale), stream_(shape, seed, index), wire_(port) {
    const uint64_t n = shape.keys / shape.conns;
    keys_.reserve(n);
    for (uint64_t l = 0; l < n; ++l) {
      keys_.push_back(KeyName(seed, l * shape.conns + index));
    }
    sent_.assign(n, 0);
    acked_.assign(n, 0);
  }

  // SETs version 1 of every key this connection owns.
  void Preload() {
    uint64_t next = 0;
    Pump(&tally_, /*timed=*/false, [&](bool* read, uint64_t* l) {
      if (next == keys_.size()) {
        return false;
      }
      *read = false;
      *l = next++;
      return true;
    });
  }

  // A window opened at `start_ns`: the op stream until `deadline_ns`, then
  // a drain.
  void Window(uint64_t start_ns, uint64_t deadline_ns, Tally* tally) {
    reads_.Clear();
    writes_.Clear();
    start_ns_ = start_ns;
    Pump(tally, /*timed=*/true, [&](bool* read, uint64_t* l) {
      if (NowNs() >= deadline_ns) {
        return false;
      }
      *read = stream_.NextIsRead();
      *l = stream_.NextKey() / shape_.conns;
      return true;
    });
  }

  const std::vector<uint64_t>& acked() const { return acked_; }
  const Slices& reads() const { return reads_; }
  const Slices& writes() const { return writes_; }
  const Tally& tally() const { return tally_; }

  // Spans kept for the trace file: one per request, capped.
  struct Span {
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t key;
    bool read;
  };
  std::vector<Span> spans;
  bool keep_spans = false;

 private:
  struct Pending {
    uint64_t t_send;
    uint64_t local;
    uint64_t lo;  // GET: last acked version when sent; SET: its version
    uint64_t hi;  // GET: last sent version when sent
    bool read;
  };

  // The closed loop: refill every free slot from `next` (false = no more),
  // write the refills in one send, read whatever replies arrived, repeat
  // until nothing is in flight. After an I/O failure every request still in
  // flight counts as failed.
  template <typename Next>
  void Pump(Tally* t, bool timed, Next next) {
    std::vector<RespReply> replies;
    bool more = true;
    for (;;) {
      const size_t first_new = inflight_.size();
      bool read = false;
      uint64_t l = 0;
      while (more && inflight_.size() < shape_.depth && (more = next(&read, &l))) {
        Queue(read, l);
      }
      const uint64_t t_send = NowNs();
      for (size_t i = first_new; i < inflight_.size(); ++i) {
        inflight_[i].t_send = t_send;
      }
      replies.clear();
      if (inflight_.empty()) {
        return;
      }
      if (!wire_.Flush() || !wire_.Read(&replies)) {
        for (size_t i = 0; i < inflight_.size(); ++i) {
          ++t->attempted;
          t->Fail("I/O: " + wire_.error());
        }
        inflight_.clear();
        return;
      }
      const uint64_t now = NowNs();
      for (const RespReply& r : replies) {
        Check(r, now, t, timed);
      }
    }
  }

  void Queue(bool read, uint64_t l) {
    Pending p{0, l, 0, 0, read};
    if (read) {
      p.lo = acked_[l];
      p.hi = sent_[l];
      wire_.Queue({"GET", keys_[l]});
    } else {
      p.lo = sent_[l] + 1;
      // A stale oracle (the self-test) forgets the SETs it sends.
      if (!stale_) {
        sent_[l] = p.lo;
      }
      wire_.Queue({"SET", keys_[l], StampedValue(keys_[l], p.lo, shape_.value_bytes)});
    }
    inflight_.push_back(p);
  }

  void Check(const RespReply& r, uint64_t now, Tally* t, bool timed) {
    const Pending p = inflight_.front();
    inflight_.pop_front();
    ++t->attempted;
    const std::string& key = keys_[p.local];
    if (p.read) {
      uint64_t v = 0;
      if (r.type != RespReply::Type::kBulk) {
        t->Fail("GET " + key + ": " + (r.type == RespReply::Type::kNil ? "nil" : r.str));
      } else if (!CheckStamp(key, r.str, shape_.value_bytes, &v)) {
        t->Fail("GET " + key + ": foreign or torn value");
      } else if (v < p.lo || v > p.hi) {
        t->Fail("GET " + key + ": version " + std::to_string(v) + " outside [" +
                std::to_string(p.lo) + "," + std::to_string(p.hi) + "]");
      }
    } else if (r.type != RespReply::Type::kSimple || r.str != "OK") {
      t->Fail("SET " + key + ": " + r.str);
    } else if (!stale_) {
      acked_[p.local] = std::max(acked_[p.local], p.lo);
    }
    if (timed) {
      const uint64_t ns = now - p.t_send;
      const uint32_t ns32 = ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
      (p.read ? reads_ : writes_).Add(now - start_ns_, ns32);
      if (keep_spans && spans.size() < 50'000) {
        spans.push_back(Span{p.t_send, now, p.local * shape_.conns + index_, p.read});
      }
    }
  }

  const Shape& shape_;
  uint32_t index_;
  bool stale_;
  OpStream stream_;
  Wire wire_;
  std::vector<std::string> keys_;
  std::vector<uint64_t> sent_;
  std::vector<uint64_t> acked_;
  std::deque<Pending> inflight_;
  Tally tally_;
  uint64_t start_ns_ = 0;
  Slices reads_;
  Slices writes_;
};

// "name=value" tokens of a STATS dump, summed over lines with the prefix.
std::map<std::string, uint64_t> StatsSum(const std::string& dump, const std::string& prefix) {
  std::map<std::string, uint64_t> out;
  std::istringstream in(dump);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) {
      continue;
    }
    std::istringstream toks(line);
    std::string tok;
    while (toks >> tok) {
      const size_t eq = tok.find('=');
      if (eq != std::string::npos) {
        out[tok.substr(0, eq)] += std::strtoull(tok.c_str() + eq + 1, nullptr, 10);
      }
    }
  }
  return out;
}

std::string Stats(Client* c) {
  auto s = c->Stats();
  if (!s) {
    Die("STATS: " + c->last_error());
  }
  return *s;
}

// Server threads by what they block in at idle: event loops wait for
// readiness (epoll_wait/epoll_pwait/poll/ppoll/io_uring_enter), shard
// workers on a futex. The main thread (tid == pid) is neither.
enum class Role { kLoop, kWorker, kOther };

Role RoleOf(int pid, int tid) {
  if (tid == pid) {
    return Role::kOther;
  }
  std::ifstream in("/proc/" + std::to_string(pid) + "/task/" + std::to_string(tid) + "/syscall");
  long nr = -1;
  in >> nr;
  switch (nr) {
    case 7:    // poll
    case 232:  // epoll_wait
    case 271:  // ppoll
    case 281:  // epoll_pwait
    case 426:  // io_uring_enter
      return Role::kLoop;
    case 202:  // futex
      return Role::kWorker;
    default:
      return Role::kOther;
  }
}

void WriteSpans(const std::string& path, const std::vector<std::unique_ptr<Conn>>& conns) {
  std::ofstream out(path);
  uint64_t id = 0;
  for (size_t c = 0; c < conns.size(); ++c) {
    for (const auto& s : conns[c]->spans) {
      out << "{\"id\": " << ++id << ", \"parent\": 0, \"name\": \"" << (s.read ? "GET" : "SET")
          << "\", \"conn\": " << c << ", \"key\": " << s.key << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << "}\n";
    }
  }
}

}  // namespace

int RunLoad(const Flags& f) {
  Shape shape;
  if (!ShapeFor(f.Get("workload"), &shape) || !shape.server) {
    Die("load: unknown server workload '" + f.Get("workload") + "'");
  }
  const uint16_t port = static_cast<uint16_t>(f.U64("port", 0));
  const int pid = static_cast<int>(f.U64("server-pid", 0));
  const uint64_t seed = f.U64("seed", 1);
  const double seconds = std::strtod(f.Get("seconds", "10").c_str(), nullptr);
  const bool trace = f.U64("trace", 0) != 0;
  const bool stale = f.Has("stale-oracle");
  const double warmup_s = std::strtod(f.Get("warmup", "0").c_str(), nullptr);

  const uint64_t t_start = NowNs();
  std::vector<std::unique_ptr<Conn>> conns;
  for (uint32_t c = 0; c < shape.conns; ++c) {
    conns.push_back(std::make_unique<Conn>(shape, seed, c, port, stale));
  }

  // Preload on every connection, then one barrier: the window opens only
  // once every key holds version 1.
  {
    std::vector<std::thread> ts;
    for (auto& c : conns) {
      ts.emplace_back([&c] { c->Preload(); });
    }
    for (auto& t : ts) {
      t.join();
    }
  }
  const double preload_s = static_cast<double>(NowNs() - t_start) / 1e9;
  JsonLine out;
  out.Num("preload_s", preload_s);
  Tally preload_tally;
  for (auto& c : conns) {
    preload_tally.attempted += c->tally().attempted;
    preload_tally.failed += c->tally().failed;
    if (preload_tally.first_failure.empty()) {
      preload_tally.first_failure = c->tally().first_failure;
    }
  }
  if (f.Has("preload-only")) {
    out.Int("attempted", preload_tally.attempted);
    out.Int("failed", preload_tally.failed);
    out.Str("first_failure", preload_tally.first_failure);
    std::printf("%s\n", out.str().c_str());
    return 0;
  }

  // One window over every connection, started together; its tallies join
  // *total. Returns its length in seconds.
  const auto window = [&](double secs, Tally* total) {
    std::vector<Tally> tallies(conns.size());
    std::barrier go(static_cast<std::ptrdiff_t>(conns.size()) + 1);
    std::atomic<uint64_t> deadline{0};
    std::vector<std::thread> ts;
    std::atomic<uint64_t> start{0};
    for (size_t i = 0; i < conns.size(); ++i) {
      ts.emplace_back([&, i] {
        go.arrive_and_wait();
        conns[i]->Window(start.load(), deadline.load(), &tallies[i]);
      });
    }
    const uint64_t w0 = NowNs();
    start.store(w0);
    deadline.store(w0 + static_cast<uint64_t>(secs * 1e9));
    go.arrive_and_wait();
    for (auto& t : ts) {
      t.join();
    }
    for (const Tally& t : tallies) {
      total->attempted += t.attempted;
      total->failed += t.failed;
      if (total->first_failure.empty()) {
        total->first_failure = t.first_failure;
      }
    }
    return static_cast<double>(NowNs() - w0) / 1e9;
  };
  // Every connection's samples of the last window.
  const auto merged = [&](Slices* reads, Slices* writes) {
    for (auto& c : conns) {
      reads->Merge(c->reads());
      writes->Merge(c->writes());
    }
  };

  Tally tally = preload_tally;
  auto ctl = Dial(port);
  std::map<int, Role> roles;
  std::vector<ThreadCpu> cpu0;
  std::string stats0;
  if (trace && pid > 0) {
    // Idle now: every thread is parked where it waits for work.
    for (const ThreadCpu& t : ThreadCpus(pid)) {
      roles[t.tid] = RoleOf(pid, t.tid);
    }
  }
  // Warm-up: the same stream, checked but not timed. The first seconds after
  // a preload run far slower than the rest (proxies are resurrected and
  // cached as keys are first read).
  window(warmup_s, &tally);
  double measured_s = seconds;
  if (trace && pid > 0) {
    // The traced run splits its time: an untraced half for the overhead
    // baseline, then the traced half.
    measured_s = seconds / 2;
    const double s = window(measured_s, &tally);
    Slices r;
    Slices w;
    merged(&r, &w);
    out.Num("untraced_ops_per_s", SliceRate(r, w, s));
    for (auto& c : conns) {
      c->keep_spans = true;
    }
    stats0 = Stats(ctl.get());
    cpu0 = ThreadCpus(pid);
  }

  const uint64_t cpu_before = pid > 0 ? ProcCpuTicks(pid) : 0;
  const uint64_t self_before = ProcCpuTicks(getpid());
  const double window_s = window(measured_s, &tally);
  const uint64_t cpu_after = pid > 0 ? ProcCpuTicks(pid) : 0;
  // Load-generator CPU over the window, as a share of one CPU: near 1 means
  // the client, not the server, sets the pace.
  out.Num("client_cpu_util",
          static_cast<double>(ProcCpuTicks(getpid()) - self_before) * TickSeconds() / window_s);
  const uint64_t rss_kb = pid > 0 ? RssAnonKb(pid) : 0;
  std::vector<ThreadCpu> cpu1;
  std::string stats1;
  if (trace && pid > 0) {
    cpu1 = ThreadCpus(pid);
    stats1 = Stats(ctl.get());
  }

  Slices reads;
  Slices writes;
  merged(&reads, &writes);
  const uint64_t ops = reads.Count() + writes.Count();
  const double op_div = ops == 0 ? 1.0 : static_cast<double>(ops);
  out.Num("window_s", window_s);
  out.Int("ops", ops);
  out.Int("reads", reads.Count());
  out.Int("writes", writes.Count());
  ReportWindow(&reads, &writes, window_s, &out);
  out.Num("cpu_us_per_op",
          static_cast<double>(cpu_after - cpu_before) * TickSeconds() * 1e6 / op_div);
  out.Num("volatile_mb", static_cast<double>(rss_kb) / 1024.0);
  out.Int("live_bytes", shape.keys * (KeyName(seed, 0).size() + shape.value_bytes));
  out.Int("attempted", tally.attempted);
  out.Int("failed", tally.failed);
  out.Str("first_failure", tally.first_failure);

  if (trace && pid > 0) {
    uint64_t loop_ticks = 0;
    uint64_t worker_ticks = 0;
    for (const ThreadCpu& t1 : cpu1) {
      for (const ThreadCpu& t0 : cpu0) {
        if (t0.tid != t1.tid || roles.count(t1.tid) == 0) {
          continue;
        }
        if (roles[t1.tid] == Role::kLoop) {
          loop_ticks += t1.ticks - t0.ticks;
        } else if (roles[t1.tid] == Role::kWorker) {
          worker_ticks += t1.ticks - t0.ticks;
        }
      }
    }
    const double us_per_tick = TickSeconds() * 1e6;
    out.Num("server.loop_cpu_us_per_op", static_cast<double>(loop_ticks) * us_per_tick / op_div);
    out.Num("shard.worker_cpu_us_per_op",
            static_cast<double>(worker_ticks) * us_per_tick / op_div);
    const auto o0 = StatsSum(stats0, "output:");
    const auto o1 = StatsSum(stats1, "output:");
    out.Num("server.flush_syscalls_per_op",
            static_cast<double>(o1.at("flush_syscalls") - o0.at("flush_syscalls")) / op_div);
    const auto s0 = StatsSum(stats0, "shard");
    const auto s1 = StatsSum(stats1, "shard");
    const auto d = [&](const char* k) {
      return static_cast<double>(s1.at(k) - s0.at(k));
    };
    out.Num("shard.ops_per_batch", op_div / std::max(1.0, d("batches")));
    const double wdiv = std::max<double>(1.0, static_cast<double>(writes.Count()));
    out.Num("heap.elided_fences_per_write", d("elided_fences") / wdiv);
    out.Num("nvm.fences_per_write", (d("psyncs") + d("pfences")) / wdiv);
    if (f.Has("spans-out")) {
      WriteSpans(f.Get("spans-out"), conns);
    }
  }

  if (f.Has("expect-out")) {
    std::vector<uint32_t> expect(shape.keys, 0);
    for (uint32_t c = 0; c < shape.conns; ++c) {
      const auto& a = conns[c]->acked();
      for (uint64_t l = 0; l < a.size(); ++l) {
        expect[l * shape.conns + c] = static_cast<uint32_t>(a[l]);
      }
    }
    std::ofstream e(f.Get("expect-out"), std::ios::binary);
    e.write(reinterpret_cast<const char*>(expect.data()),
            static_cast<std::streamsize>(expect.size() * sizeof(uint32_t)));
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int RunSweep(const Flags& f) {
  Shape shape;
  if (!ShapeFor(f.Get("workload"), &shape) || !shape.server) {
    Die("sweep: unknown server workload '" + f.Get("workload") + "'");
  }
  const uint64_t seed = f.U64("seed", 1);
  std::vector<uint32_t> expect(shape.keys, 0);
  {
    std::ifstream e(f.Get("expect"), std::ios::binary);
    e.read(reinterpret_cast<char*>(expect.data()),
           static_cast<std::streamsize>(expect.size() * sizeof(uint32_t)));
    if (!e) {
      Die("sweep: cannot read " + f.Get("expect"));
    }
  }
  auto cli = Dial(static_cast<uint16_t>(f.U64("port", 0)));
  Tally t;
  const uint64_t t0 = NowNs();
  std::deque<uint64_t> inflight;
  uint64_t next = 0;
  while (next < shape.keys || !inflight.empty()) {
    while (next < shape.keys && inflight.size() < 64) {
      if (!cli->SendCommand({"GET", KeyName(seed, next)})) {
        break;
      }
      inflight.push_back(next++);
    }
    RespReply r;
    if (!cli->ReadOneReply(&r)) {
      t.attempted += inflight.size() + (shape.keys - next);
      t.failed += inflight.size() + (shape.keys - next);
      t.first_failure = "I/O: " + cli->last_error();
      break;
    }
    const uint64_t g = inflight.front();
    inflight.pop_front();
    ++t.attempted;
    const std::string key = KeyName(seed, g);
    uint64_t v = 0;
    if (r.type != RespReply::Type::kBulk) {
      t.Fail("lost " + key + " across the restart");
    } else if (!CheckStamp(key, r.str, shape.value_bytes, &v) || v != expect[g]) {
      t.Fail(key + " at version " + std::to_string(v) + ", last acked " +
             std::to_string(expect[g]));
    }
  }
  JsonLine out;
  out.Num("sweep_s", static_cast<double>(NowNs() - t0) / 1e9);
  out.Int("attempted", t.attempted);
  out.Int("failed", t.failed);
  out.Str("first_failure", t.first_failure);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
