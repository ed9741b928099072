#include "src/server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <strings.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <thread>

#include "src/common/check.h"
#include "src/common/clock.h"

namespace jnvm::server {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// writev that reports a peer that already closed as EPIPE instead of
// raising SIGPIPE, which would kill the whole process with every other
// connection in it.
ssize_t WritevNoSignal(int fd, struct iovec* iov, size_t niov) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = niov;
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

bool ParseU32(const std::string& s, uint32_t* out) {
  if (s.empty() || s.size() > 9) {
    return false;
  }
  uint32_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint32_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 19) {
    return false;
  }
  uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

// "host:port" → (host, port). False on malformed input.
bool SplitHostPort(const std::string& s, std::string* host, uint16_t* port) {
  const size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    return false;
  }
  uint32_t p = 0;
  if (!ParseU32(s.substr(colon + 1), &p) || p == 0 || p > 65535) {
    return false;
  }
  *host = s.substr(0, colon);
  *port = static_cast<uint16_t>(p);
  return true;
}

// Relaxed counter bump: each LoopCounters slot is written by one loop thread
// and only read cross-thread by STATS aggregation.
inline void Bump(std::atomic<uint64_t>& c, uint64_t n = 1) {
  c.fetch_add(n, std::memory_order_relaxed);
}

inline uint64_t Rd(const std::atomic<uint64_t>& c) {
  return c.load(std::memory_order_relaxed);
}

// ASCII case-insensitive equality over the full lengths: a bulk argument may
// hold a NUL, so "MEET\0junk" must not match "MEET".
bool EqualsNoCase(std::string_view a, std::string_view b) {
  return a.size() == b.size() && strncasecmp(a.data(), b.data(), a.size()) == 0;
}

// Inline replies: each answers `seq` on `conn` and returns true, so a
// command handler can `return ReplyError(...)`. Conn::Complete releases the
// bytes in command order.
bool ReplySimple(Conn& conn, uint64_t seq, std::string_view s) {
  std::string r;
  AppendSimple(&r, s);
  conn.Complete(seq, std::move(r));
  return true;
}

// -ERR <msg>.
bool ReplyError(Conn& conn, uint64_t seq, std::string_view msg) {
  std::string r;
  AppendError(&r, msg);
  conn.Complete(seq, std::move(r));
  return true;
}

// An error whose first word is its code (-MOVED, -TRYAGAIN, -CLUSTERDOWN,
// -BADCONFIG, -BUSY, -TXNABORT) rather than the generic -ERR.
bool ReplyCode(Conn& conn, uint64_t seq, std::string_view msg) {
  std::string r;
  AppendErrorCode(&r, msg);
  conn.Complete(seq, std::move(r));
  return true;
}

}  // namespace

std::string ShutdownReport::Summary() const {
  std::string s;
  char line[256];
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardReport& r = shards[i];
    std::snprintf(line, sizeof(line),
                  "shard%zu: integrity=%s records=%llu elided_fences=%llu "
                  "psyncs=%llu image=%s\n",
                  i, r.integrity_ok ? "ok" : "VIOLATED",
                  static_cast<unsigned long long>(r.records),
                  static_cast<unsigned long long>(r.elided_fences),
                  static_cast<unsigned long long>(r.psyncs),
                  r.image_saved ? r.image_path.c_str() : "-");
    s += line;
    for (const std::string& v : r.violations) {
      s += "  violation: " + v + "\n";
    }
  }
  return s;
}

std::unique_ptr<Server> Server::Start(const ServerOptions& opts,
                                      std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg + ": " + std::strerror(errno);
    }
    return nullptr;
  };
  if (opts.nshards == 0) {
    if (error != nullptr) {
      *error = "bad options: nshards must be > 0";
    }
    return nullptr;
  }
  if (opts.shard.wait_acks > 0 && !opts.shard.repl_log) {
    if (error != nullptr) {
      *error = "bad options: --wait-acks requires the replication log";
    }
    return nullptr;
  }
  auto s = std::unique_ptr<Server>(new Server());
  s->opts_ = opts;
  s->opts_.loops = std::min(std::max(opts.loops, 1u), 64u);
  std::string primary_host;
  uint16_t primary_port = 0;
  if (!opts.replica_of.empty()) {
    if (!SplitHostPort(opts.replica_of, &primary_host, &primary_port)) {
      if (error != nullptr) {
        *error = "bad replica_of '" + opts.replica_of + "', expected host:port";
      }
      return nullptr;
    }
    // Replica role: followers with a (mirrored) replication log.
    s->opts_.shard.follower = true;
    s->opts_.shard.repl_log = true;
  }

  const uint32_t nloops = s->opts_.loops;
  for (uint32_t i = 0; i < nloops; ++i) {
    auto lp = std::make_unique<Loop>();
    if (!lp->poller.ok()) {
      return fail("epoll_create1");
    }
    lp->index = i;
    lp->runs.resize(opts.nshards);
    s->loops_.push_back(std::move(lp));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
    return fail("inet_pton(" + opts.host + ")");
  }
  // Opens one bound, listening, non-blocking socket; -1 (errno set) when
  // any step fails, SO_REUSEPORT included.
  auto open_listener = [&](uint16_t port, bool reuseport) -> int {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in a = addr;
    a.sin_port = htons(port);
    if ((reuseport &&
         ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) ||
        ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) != 0 ||
        ::listen(fd, 128) != 0) {
      ::close(fd);
      return -1;
    }
    SetNonBlocking(fd);
    return fd;
  };

  // A pool gives every loop its own SO_REUSEPORT listener so the kernel
  // spreads accepts; in hand-off mode loop 0 accepts alone and deals fds
  // round-robin (AcceptPending → fd_inbox).
  s->handoff_ = nloops > 1 && !s->opts_.reuseport;
  const bool reuseport = nloops > 1 && !s->handoff_;
  const int fd0 = open_listener(opts.port, reuseport);
  if (fd0 < 0) {
    return fail("bind");
  }
  s->loops_[0]->listen_fd = fd0;
  socklen_t alen = sizeof(addr);
  ::getsockname(fd0, reinterpret_cast<sockaddr*>(&addr), &alen);
  s->port_ = ntohs(addr.sin_port);
  for (uint32_t i = 1; reuseport && i < nloops; ++i) {
    const int fd = open_listener(s->port_, /*reuseport=*/true);
    if (fd < 0) {
      return fail("bind");
    }
    s->loops_[i]->listen_fd = fd;
  }

  for (auto& lp : s->loops_) {
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
      return fail("pipe");
    }
    lp->wake_r = pipefd[0];
    lp->wake_w = pipefd[1];
    SetNonBlocking(lp->wake_r);
    SetNonBlocking(lp->wake_w);
    if (lp->listen_fd >= 0) {
      lp->poller.Watch(lp->listen_fd, true, false);
    }
    lp->poller.Watch(lp->wake_r, true, false);
  }

  if (opts.cluster) {
    // The slot table opens before the shards: recovery of a torn handoff
    // (RecoverLocked) must settle before any request can route.
    cluster::ClusterOptions copts = opts.cluster_meta;
    if (copts.announce.empty()) {
      copts.announce = opts.host + ":" + std::to_string(s->port_);
    }
    std::string cerr;
    s->cluster_ = cluster::ClusterState::Open(copts, &cerr);
    if (s->cluster_ == nullptr) {
      if (error != nullptr) {
        *error = "cluster meta: " + cerr;
      }
      return nullptr;
    }
  }
  // Every shard recovers on its own thread; nothing below runs until all
  // have joined. What the openers share is safe to share:
  //  - class registration uses static locals and the registry mutex
  //    (src/core/registry.cc);
  //  - an opener creates a FaContext (src/pfa/fa_context.cc) when it runs
  //    the root-map Put on a fresh heap or a txn apply in RedoLogTail. Its
  //    log is erased when the block commits, and the context dies with the
  //    thread; the shard's worker takes its own log slot;
  //  - the free queue's per-thread id (src/heap/free_queue.cc) only picks a
  //    home stack.
  // The lowest-numbered failure is reported (or its exception rethrown), as
  // a sequential open would. Returning destroys the shards that did open,
  // which joins their workers.
  std::vector<std::unique_ptr<Shard>> opened(opts.nshards);
  std::vector<std::string> errs(opts.nshards);
  std::vector<std::exception_ptr> thrown(opts.nshards);
  {
    std::vector<std::jthread> openers;  // joined at the end of this scope
    openers.reserve(opts.nshards);
    for (uint32_t i = 0; i < opts.nshards; ++i) {
      openers.emplace_back([&s, &opened, &errs, &thrown, i] {
        try {
          opened[i] = Shard::Open(s->opts_.shard, i, s.get(), &errs[i]);
        } catch (...) {
          thrown[i] = std::current_exception();
        }
      });
    }
  }
  for (uint32_t i = 0; i < opts.nshards; ++i) {
    if (thrown[i] != nullptr) {
      std::rethrow_exception(thrown[i]);
    }
    if (opened[i] == nullptr) {
      if (error != nullptr) {
        *error = errs[i];
      }
      return nullptr;
    }
  }
  s->shards_ = std::move(opened);
  if (s->cluster_ != nullptr) {
    std::vector<Shard*> raw;
    raw.reserve(s->shards_.size());
    for (const auto& sh : s->shards_) {
      raw.push_back(sh.get());
    }
    s->migrator_ =
        std::make_unique<cluster::Migrator>(s->cluster_.get(), std::move(raw));
  }
  {
    std::vector<Shard*> raw;
    raw.reserve(s->shards_.size());
    for (const auto& sh : s->shards_) {
      raw.push_back(sh.get());
    }
    s->ckpt_runner_ =
        std::make_unique<ckpt::CheckpointRunner>(std::move(raw), s.get());
  }
  if (opts.replica_of.empty() && s->opts_.shard.repl_log) {
    // Primary crash recovery (DESIGN.md §9): commit-or-abort every
    // prepared-but-undecided cross-shard txn before the event loops serve
    // clients (single-threaded here: no loop thread has spawned yet).
    // Replicas resolve at PROMOTE instead, once the pull stops.
    s->ResolveCrossShardTxns(*s->loops_[0]);
  }

  for (auto& lp : s->loops_) {
    Loop* raw = lp.get();
    raw->thread = std::thread([s_raw = s.get(), raw] {
      s_raw->EventLoop(*raw);
    });
  }
  if (!opts.replica_of.empty()) {
    std::vector<Shard*> raw;
    raw.reserve(s->shards_.size());
    for (const auto& sh : s->shards_) {
      raw.push_back(sh.get());
    }
    s->repl_client_ = repl::ReplClient::Start(primary_host, primary_port, raw);
  }
  return s;
}

Server::~Server() {
  RequestShutdown();
  Wait();
  for (auto& lp : loops_) {
    if (lp->wake_r >= 0) ::close(lp->wake_r);
    if (lp->wake_w >= 0) ::close(lp->wake_w);
    if (lp->listen_fd >= 0) ::close(lp->listen_fd);
  }
}

bool Server::AnyShardRecovered() const {
  for (const auto& sh : shards_) {
    if (sh->recovered()) {
      return true;
    }
  }
  return false;
}

void Server::Wait() {
  for (auto& lp : loops_) {
    if (lp->thread.joinable()) {
      lp->thread.join();
    }
  }
}

void Server::RequestShutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  // Wake every loop in case it is parked in Wait(); whichever notices first
  // claims coordination (shutdown_claimed_).
  for (auto& lp : loops_) {
    WakeLoop(*lp);
  }
}

Server::Loop& Server::LoopFor(uint64_t conn_id) {
  const uint64_t idx = conn_id >> kLoopShift;
  if (idx == 0 || idx > loops_.size()) {
    return *loops_[0];  // internal (conn_id 0) work homes on loop 0
  }
  return *loops_[idx - 1];
}

void Server::WakeLoop(Loop& lp) {
  if (lp.wake_w < 0) {
    return;
  }
  // Self-pipe wakeup. EINTR is retried — a swallowed wake could strand a
  // completion for a full poll timeout. EAGAIN (pipe already full of wake
  // bytes) is fine: the pending byte already guarantees a drain.
  const char b = 'c';
  ssize_t n;
  do {
    n = ::write(lp.wake_w, &b, 1);
  } while (n < 0 && errno == EINTR);
}

void Server::PostWake(Loop& lp) {
  // Only the post that raises the flag writes; until the loop drains the
  // pipe and lowers it, that byte already guarantees the loop will swap out
  // everything posted under lp.mu before the swap (EventLoop).
  if (!lp.wake_pending.exchange(true, std::memory_order_acq_rel)) {
    WakeLoop(lp);
  }
}

void Server::OnCompletion(Completion&& c) {
  // Called from shard workers and from any loop (released parks). The loop
  // index rides in the conn id's high bits, so every completion source —
  // batch replies, released WAIT parks, released session reads, stream
  // frames, join parts — lands on the loop owning the connection.
  Loop& lp = LoopFor(c.conn_id);
  {
    std::lock_guard<std::mutex> lk(lp.mu);
    lp.completions.push_back(std::move(c));
  }
  PostWake(lp);
}

void Server::OnCompletions(std::vector<Completion>& batch) {
  // A batch usually belongs to one loop; each owning loop gets its share in
  // batch order under one lock. A moved-from completion keeps its conn_id,
  // so every completion is routed exactly once.
  for (const auto& owned : loops_) {
    Loop& lp = *owned;
    std::unique_lock<std::mutex> lk(lp.mu, std::defer_lock);
    for (Completion& c : batch) {
      if (&LoopFor(c.conn_id) != &lp) {
        continue;
      }
      if (!lk.owns_lock()) {
        lk.lock();
      }
      lp.completions.push_back(std::move(c));
    }
    if (lk.owns_lock()) {
      lk.unlock();
      PostWake(lp);
    }
  }
}

void Server::EventLoop(Loop& lp) {
  std::vector<Poller::Event> events;
  for (;;) {
    lp.poller.Wait(&events, 100);
    // External shutdown request (RequestShutdown / ~Server): exactly one
    // loop claims coordination; the rest follow the phase variable.
    if (shutdown_requested_.load(std::memory_order_acquire) &&
        shutdown_phase_.load(std::memory_order_acquire) == 0 &&
        !shutdown_claimed_.exchange(true, std::memory_order_acq_rel)) {
      DoShutdown(lp, /*conn_id=*/0, /*seq=*/0);
    }
    const int phase = shutdown_phase_.load(std::memory_order_acquire);
    if (phase >= 1) {
      StopIntake(lp);
    }
    if (phase >= 2) {
      FinishLoop(lp);
    }
    if (lp.exiting) {
      return;
    }
    // Periodic work rides the wait timeout: expire WAIT-K parked batches
    // (degraded -WAITTIMEOUT delivery), expire parked session reads to
    // -STALE, and re-drive stalled submissions. One loop ticks the shared
    // shard timers; every loop re-drives its own stalled work.
    if (lp.index == 0 && phase == 0) {
      const uint64_t now_ms = NowNs() / 1000000ull;
      for (auto& sh : shards_) {
        sh->TickWait(now_ms);
        sh->TickReadStale(now_ms);
      }
      // Periodic fuzzy checkpoint (DESIGN.md §11). Primaries only: a
      // replica's log truncates when the primary's checkpoint streams
      // through. Trigger refuses (false) while a pass is still running —
      // the timer just retries next interval.
      if (opts_.ckpt_interval_ms > 0 && opts_.replica_of.empty() &&
          opts_.shard.repl_log) {
        if (last_ckpt_ms_ == 0) {
          last_ckpt_ms_ = now_ms;
        } else if (now_ms - last_ckpt_ms_ >= opts_.ckpt_interval_ms &&
                   ckpt_runner_->Trigger(/*conn_id=*/0, /*seq=*/0)) {
          last_ckpt_ms_ = now_ms;
        }
      }
    }
    RetryStalled(lp);
    RetryPending(lp);
    for (const Poller::Event& ev : events) {
      if (lp.exiting) {
        break;
      }
      if (ev.fd == lp.listen_fd && lp.listen_fd >= 0) {
        AcceptPending(lp);
        continue;
      }
      if (ev.fd == lp.wake_r) {
        char buf[256];
        ssize_t n;
        do {
          n = ::read(lp.wake_r, buf, sizeof(buf));
        } while (n > 0 || (n < 0 && errno == EINTR));
        // Lower the flag after draining and before the swaps below: a post
        // the swaps miss raises it again and writes a fresh byte.
        lp.wake_pending.store(false, std::memory_order_release);
        DrainFdInbox(lp);
        DrainCompletions(lp);
        continue;
      }
      const auto it = lp.by_fd.find(ev.fd);
      if (it == lp.by_fd.end()) {
        continue;  // closed earlier this round
      }
      const uint64_t id = it->second;
      if (ev.error) {
        CloseConn(lp, id);
        continue;
      }
      if (ev.writable) {
        HandleWritable(lp, *lp.conns[id]);
        if (lp.conns.find(id) == lp.conns.end()) {
          continue;
        }
      }
      if (ev.readable) {
        HandleReadable(lp, *lp.conns[id]);
      }
    }
  }
}

void Server::AcceptPending(Loop& lp) {
  // Hand-off mode (handoff_): loop 0 holds the only listener, accepts and
  // deals fds round-robin.
  for (;;) {
    const int fd = ::accept(lp.listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;  // interrupted by a signal: the backlog is still there
      }
      if (errno == ECONNABORTED) {
        continue;  // peer gave up while queued; next one may be fine
      }
      return;  // EAGAIN or a real error: nothing more to accept now
    }
    if (!handoff_) {
      RegisterConn(lp, fd);
      continue;
    }
    Loop& target = *loops_[rr_next_++ % loops_.size()];
    if (&target == &lp) {
      RegisterConn(lp, fd);
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(target.mu);
      target.fd_inbox.push_back(fd);
    }
    PostWake(target);
  }
}

void Server::RegisterConn(Loop& lp, int fd) {
  SetNonBlocking(fd);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  // Loop index in the high bits (loop 1 = pool index 0) so completions can
  // route home; id 0 keeps meaning "internal".
  conn->id = (static_cast<uint64_t>(lp.index + 1) << kLoopShift) |
             (lp.next_conn++ & ((1ull << kLoopShift) - 1));
  conn->parser.set_max_buffer(opts_.max_conn_in_bytes);
  lp.by_fd[fd] = conn->id;
  lp.poller.Watch(fd, true, false);
  Bump(lp.counters.accepted);
  lp.counters.open_conns.fetch_add(1, std::memory_order_relaxed);
  lp.conns.emplace(conn->id, std::move(conn));
}

void Server::DrainFdInbox(Loop& lp) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lk(lp.mu);
    fds.swap(lp.fd_inbox);
  }
  for (const int fd : fds) {
    if (lp.intake_stopped) {
      ::close(fd);  // arrived after quiesce began: never a client
      continue;
    }
    RegisterConn(lp, fd);
  }
}

void Server::CloseConn(Loop& lp, uint64_t id) {
  const auto it = lp.conns.find(id);
  if (it == lp.conns.end()) {
    return;
  }
  for (auto& sh : shards_) {
    sh->Unsubscribe(id);  // no-op unless `id` held a REPLSYNC stream
  }
  // Join parts still in the stall queue go on without the client, so
  // every join still reaches zero: an EXEC must decide or abort (or the
  // parts already prepared on other shards stay staged, and clamp CKPT,
  // until a restart), and a PROMOTE must flip its shards.
  for (StalledRequest& st : it->second->stalled) {
    if (st.req.multi != nullptr || st.req.txn != nullptr) {
      lp.pending.emplace_back(st.shard, std::move(st.req));
    }
  }
  lp.poller.Forget(it->second->fd);
  lp.by_fd.erase(it->second->fd);
  ::close(it->second->fd);
  lp.conns.erase(it);
  lp.counters.open_conns.fetch_sub(1, std::memory_order_relaxed);
}

void Server::HandleReadable(Loop& lp, Conn& conn) {
  if (conn.closing) {
    return;  // draining replies; further input is ignored
  }
  if (conn.paused || lp.intake_stopped) {
    return;  // backpressure / quiesce: leave the bytes in the kernel buffer
  }
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.parser.Feed(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) {
        break;
      }
      continue;
    }
    if (n == 0) {
      CloseConn(lp, conn.id);
      return;
    }
    if (errno == EINTR) {
      continue;  // interrupted by a signal, not a socket failure
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    CloseConn(lp, conn.id);
    return;
  }

  ProcessInput(lp, conn);
  if (lp.exiting || lp.conns.find(conn.id) == lp.conns.end()) {
    return;
  }
  if (conn.WantsWrite()) {
    HandleWritable(lp, conn);
  } else if (conn.closing && conn.inflight == 0) {
    CloseConn(lp, conn.id);
  }
}

void Server::ProcessInput(Loop& lp, Conn& conn) {
  std::vector<std::string> args;
  std::string perr;
  while (!conn.paused && !lp.intake_stopped) {
    const RespParser::Status st = conn.parser.Next(&args, &perr);
    if (st == RespParser::Status::kNeedMore) {
      break;
    }
    if (st == RespParser::Status::kError) {
      // Protocol violation (or input-cap overflow): this connection's
      // stream position is lost, so reply -ERR and close it once pending
      // replies drain. Other connections are unaffected.
      if (conn.parser.overflowed()) {
        Bump(lp.counters.in_overflows);
      } else {
        Bump(lp.counters.protocol_errors);
      }
      ReplyError(conn, conn.next_seq++, "protocol error: " + perr);
      conn.closing = true;
      break;
    }
    Bump(lp.counters.commands);
    if (!Dispatch(lp, conn, args)) {
      conn.closing = true;
      break;
    }
    if (lp.exiting) {
      return;  // SHUTDOWN handled inside Dispatch (runs went first); conns are gone
    }
  }
  // The read burst's plain commands go to their shards together.
  SubmitRuns(lp, conn);
}

void Server::HandleWritable(Loop& lp, Conn& conn) {
  // Scatter-gather flush: up to kFlushIovecs chunks per writev() — shared
  // frames and coalesced tails alike go out in one syscall. A partial write
  // leaves the resume offset mid-chunk; ConsumeOut pops what the kernel
  // accepted (releasing owned buffers and shared-frame refs).
  static constexpr size_t kFlushIovecs = 64;
  struct iovec iov[kFlushIovecs];
  while (conn.WantsWrite()) {
    const size_t niov = conn.BuildIovecs(iov, kFlushIovecs);
    const ssize_t n = WritevNoSignal(conn.fd, iov, niov);
    if (n > 0) {
      Bump(lp.counters.flush_syscalls);
      Bump(lp.counters.flushed_bytes, static_cast<uint64_t>(n));
      Bump(lp.counters.flush_chunks, niov);
      conn.ConsumeOut(static_cast<size_t>(n));
      continue;
    }
    if (errno == EINTR) {
      continue;  // interrupted by a signal, not a socket failure
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      lp.poller.Watch(conn.fd, !conn.paused && !lp.intake_stopped, true);
      return;
    }
    CloseConn(lp, conn.id);
    return;
  }
  lp.poller.Watch(conn.fd, !conn.paused && !lp.intake_stopped, false);
  if (conn.closing && conn.inflight == 0 && conn.replies.empty()) {
    CloseConn(lp, conn.id);
  }
}

void Server::PauseReads(Loop& lp, Conn& conn) {
  if (conn.paused) {
    return;
  }
  conn.paused = true;
  lp.poller.Watch(conn.fd, false, conn.WantsWrite());
  lp.stalled_conns.push_back(conn.id);
}

void Server::SubmitOrStall(Loop& lp, Conn& conn, uint32_t shard_idx,
                           Request&& req) {
  if (conn.stalled.empty()) {
    switch (shards_[shard_idx]->TrySubmit(std::move(req))) {
      case Shard::SubmitResult::kOk:
        return;
      case Shard::SubmitResult::kStopped:
        FailStalledRequest(lp, conn, shard_idx, req);  // req left intact
        return;
      case Shard::SubmitResult::kFull:
        break;  // kFull left req intact: stall it below
    }
  }
  // Either the shard is full or earlier requests of this connection are
  // already stalled (order must hold). Park the request and read-pause.
  conn.stalled.push_back(StalledRequest{shard_idx, std::move(req)});
  PauseReads(lp, conn);
}

void Server::SubmitRuns(Loop& lp, Conn& conn) {
  // Runs fill only while the connection is not read-paused, and stalled
  // requests always pause it, so nothing stalled earlier can be overtaken.
  // A suffix this call stalls for one shard does not hold up another
  // shard's run: order holds per (connection, shard), not across shards.
  for (uint32_t idx = 0; idx < lp.runs.size(); ++idx) {
    std::vector<Request>& run = lp.runs[idx];
    if (run.empty()) {
      continue;
    }
    const Shard::SubmitResult r = shards_[idx]->TrySubmitMany(&run);
    for (Request& req : run) {  // the unaccepted suffix, in order
      JNVM_DCHECK(req.conn_id == conn.id);
      if (r == Shard::SubmitResult::kStopped) {
        FailStalledRequest(lp, conn, idx, req);
      } else {
        conn.stalled.push_back(StalledRequest{idx, std::move(req)});
      }
    }
    if (r == Shard::SubmitResult::kFull) {
      PauseReads(lp, conn);
    }
    run.clear();
  }
}

void Server::RetryStalled(Loop& lp) {
  if (lp.stalled_conns.empty()) {
    return;
  }
  // Swap out the list: PauseReads may append to stalled_conns while we
  // re-run ProcessInput below (a resumed connection can stall again).
  std::vector<uint64_t> work;
  work.swap(lp.stalled_conns);
  for (const uint64_t id : work) {
    const auto it = lp.conns.find(id);
    if (it == lp.conns.end()) {
      continue;  // connection closed while stalled
    }
    Conn& conn = *it->second;
    while (!conn.stalled.empty()) {
      StalledRequest& front = conn.stalled.front();
      const Shard::SubmitResult r =
          shards_[front.shard]->TrySubmit(std::move(front.req));
      if (r == Shard::SubmitResult::kFull) {
        break;
      }
      if (r == Shard::SubmitResult::kStopped) {
        FailStalledRequest(lp, conn, front.shard, front.req);
      }
      conn.stalled.pop_front();
    }
    if (!conn.stalled.empty()) {
      lp.stalled_conns.push_back(id);  // still blocked; stay paused
      continue;
    }
    if (lp.intake_stopped) {
      // Quiescing: the stall queue drained (or failed against stopping
      // shards) — flush what resolved but do not resume parsing.
      conn.paused = false;
      if (conn.WantsWrite()) {
        HandleWritable(lp, conn);
      }
      continue;
    }
    // Drained: resume reading and the commands buffered before the pause.
    conn.paused = false;
    lp.poller.Watch(conn.fd, true, conn.WantsWrite());
    ProcessInput(lp, conn);
    if (lp.exiting || lp.conns.find(id) == lp.conns.end()) {
      continue;
    }
    if (conn.WantsWrite()) {
      HandleWritable(lp, conn);
    } else if (conn.closing && conn.inflight == 0) {
      CloseConn(lp, conn.id);
    }
  }
}

// A stalled request met a stopping shard (shutdown). Resolve its reply slot
// so the connection does not hang on a reply that can never come.
void Server::FailStalledRequest(Loop& lp, Conn& conn, uint32_t shard_idx,
                                Request& req) {
  if (req.multi != nullptr || req.txn != nullptr) {
    // A join part: SubmitUnordered's retry fails it (kStopped) from a
    // caller that holds no connection, because the join may answer and
    // flush, and a flush can close `conn`.
    lp.pending.emplace_back(shard_idx, std::move(req));
    return;
  }
  if (req.conn_id != 0) {
    JNVM_DCHECK(conn.inflight > 0);
    --conn.inflight;
    ReplyError(conn, req.seq, "server shutting down");
  }
}

// ---- Command table ----------------------------------------------------------

// The command handlers, one or more per table row. A nested class of
// Server, so they reach its private state.
struct Server::Handlers {
  using Args = std::vector<std::string>;

  // A reply joined from `parts` shard requests (MSET, PROMOTE, MIGSTART,
  // MIGAPPLY): it holds the connection's one inflight slot, and JoinPart
  // answers it once every part has completed.
  static std::shared_ptr<MultiOp> Join(Conn& conn, uint32_t parts) {
    auto multi = std::make_shared<MultiOp>();
    multi->remaining = parts;
    ++conn.inflight;
    return multi;
  }

  // Submits one part of `multi`, which answers `seq` on `conn`.
  static void SubmitPart(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                         const std::shared_ptr<MultiOp>& multi, uint32_t shard,
                         Request&& req) {
    req.conn_id = conn.id;
    req.seq = seq;
    req.multi = multi;
    s.SubmitOrStall(lp, conn, shard, std::move(req));
  }

  // A single-shard control request: the shard answers `seq` on `conn`.
  static bool SubmitControl(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                            uint32_t shard, Request&& req) {
    req.conn_id = conn.id;
    req.seq = seq;
    ++conn.inflight;
    s.SubmitOrStall(lp, conn, shard, std::move(req));
    return true;
  }

  static bool ParseShard(const Server& s, const std::string& arg,
                         uint32_t* idx) {
    return ParseU32(arg, idx) && *idx < s.shards_.size();
  }

  // ---- Data plane ----------------------------------------------------------

  // GET / SET / DEL / TOUCH / HSET. Inside MULTI (the kQueued rows) the op
  // queues for EXEC; otherwise the key is slot-routed and the request joins
  // its shard's run, which SubmitRuns hands over.
  template <Request::Op kOp>
  static bool KeyOp(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                    Args& args) {
    if (conn.in_multi) {
      return Queue(conn, seq, kOp, args);
    }
    Request req;
    req.op = kOp;
    if constexpr (kOp == Request::Op::kSet) {
      req.value = std::move(args[2]);
    } else if constexpr (kOp == Request::Op::kHset) {
      if (!ParseU32(args[2], &req.field)) {
        return ReplyError(conn, seq, "HSET field must be a decimal index");
      }
      req.value = std::move(args[3]);
    }
    req.key = std::move(args[1]);
    if (s.cluster_ != nullptr) {
      const bool asking = conn.asking;
      conn.asking = false;  // one-shot: ASKING covers exactly one command
      if (RouteClusterKey(s, lp, conn, seq, asking, &req)) {
        return true;  // redirect answered inline
      }
    }
    req.conn_id = conn.id;
    req.seq = seq;
    const uint32_t idx =
        ShardFor(req.key, static_cast<uint32_t>(s.shards_.size()));
    if constexpr (kOp == Request::Op::kGet || kOp == Request::Op::kTouch) {
      req.min_seq = conn.MinSeqFor(idx);
    }
    ++conn.inflight;
    if (req.min_seq > 0) {
      // Session read: when the shard's applied watermark is behind the
      // connection's MINSEQ token the shard parks the read (released by the
      // apply batch that catches up, or -STALE on timeout/overflow). kReady
      // leaves the request untouched and it submits like any other read.
      // The release routes back to this loop by conn id, wherever the
      // MINSEQ token was minted.
      switch (s.shards_[idx]->GateSessionRead(req, NowNs() / 1000000ull)) {
        case Shard::ReadGate::kReady:
          break;
        case Shard::ReadGate::kParked:
        case Shard::ReadGate::kStale:
          return true;  // the shard owns the completion now
      }
    }
    lp.runs[idx].push_back(std::move(req));
    return true;
  }

  // Queues one MULTI data op (Dispatch checked its arity). A full queue
  // dirties the txn.
  static bool Queue(Conn& conn, uint64_t seq, Request::Op op, Args& args) {
    if (conn.txn_ops.size() >= kMaxArgs) {
      conn.txn_dirty = true;
      return ReplyError(conn, seq, "transaction exceeds " +
                                       std::to_string(kMaxArgs) + " commands");
    }
    txn::TxnOp t;
    t.kind = op == Request::Op::kSet   ? txn::TxnOp::Kind::kSet
             : op == Request::Op::kGet ? txn::TxnOp::Kind::kGet
                                       : txn::TxnOp::Kind::kDel;
    t.key = std::move(args[1]);
    if (op == Request::Op::kSet) {
      t.value = std::move(args[2]);
    }
    conn.txn_ops.push_back(std::move(t));
    return ReplySimple(conn, seq, "QUEUED");
  }

  // Slot-routes one key op. True = answered inline with a redirect (-MOVED
  // / -TRYAGAIN / -CLUSTERDOWN); false = serve locally, with req->ask_addr
  // set when the slot is mid-migration so a key miss answers -ASK. `asking`
  // is the connection's consumed one-shot ASKING flag.
  static bool RouteClusterKey(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                              bool asking, Request* req) {
    const uint16_t slot = cluster::SlotForKey(req->key);
    const cluster::Route rt = s.cluster_->Lookup(slot, asking);
    switch (rt.action) {
      case cluster::Route::Action::kLocal:
        if (rt.migrating && !rt.addr.empty()) {
          // Serve here, but a key miss now means "already moved (or never
          // existed)": the shard answers -ASK <slot> <addr> instead of a
          // plain miss, and writes of missing keys redirect the same way.
          req->ask_addr = std::to_string(slot) + " " + rt.addr;
        }
        return false;
      case cluster::Route::Action::kMoved:
        Bump(lp.counters.moved_replies);
        return ReplyCode(conn, seq,
                         "MOVED " + std::to_string(slot) + " " + rt.addr);
      case cluster::Route::Action::kTryAgain:
        return ReplyCode(conn, seq, "TRYAGAIN slot " + std::to_string(slot) +
                                        " is frozen for handoff");
      case cluster::Route::Action::kDown:
        break;
    }
    return ReplyCode(conn, seq, "CLUSTERDOWN slot " + std::to_string(slot) +
                                    " is unassigned");
  }

  // Multi-key commands (MSET, EXEC) cannot follow an -ASK — one redirect,
  // many slots — so every key's slot must be plainly local: owned here and
  // not mid-migration. True = `key`'s is not, and its redirect was
  // answered; `what` names the refused family in the -TRYAGAIN text.
  static bool RefuseNonLocal(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                             const std::string& key, const char* what) {
    const uint16_t slot = cluster::SlotForKey(key);
    const cluster::Route rt = s.cluster_->Lookup(slot, /*asking=*/false);
    if (rt.action == cluster::Route::Action::kLocal && !rt.migrating) {
      return false;
    }
    if (rt.action == cluster::Route::Action::kMoved) {
      Bump(lp.counters.moved_replies);
      return ReplyCode(conn, seq,
                       "MOVED " + std::to_string(slot) + " " + rt.addr);
    }
    if (rt.action == cluster::Route::Action::kDown) {
      return ReplyCode(conn, seq, "CLUSTERDOWN slot " + std::to_string(slot) +
                                      " is unassigned");
    }
    return ReplyCode(conn, seq, "TRYAGAIN slot " + std::to_string(slot) +
                                    " is migrating; " + what +
                                    " need stable slots");
  }

  static bool Ping(Server& s, Loop& lp, Conn& conn, uint64_t seq, Args& args) {
    return ReplySimple(conn, seq, "PONG");
  }

  // One kSet per pair, fanned out to the owning shards; the joined +OK
  // means every pair is durable.
  static bool Mset(Server& s, Loop& lp, Conn& conn, uint64_t seq, Args& args) {
    const uint32_t pairs = static_cast<uint32_t>((args.size() - 1) / 2);
    if (s.cluster_ != nullptr) {
      conn.asking = false;
      for (uint32_t i = 0; i < pairs; ++i) {
        if (RefuseNonLocal(s, lp, conn, seq, args[1 + 2 * i],
                           "multi-key commands")) {
          return true;
        }
      }
    }
    const auto multi = Join(conn, pairs);
    for (uint32_t i = 0; i < pairs; ++i) {
      Request req;
      req.op = Request::Op::kSet;
      req.key = std::move(args[1 + 2 * i]);
      req.value = std::move(args[2 + 2 * i]);
      const uint32_t idx =
          ShardFor(req.key, static_cast<uint32_t>(s.shards_.size()));
      SubmitPart(s, lp, conn, seq, multi, idx, std::move(req));
    }
    return true;
  }

  static bool Stats(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                    Args& args) {
    std::string r;
    AppendBulk(&r, s.BuildStats());
    conn.Complete(seq, std::move(r));
    return true;
  }

  static bool Shutdown(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                       Args& args) {
    // One loop coordinates a shutdown; a second SHUTDOWN racing it (from any
    // loop) gets an explicit refusal instead of a second quiesce.
    if (s.shutdown_claimed_.exchange(true, std::memory_order_acq_rel)) {
      return ReplyError(conn, seq, "shutdown already in progress");
    }
    s.DoShutdown(lp, conn.id, seq);
    return true;
  }

  // ---- Transactions (DESIGN.md §9): MULTI queues, EXEC runs, DISCARD drops.

  static bool Multi(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                    Args& args) {
    if (conn.in_multi) {
      return ReplyError(conn, seq, "MULTI calls can not be nested");
    }
    conn.in_multi = true;
    conn.txn_dirty = false;
    conn.txn_ops.clear();
    return ReplySimple(conn, seq, "OK");
  }

  static bool Discard(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                      Args& args) {
    if (!conn.in_multi) {
      return ReplyError(conn, seq, "DISCARD without MULTI");
    }
    conn.in_multi = false;
    conn.txn_dirty = false;
    conn.txn_ops.clear();
    return ReplySimple(conn, seq, "OK");
  }

  // Turns the connection's queued ops into a TxnState and launches phase 1
  // (kTxnExec single-shard / kTxnPrepare per participant).
  static bool Exec(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                   Args& args) {
    if (!conn.in_multi) {
      return ReplyError(conn, seq, "EXEC without MULTI");
    }
    std::vector<txn::TxnOp> ops = std::move(conn.txn_ops);
    const bool dirty = conn.txn_dirty;
    conn.in_multi = false;
    conn.txn_dirty = false;
    conn.txn_ops.clear();
    if (dirty) {
      return ReplyCode(conn, seq,
                       "TXNABORT transaction discarded because of previous "
                       "errors");
    }
    if (ops.empty()) {
      std::string r;
      AppendArrayHeader(&r, 0);
      conn.Complete(seq, std::move(r));
      return true;
    }
    if (s.cluster_ != nullptr) {
      // A transaction's atomicity lives inside this node's shards.
      for (const txn::TxnOp& op : ops) {
        if (RefuseNonLocal(s, lp, conn, seq, op.key, "transactions")) {
          return true;
        }
      }
    }

    auto t = std::make_shared<txn::TxnState>();
    t->id = s.txn_ids_.Next();  // atomic: loops share one id space
    t->conn_id = conn.id;
    t->reply_seq = seq;
    t->nops = ops.size();
    t->replies.resize(ops.size());

    // Partition the ops across shards, preserving txn order within each part.
    std::map<uint32_t, txn::TxnPart> parts;  // ordered: lowest shard first
    for (size_t i = 0; i < ops.size(); ++i) {
      ops[i].reply_index = i;
      const uint32_t idx =
          ShardFor(ops[i].key, static_cast<uint32_t>(s.shards_.size()));
      txn::TxnPart& part = parts[idx];
      part.shard = idx;
      part.ops.push_back(std::move(ops[i]));
    }
    t->parts.reserve(parts.size());
    for (auto& [idx, part] : parts) {
      t->parts.push_back(std::move(part));
    }
    t->single_shard = t->parts.size() == 1;
    // Coordinator = lowest shard that may write (SET/DEL): its replication
    // log carries the decision record. A pure-read txn never seals one, so
    // the choice is moot there.
    t->coordinator = t->parts[0].shard;
    for (const txn::TxnPart& p : t->parts) {
      bool writes = false;
      for (const txn::TxnOp& op : p.ops) {
        if (op.kind != txn::TxnOp::Kind::kGet) {
          writes = true;
          break;
        }
      }
      if (writes) {
        t->coordinator = p.shard;
        break;
      }
    }

    // Phase 1: single-shard txns run their whole commit as one kTxnExec
    // record (the fast path — one record, one Psync, group-commit batched);
    // cross-shard txns prepare on every participant. The parts go through
    // the stall queue like any request of this connection, so they cannot
    // overtake its earlier commands on the same shard.
    ++conn.inflight;
    t->remaining = static_cast<uint32_t>(t->parts.size());
    for (uint32_t i = 0; i < t->parts.size(); ++i) {
      Request req;
      req.op =
          t->single_shard ? Request::Op::kTxnExec : Request::Op::kTxnPrepare;
      req.key = txn::TxnIdKey(t->id);
      req.conn_id = conn.id;
      req.seq = seq;
      req.txn = t;
      req.txn_part = i;
      s.SubmitOrStall(lp, conn, t->parts[i].shard, std::move(req));
    }
    return true;
  }

  // ---- Session consistency --------------------------------------------------

  // MINSEQ <shard> <seq> raises this connection's read floor for the shard
  // (monotone; answered inline).
  static bool MinSeq(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                     Args& args) {
    uint32_t idx = 0;
    uint64_t mseq = 0;
    if (!ParseShard(s, args[1], &idx)) {
      return ReplyError(conn, seq,
                        "MINSEQ expects a shard index and a sequence number");
    }
    if (!ParseU64(args[2], &mseq)) {
      return ReplyError(conn, seq,
                        "MINSEQ seq must be a decimal sequence number");
    }
    conn.RaiseMinSeq(idx, mseq);
    return ReplySimple(conn, seq, "OK");
  }

  // LASTSEQ <shard> runs as a singleton control batch on the shard worker
  // and replies the sealed watermark — on a primary that covers every write
  // the connection pipelined before it, which is exactly the token a client
  // needs for read-your-writes on a replica.
  static bool LastSeq(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                      Args& args) {
    uint32_t idx = 0;
    if (!ParseShard(s, args[1], &idx)) {
      return ReplyError(conn, seq, "LASTSEQ expects a shard index");
    }
    Request req;
    req.op = Request::Op::kLastSeq;
    return SubmitControl(s, lp, conn, seq, idx, std::move(req));
  }

  // ---- Replication plane (DESIGN.md §8) -------------------------------------

  // REPLSYNC <shard> <from> [nshards [epoch]]: the optional arguments let
  // the replica prove its configuration matches before the connection
  // becomes a one-way record feed. A mismatch is a hard, explicit
  // -BADCONFIG — a replica with a different shard count would route keys
  // to the wrong shards, and a different config epoch means the two nodes
  // disagree about slot ownership; silently streaming would corrupt it.
  //
  // REPLDIFF <shard> <from> <digests> [nshards [epoch]] (DESIGN.md §11)
  // is REPLSYNC plus proof: <digests> carries the follower's per-segment
  // CRC digests, verified against the retained log before the stream
  // starts. Divergence answers -DIFFBASE (take a REPLSNAP) instead of
  // silently feeding records onto mismatched history.
  //
  // REPLSNAP <shard> answers the shard's snapshot.
  template <Request::Op kOp>
  static bool Repl(Server& s, Loop& lp, Conn& conn, uint64_t seq, Args& args) {
    const std::string& cmd = args[0];
    uint32_t idx = 0;
    if (!ParseShard(s, args[1], &idx)) {
      return ReplyError(conn, seq, cmd + " shard index out of range");
    }
    Request req;
    req.op = kOp;
    if constexpr (kOp != Request::Op::kReplSnap) {
      constexpr size_t opt = kOp == Request::Op::kReplDiff ? 4 : 3;
      if (!ParseU64(args[2], &req.repl_seq) || req.repl_seq == 0) {
        return ReplyError(conn, seq, cmd + " from-seq must be >= 1");
      }
      if (args.size() >= opt + 1) {
        uint32_t nshards = 0;
        if (!ParseU32(args[opt], &nshards)) {
          return ReplyError(conn, seq, cmd + " nshards must be decimal");
        }
        if (nshards != s.shards_.size()) {
          return ReplyCode(conn, seq,
                           "BADCONFIG shard count mismatch: primary has " +
                               std::to_string(s.shards_.size()) +
                               " shards, replica has " +
                               std::to_string(nshards));
        }
      }
      if (args.size() == opt + 2) {
        uint64_t epoch = 0;
        if (!ParseU64(args[opt + 1], &epoch)) {
          return ReplyError(conn, seq, cmd + " epoch must be decimal");
        }
        const uint64_t mine = s.cluster_ != nullptr ? s.cluster_->epoch() : 0;
        if (epoch != mine) {
          return ReplyCode(conn, seq,
                           "BADCONFIG config epoch mismatch: primary at " +
                               std::to_string(mine) + ", replica at " +
                               std::to_string(epoch));
        }
      }
      if constexpr (kOp == Request::Op::kReplDiff) {
        req.value = std::move(args[3]);  // the digest frame
      }
    }
    return SubmitControl(s, lp, conn, seq, idx, std::move(req));
  }

  // Ack frame from a REPLSYNC subscriber: REPLACK <shard> <seq> certifies
  // that the replica's log is durable through <seq>. One-way, so it neither
  // occupies the reorder buffer nor corrupts the stream framing the
  // follower reads.
  static bool ReplAck(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                      Args& args) {
    uint32_t idx = 0;
    uint64_t acked = 0;
    if (!ParseShard(s, args[1], &idx) || !ParseU64(args[2], &acked)) {
      return false;  // malformed ack: drop the stream connection
    }
    s.shards_[idx]->Ack(conn.id, acked);
    return true;
  }

  static bool Promote(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                      Args& args) {
    // Quiesce the pull side first: joins every pull thread, so no kApply
    // can land after the audit below starts.
    if (s.repl_client_ != nullptr) {
      s.repl_client_->Stop();
    }
    // Resolve staged cross-shard txns against the mirrored decision records
    // before the audit/flip: the resolution requests queue ahead of each
    // shard's kPromote, so a txn whose decision reached this replica commits
    // and the rest abort — never a silent partial apply.
    s.ResolveCrossShardTxns(lp);
    const auto multi = Join(conn, static_cast<uint32_t>(s.shards_.size()));
    // Two-phase: each shard only audits; the join flips this whole list
    // writable iff every audit passed (see MultiOp::promote_shards).
    multi->promote_shards.reserve(s.shards_.size());
    for (auto& sh : s.shards_) {
      multi->promote_shards.push_back(sh.get());
    }
    for (uint32_t i = 0; i < s.shards_.size(); ++i) {
      Request req;
      req.op = Request::Op::kPromote;
      SubmitPart(s, lp, conn, seq, multi, i, std::move(req));
    }
    return true;
  }

  // Fuzzy checkpoint over every shard (DESIGN.md §11). The runner drives
  // the walk + finalize from its own thread and posts the reply through
  // the completion sink when the pass ends — the loop never blocks.
  static bool Ckpt(Server& s, Loop& lp, Conn& conn, uint64_t seq, Args& args) {
    if (!s.opts_.shard.repl_log) {
      return ReplyError(conn, seq, "CKPT requires the replication log");
    }
    ++conn.inflight;
    if (!s.ckpt_runner_->Trigger(conn.id, seq)) {
      --conn.inflight;
      return ReplyCode(conn, seq, "BUSY checkpoint already running");
    }
    return true;
  }

  // ---- Cluster plane (DESIGN.md §10) ----------------------------------------

  static bool Asking(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                     Args& args) {
    conn.asking = true;
    return ReplySimple(conn, seq, "OK");
  }

  // CLUSTER MEET / SLOTS / SETSLOT / INFO admin family.
  static bool Cluster(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                      Args& args) {
    const std::string& sub = args[1];
    if (EqualsNoCase(sub, "MEET")) {
      // CLUSTER MEET <index> <host:port> — register a peer in the node table.
      uint32_t idx = 0;
      if (args.size() != 4 || !ParseU32(args[2], &idx)) {
        return ReplyError(conn, seq, "CLUSTER MEET expects index host:port");
      }
      std::string err;
      if (!s.cluster_->Meet(idx, args[3], &err)) {
        return ReplyError(conn, seq, "CLUSTER MEET: " + err);
      }
      return ReplySimple(conn, seq, "OK");
    }
    if (EqualsNoCase(sub, "SLOTS")) {
      // One bulk "lo hi host:port" per contiguous owned run — the client's
      // slot-cache bootstrap.
      std::vector<std::string> runs;
      uint16_t run_owner = cluster::kNoOwner;
      uint32_t run_lo = 0;
      const auto flush = [&](uint32_t end_exclusive) {
        if (run_owner == cluster::kNoOwner) {
          return;
        }
        const std::string addr = s.cluster_->NodeAddr(run_owner);
        if (!addr.empty()) {
          runs.push_back(std::to_string(run_lo) + " " +
                         std::to_string(end_exclusive - 1) + " " + addr);
        }
      };
      for (uint32_t slot = 0; slot < cluster::kNumSlots; ++slot) {
        const uint16_t o = s.cluster_->OwnerOf(static_cast<uint16_t>(slot));
        if (o != run_owner) {
          flush(slot);
          run_owner = o;
          run_lo = slot;
        }
      }
      flush(cluster::kNumSlots);
      std::string r;
      AppendArrayHeader(&r, runs.size());
      for (const std::string& run : runs) {
        AppendBulk(&r, run);
      }
      conn.Complete(seq, std::move(r));
      return true;
    }
    if (EqualsNoCase(sub, "SETSLOT")) {
      if (args.size() < 3) {
        return ReplyError(conn, seq,
                          "CLUSTER SETSLOT expects ASSIGN or MIGRATE");
      }
      const std::string& verb = args[2];
      uint32_t lo = 0, hi = 0, node = 0;
      if (args.size() < 6 || !ParseU32(args[3], &lo) ||
          !ParseU32(args[4], &hi) || !ParseU32(args[5], &node)) {
        return ReplyError(conn, seq,
                          "CLUSTER SETSLOT " + verb + " expects lo hi node");
      }
      if (EqualsNoCase(verb, "ASSIGN")) {
        // Static assignment (bootstrap / tests): rewrite the range's owner
        // words and bump the epoch. No data moves.
        std::string err;
        if (!s.cluster_->AssignRange(lo, hi, node, &err)) {
          return ReplyError(conn, seq, "CLUSTER SETSLOT ASSIGN: " + err);
        }
        return ReplySimple(conn, seq, "OK");
      }
      if (EqualsNoCase(verb, "MIGRATE")) {
        // Live migration: spawns the Migrator thread; progress via CLUSTER
        // INFO. The optional throttle widens the crash window for CI.
        cluster::MigrateOptions mo;
        mo.lo = lo;
        mo.hi = hi;
        mo.peer = node;
        if (args.size() >= 7) {
          uint32_t throttle = 0;
          if (!ParseU32(args[6], &throttle)) {
            return ReplyError(conn, seq,
                              "CLUSTER SETSLOT MIGRATE: bad throttle_ms");
          }
          mo.throttle_ms = throttle;
        }
        std::string err;
        if (!s.migrator_->Start(mo, &err)) {
          return ReplyError(conn, seq, "CLUSTER SETSLOT MIGRATE: " + err);
        }
        return ReplySimple(conn, seq, "OK");
      }
      return ReplyError(conn, seq, "CLUSTER SETSLOT expects ASSIGN or MIGRATE");
    }
    if (EqualsNoCase(sub, "INFO")) {
      std::string text = s.cluster_->Describe();
      text += "migrator:" + s.migrator_->status() + "\n";
      uint32_t lo = 0, hi = 0, peer = 0;
      if (s.cluster_->mig_state() != cluster::MigState::kNone) {
        s.cluster_->MigRange(&lo, &hi, &peer);
        uint64_t residual = 0;
        for (const auto& sh : s.shards_) {
          residual += sh->KeysInSlotRange(lo, hi);
        }
        text += "keys_in_mig_range:" + std::to_string(residual) + "\n";
      }
      std::string r;
      AppendBulk(&r, text);
      conn.Complete(seq, std::move(r));
      return true;
    }
    return ReplyError(conn, seq,
                      "unknown CLUSTER subcommand '" + args[1] + "'");
  }

  // The destination side of a migration: MIGSTART / MIGAPPLY / MIGCOMMIT /
  // MIGABORT, sent by a peer's Migrator, never by ordinary clients.
  static bool MigStart(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                       Args& args) {
    uint32_t lo = 0, hi = 0, src = 0;
    uint64_t src_epoch = 0;
    if (!ParseU32(args[1], &lo) || !ParseU32(args[2], &hi) ||
        !ParseU32(args[3], &src) || !ParseU64(args[4], &src_epoch)) {
      return ReplyError(conn, seq, "MIGSTART expects lo hi src-node src-epoch");
    }
    if (lo > hi || hi >= cluster::kNumSlots) {
      return ReplyError(conn, seq, "MIGSTART: bad slot range");
    }
    // "+OWNED" short-circuit: a previous drive of this migration durably
    // committed here; the source learns it can only roll forward.
    if (s.cluster_->OwnsRange(lo, hi)) {
      return ReplySimple(conn, seq, "OWNED");
    }
    // Config validation — explicit -BADCONFIG, never a silent accept: the
    // source must be a node this table knows, and no slot of the range may be
    // owned by a third node (the two tables would disagree about ownership).
    if (src >= cluster::ClusterMetaRoot::kMaxNodes ||
        s.cluster_->NodeAddr(src).empty()) {
      return ReplyCode(conn, seq,
                       "BADCONFIG unknown source node " + std::to_string(src));
    }
    for (uint32_t slot = lo; slot <= hi; ++slot) {
      const uint16_t o = s.cluster_->OwnerOf(static_cast<uint16_t>(slot));
      if (o != cluster::kNoOwner && o != src && o != s.cluster_->self()) {
        return ReplyCode(conn, seq,
                         "BADCONFIG slot " + std::to_string(slot) +
                             " is owned by node " + std::to_string(o) +
                             ", not the migration source");
      }
    }
    std::string err;
    if (!s.cluster_->StartImporting(lo, hi, src, &err)) {
      return ReplyError(conn, seq, "MIGSTART: " + err);
    }
    // Purge the range on every shard before the copy streams in: a re-driven
    // migration must not leave keys a previous partial copy wrote and the
    // source has since deleted. The joined reply is +IMPORTING.
    const auto multi = Join(conn, static_cast<uint32_t>(s.shards_.size()));
    multi->ok_reply = "IMPORTING";
    for (uint32_t i = 0; i < s.shards_.size(); ++i) {
      Request req;
      req.op = Request::Op::kSlotPurge;
      req.slot_lo = static_cast<uint16_t>(lo);
      req.slot_hi = static_cast<uint16_t>(hi);
      SubmitPart(s, lp, conn, seq, multi, i, std::move(req));
    }
    return true;
  }

  static bool MigApply(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                       Args& args) {
    if (s.cluster_->mig_state() != cluster::MigState::kImporting) {
      return ReplyError(conn, seq, "MIGAPPLY: no import in progress");
    }
    std::vector<repl::ReplOp> ops;
    if (!repl::DecodeBatch(args[1], &ops)) {
      return ReplyError(conn, seq, "MIGAPPLY: bad batch frame");
    }
    if (ops.empty()) {
      return ReplySimple(conn, seq, "OK");
    }
    // Fan the ops out to their owning shards (the slot hash places keys on
    // nodes; the shard hash places them on workers — decorrelated, so one
    // migration chunk touches many shards).
    std::vector<std::vector<repl::ReplOp>> per_shard(s.shards_.size());
    for (repl::ReplOp& op : ops) {
      per_shard[ShardFor(op.key, static_cast<uint32_t>(s.shards_.size()))]
          .push_back(std::move(op));
    }
    uint32_t participants = 0;
    for (const auto& v : per_shard) {
      participants += v.empty() ? 0 : 1;
    }
    const auto multi = Join(conn, participants);
    for (uint32_t i = 0; i < per_shard.size(); ++i) {
      if (per_shard[i].empty()) {
        continue;
      }
      Request req;
      req.op = Request::Op::kMigApply;
      req.mig_ops = std::move(per_shard[i]);
      SubmitPart(s, lp, conn, seq, multi, i, std::move(req));
    }
    return true;
  }

  // THE commit point of a migration: the importing range's owner words
  // flip to this node, durably, before the +OK goes back to the source.
  static bool MigCommit(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                        Args& args) {
    uint32_t lo = 0, hi = 0;
    uint64_t epoch = 0;
    if (!ParseU32(args[1], &lo) || !ParseU32(args[2], &hi) ||
        !ParseU64(args[3], &epoch)) {
      return ReplyError(conn, seq, "MIGCOMMIT expects lo hi epoch");
    }
    std::string err;
    if (!s.cluster_->CommitImport(lo, hi, epoch, &err)) {
      return ReplyError(conn, seq, "MIGCOMMIT: " + err);
    }
    return ReplySimple(conn, seq, "OK");
  }

  // Best-effort from a rolling-back source; always +OK — an import that
  // already ended (or never started) needs nothing. The keys a dead import
  // copied are unserved (owners still name the source) and the next
  // MIGSTART purges the range before copying again.
  static bool MigAbort(Server& s, Loop& lp, Conn& conn, uint64_t seq,
                       Args& args) {
    std::string err;
    s.cluster_->AbortImport(&err);
    return ReplySimple(conn, seq, "OK");
  }
};

std::span<const Server::Command> Server::Commands() {
  using H = Handlers;
  using Op = Request::Op;
  using enum Command::Flag;
  // name, min args, max args (0 = no limit), flags, handler
  static constexpr Command kTable[] = {
      {"GET", 2, 2, kKeyOp | kQueued, &H::KeyOp<Op::kGet>},
      {"SET", 3, 3, kKeyOp | kQueued, &H::KeyOp<Op::kSet>},
      {"DEL", 2, 2, kKeyOp | kQueued, &H::KeyOp<Op::kDel>},
      {"TOUCH", 2, 2, kKeyOp, &H::KeyOp<Op::kTouch>},
      {"HSET", 4, 4, kKeyOp, &H::KeyOp<Op::kHset>},
      {"MSET", 3, 0, kPairs, &H::Mset},
      {"PING", 1, 0, 0, &H::Ping},
      {"MULTI", 1, 0, kTxnControl, &H::Multi},
      {"EXEC", 1, 1, kTxnControl, &H::Exec},
      {"DISCARD", 1, 0, kTxnControl, &H::Discard},
      {"MINSEQ", 3, 3, 0, &H::MinSeq},
      {"LASTSEQ", 2, 2, 0, &H::LastSeq},
      {"REPLACK", 3, 3, kOneWay, &H::ReplAck},
      {"REPLSYNC", 3, 5, 0, &H::Repl<Op::kReplSync>},
      {"REPLDIFF", 4, 6, 0, &H::Repl<Op::kReplDiff>},
      {"REPLSNAP", 2, 2, 0, &H::Repl<Op::kReplSnap>},
      {"PROMOTE", 1, 1, 0, &H::Promote},
      {"CKPT", 1, 1, 0, &H::Ckpt},
      {"STATS", 1, 0, 0, &H::Stats},
      {"SHUTDOWN", 1, 0, 0, &H::Shutdown},
      {"ASKING", 1, 0, kClusterOnly, &H::Asking},
      {"CLUSTER", 2, 0, kClusterOnly, &H::Cluster},
      {"MIGSTART", 5, 5, kClusterOnly, &H::MigStart},
      {"MIGAPPLY", 2, 2, kClusterOnly, &H::MigApply},
      {"MIGCOMMIT", 4, 4, kClusterOnly, &H::MigCommit},
      {"MIGABORT", 1, 0, kClusterOnly, &H::MigAbort},
  };
  return kTable;
}

bool Server::Dispatch(Loop& lp, Conn& conn, std::vector<std::string>& args) {
  const Command* cmd = nullptr;
  for (const Command& c : Commands()) {
    if (EqualsNoCase(c.name, args[0])) {
      cmd = &c;
      break;
    }
  }
  const uint8_t flags = cmd != nullptr ? cmd->flags : 0;
  if (!(flags & Command::kKeyOp)) {
    // Anything else may need to order after the buffered runs (LASTSEQ,
    // EXEC, MSET, SHUTDOWN, ...): hand them to the shards first.
    SubmitRuns(lp, conn);
  }
  const size_t argc = args.size();
  const bool arity_ok =
      cmd != nullptr && argc >= cmd->min_args &&
      (cmd->max_args == 0 || argc <= cmd->max_args) &&
      (!(flags & Command::kPairs) || argc % 2 == 1);
  if (flags & Command::kOneWay) {
    // No seq and no reply. A frame it cannot parse drops the connection.
    if (arity_ok && cmd->handler(*this, lp, conn, 0, args)) {
      return true;
    }
    Bump(lp.counters.protocol_errors);
    return false;
  }
  const uint64_t seq = conn.next_seq++;
  if (cmd != nullptr) {
    args[0] = cmd->name;  // canonical case: a short-string copy
  }
  if (conn.in_multi && !(flags & (Command::kQueued | Command::kTxnControl))) {
    // Only the queued data ops and the txn controls run inside MULTI; any
    // other command dirties the txn, so EXEC refuses it with -TXNABORT
    // rather than executing a half-valid batch.
    conn.txn_dirty = true;
    return ReplyError(conn, seq, "command not allowed in MULTI: " + args[0]);
  }
  if (cmd == nullptr) {
    return ReplyError(conn, seq, "unknown command '" + args[0] + "'");
  }
  if ((flags & Command::kClusterOnly) && cluster_ == nullptr) {
    return ReplyError(conn, seq, "cluster support is disabled");
  }
  if (!arity_ok) {
    // A queued op with a bad arity dirties the txn; EXEC's does not.
    conn.txn_dirty |= conn.in_multi && (flags & Command::kQueued);
    return ReplyError(conn, seq, "wrong number of arguments for " + args[0]);
  }
  return cmd->handler(*this, lp, conn, seq, args);
}

void Server::JoinPart(Loop& lp, Completion& c) {
  const bool failed = !c.reply.empty() && c.reply[0] == '-';
  if (c.txn != nullptr) {
    txn::TxnState& t = *c.txn;
    if (c.reply.starts_with("-WAITTIMEOUT ")) {
      t.wait_timeout = true;  // the part's record sealed: still committing
    } else if (failed && t.abort_reason.empty()) {
      t.abort_reason = c.reply.substr(1, c.reply.size() - 3);  // -<reason>\r\n
    }
    if (--t.remaining == 0) {
      AdvanceTxn(lp, c.txn);
    }
    return;
  }
  MultiOp& m = *c.multi;
  if (failed && m.error.empty()) {
    m.error = std::move(c.reply);
  }
  if (--m.remaining > 0) {
    return;
  }
  std::string r;
  if (m.error.empty()) {
    // PROMOTE phase 2: every shard's audit passed — flip the whole fleet
    // writable at once (all-or-nothing), even if the client is gone.
    for (Shard* sh : m.promote_shards) {
      sh->MakeWritable();
    }
    AppendSimple(&r, m.ok_reply);
  } else {
    r = std::move(m.error);
  }
  AnswerJoin(lp, c.conn_id, c.seq, std::move(r));
}

void Server::AnswerJoin(Loop& lp, uint64_t conn_id, uint64_t seq,
                        std::string reply) {
  const auto it = lp.conns.find(conn_id);
  if (it == lp.conns.end()) {
    return;  // client went away; the join's outcome stands regardless
  }
  Conn& conn = *it->second;
  JNVM_DCHECK(conn.inflight > 0);
  --conn.inflight;
  if (conn.Complete(seq, std::move(reply)) && !EnforceOutCap(lp, conn)) {
    HandleWritable(lp, conn);
  }
}

void Server::AdvanceTxn(Loop& lp, const std::shared_ptr<txn::TxnState>& t) {
  if (!t->abort_reason.empty()) {
    // Abort is always explicit: drop whatever staged with abort-marker
    // records (recovery and replicas observe the same outcome), then tell
    // the client. Parts that never staged (has_writes false) need nothing.
    const std::string idkey = txn::TxnIdKey(t->id);
    for (const txn::TxnPart& p : t->parts) {
      if (!p.has_writes) {
        continue;
      }
      Request req;
      req.op = Request::Op::kTxnAbortMark;
      req.key = idkey;
      SubmitUnordered(lp, p.shard, std::move(req));
    }
    DeliverTxnReply(lp, t);
    return;
  }
  if (t->phase == txn::TxnState::kPhasePrepare) {
    if (t->single_shard) {
      DeliverTxnReply(lp, t);  // the kTxnExec record was the commit
      return;
    }
    const txn::Decision d = t->BuildDecision();
    if (d.parts.empty()) {
      DeliverTxnReply(lp, t);  // pure-read cross-shard txn: nothing to commit
      return;
    }
    // Phase 2: seal the decision record in the coordinator's log — the
    // durability point of the whole txn.
    t->phase = txn::TxnState::kPhaseDecide;
    t->remaining = 1;
    Request req;
    req.op = Request::Op::kTxnDecide;
    req.key = txn::TxnIdKey(t->id);
    txn::EncodeDecision(d, &req.value);
    req.conn_id = t->conn_id;
    req.seq = t->reply_seq;
    req.txn = t;
    for (uint32_t i = 0; i < t->parts.size(); ++i) {
      if (t->parts[i].shard == t->coordinator) {
        req.txn_part = i;
        break;
      }
    }
    SubmitUnordered(lp, t->coordinator, std::move(req));
    return;
  }
  // Phase 2 joined: the decision is sealed (and WAIT-K acked or timed out).
  // Phase 3 fans commit markers to the other write participants — fire and
  // forget, because a crash here is repaired from the decision record at
  // recovery — then the EXEC answers.
  t->phase = txn::TxnState::kPhaseApply;
  const std::string idkey = txn::TxnIdKey(t->id);
  for (const txn::TxnPart& p : t->parts) {
    if (!p.has_writes || p.shard == t->coordinator) {
      continue;
    }
    Request req;
    req.op = Request::Op::kTxnApply;
    req.key = idkey;
    SubmitUnordered(lp, p.shard, std::move(req));
  }
  DeliverTxnReply(lp, t);
}

void Server::DeliverTxnReply(Loop& lp, const std::shared_ptr<txn::TxnState>& t) {
  std::string r;
  if (!t->abort_reason.empty()) {
    AppendErrorCode(&r, "TXNABORT " + t->abort_reason);
  } else if (t->wait_timeout) {
    // Committed locally; the WAIT-K replication quorum missed the deadline.
    // Same degraded contract as a plain write's -WAITTIMEOUT.
    AppendErrorCode(&r,
                    "WAITTIMEOUT txn committed locally; replication ack "
                    "quorum not reached");
  } else {
    AppendArrayHeader(&r, t->nops);
    for (const std::string& frag : t->replies) {
      r += frag;
    }
  }
  AnswerJoin(lp, t->conn_id, t->reply_seq, std::move(r));
}

void Server::SubmitUnordered(Loop& lp, uint32_t shard_idx, Request&& req) {
  // Never blocks the event loop and never read-pauses a connection. Full
  // queues park the request here and retry on loop ticks / completion
  // drains; a stopping shard fails a join part through JoinPart, with the
  // reply the shard would have given, so the join still resolves.
  switch (shards_[shard_idx]->TrySubmit(std::move(req))) {
    case Shard::SubmitResult::kOk:
      return;
    case Shard::SubmitResult::kFull:
      lp.pending.emplace_back(shard_idx, std::move(req));
      return;
    case Shard::SubmitResult::kStopped:
      if (req.multi != nullptr || req.txn != nullptr) {
        Completion c;
        c.conn_id = req.conn_id;
        c.seq = req.seq;
        // A txn part's error becomes the EXEC's abort reason.
        AppendErrorCode(&c.reply, req.txn != nullptr
                                      ? "server shutting down"
                                      : "ERR server shutting down");
        c.multi = std::move(req.multi);
        c.txn = std::move(req.txn);
        JoinPart(lp, c);
      }
      return;
  }
}

void Server::RetryPending(Loop& lp) {
  // One pass over the queue; still-full shards re-park at the back.
  size_t n = lp.pending.size();
  while (n-- > 0 && !lp.pending.empty()) {
    auto item = std::move(lp.pending.front());
    lp.pending.pop_front();
    SubmitUnordered(lp, item.first, std::move(item.second));
  }
}

void Server::ResolveCrossShardTxns(Loop& lp) {
  // Recovery matrix (DESIGN.md §9): a prepared-but-undecided txn commits
  // iff its coordinator's log holds the sealed decision record; otherwise
  // it aborts — both via explicit records, applied idempotently. Decisions
  // whose participant provably never received its prepare (gapless logs)
  // yield repair actions replaying the writes from the decision itself.
  // Runs single-threaded at startup (loop 0, before the pool spawns) or on
  // the loop dispatching PROMOTE.
  std::vector<txn::ShardTxnView> views;
  views.reserve(shards_.size());
  for (const auto& sh : shards_) {
    views.push_back(sh->TxnView());
  }
  for (const txn::ResolutionAction& a : txn::PlanResolution(views)) {
    Request req;
    req.key = txn::TxnIdKey(a.id);
    if (!a.commit) {
      req.op = Request::Op::kTxnAbortMark;
    } else if (a.repair) {
      req.op = Request::Op::kTxnRepair;
      req.field = a.coordinator;
      req.value = a.repair_writes_frame;
    } else {
      req.op = Request::Op::kTxnApply;
    }
    SubmitUnordered(lp, a.shard, std::move(req));
  }
}

void Server::DrainCompletions(Loop& lp) {
  // `drained` is empty here and keeps its capacity; the swap hands it to
  // the shards as the next `completions`.
  {
    std::lock_guard<std::mutex> lk(lp.mu);
    lp.drained.swap(lp.completions);
  }
  // Flushes are deferred to the end of the round: every completion a
  // connection receives in this drain lands in its chunk queue first, then
  // one writev ships them all — N sealed batches fanning out to a
  // subscriber cost one syscall, not N.
  const auto mark_dirty = [&lp](Conn& conn) {
    if (!conn.flush_pending) {
      conn.flush_pending = true;
      lp.dirty.push_back(conn.id);
    }
  };
  for (Completion& c : lp.drained) {
    if (c.multi != nullptr || c.txn != nullptr) {
      // A join part counts down regardless of client liveness: a txn's
      // decision and commit markers must still seal, and a PROMOTE flip,
      // when the issuing connection is gone.
      JoinPart(lp, c);
      continue;
    }
    const auto it = lp.conns.find(c.conn_id);
    if (it == lp.conns.end()) {
      continue;  // client went away before its reply
    }
    Conn& conn = *it->second;
    if (c.stream) {
      // Replication-stream frame: not a command reply, so it neither holds
      // an inflight slot nor passes the reorder buffer — by subscription
      // time every earlier reply on this connection has flushed. The frame
      // is enqueued by reference (one serialization shared by every
      // subscriber); the cap still counts its full logical size, so a
      // subscriber that stops reading is evicted at the same backlog as
      // with private copies.
      Bump(lp.counters.frame_refs);
      Bump(lp.counters.frame_bytes, c.frame->size());
      conn.AppendFrame(std::move(c.frame));
      if (!EnforceOutCap(lp, conn)) {
        mark_dirty(conn);
      }
      continue;
    }
    JNVM_DCHECK(conn.inflight > 0);
    --conn.inflight;
    if (conn.Complete(c.seq, std::move(c.reply))) {
      if (!EnforceOutCap(lp, conn)) {
        mark_dirty(conn);
      }
    }
  }
  lp.drained.clear();
  FlushDirty(lp, lp.dirty);
  lp.dirty.clear();
  // Completions mean shard queues drained: stalled submissions may fit now.
  // Both buffers are empty again before RetryStalled, whose ProcessInput
  // can reach DoShutdown's own drain.
  RetryStalled(lp);
  RetryPending(lp);
}

void Server::FlushDirty(Loop& lp, const std::vector<uint64_t>& dirty) {
  for (const uint64_t id : dirty) {
    const auto it = lp.conns.find(id);
    if (it == lp.conns.end()) {
      continue;  // evicted earlier in the same round
    }
    it->second->flush_pending = false;
    HandleWritable(lp, *it->second);
  }
}

bool Server::EnforceOutCap(Loop& lp, Conn& conn) {
  if (conn.pending_out_bytes() <= opts_.max_conn_out_bytes) {
    return false;
  }
  Bump(lp.counters.out_overflows);
  CloseConn(lp, conn.id);
  return true;
}

std::string Server::BuildStats() {
  std::string out;
  char line[512];
  // Counters are per-loop (each slot written by one thread, read here
  // relaxed): the aggregate can lag in-flight operations but never tears
  // or loses increments under --loops > 1.
  uint64_t conns = 0, accepted = 0, commands = 0, proto_errs = 0;
  uint64_t in_ovf = 0, out_ovf = 0, fsys = 0, fbytes = 0, fchunks = 0;
  uint64_t frefs = 0, fbytes_ref = 0, moved = 0;
  for (const auto& l : loops_) {
    const LoopCounters& c = l->counters;
    conns += Rd(c.open_conns);
    accepted += Rd(c.accepted);
    commands += Rd(c.commands);
    proto_errs += Rd(c.protocol_errors);
    in_ovf += Rd(c.in_overflows);
    out_ovf += Rd(c.out_overflows);
    fsys += Rd(c.flush_syscalls);
    fbytes += Rd(c.flushed_bytes);
    fchunks += Rd(c.flush_chunks);
    frefs += Rd(c.frame_refs);
    fbytes_ref += Rd(c.frame_bytes);
    moved += Rd(c.moved_replies);
  }
  std::snprintf(line, sizeof(line),
                "server: shards=%zu batch=%u loops=%zu "
                "conns=%llu accepted=%llu commands=%llu protocol_errors=%llu "
                "in_overflows=%llu out_overflows=%llu\n",
                shards_.size(), opts_.shard.batch, loops_.size(),
                static_cast<unsigned long long>(conns),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(commands),
                static_cast<unsigned long long>(proto_errs),
                static_cast<unsigned long long>(in_ovf),
                static_cast<unsigned long long>(out_ovf));
  out += line;
  // chunks_per_flush ×100 (two implied decimals) keeps the dump integer-only.
  const uint64_t cpf100 = fsys == 0 ? 0 : fchunks * 100 / fsys;
  std::snprintf(line, sizeof(line),
                "output: flush_syscalls=%llu flushed_bytes=%llu "
                "chunks_per_flush=%llu.%02llu "
                "frame_refs=%llu frame_bytes=%llu\n",
                static_cast<unsigned long long>(fsys),
                static_cast<unsigned long long>(fbytes),
                static_cast<unsigned long long>(cpf100 / 100),
                static_cast<unsigned long long>(cpf100 % 100),
                static_cast<unsigned long long>(frefs),
                static_cast<unsigned long long>(fbytes_ref));
  out += line;
  uint64_t records = 0, elided = 0, puts = 0, gets = 0, updates = 0, dels = 0;
  uint64_t txn_prep = 0, txn_comm = 0, txn_abrt = 0, txn_infl = 0, txn_dec = 0;
  uint64_t ask_replies = 0, mig_applied = 0;
  for (const auto& sh : shards_) {
    const ShardStats s = sh->Stats();
    ask_replies += s.ask_replies;
    mig_applied += s.mig_applied_ops;
    records += s.records;
    elided += s.elided_fences;
    puts += s.ops.puts;
    gets += s.ops.gets;
    updates += s.ops.updates;
    dels += s.ops.deletes;
    txn_prep += s.txn.prepared;
    txn_comm += s.txn.committed;
    txn_abrt += s.txn.aborted;
    txn_infl += s.txn.inflight;
    txn_dec += s.txn.decision_records;
    std::snprintf(
        line, sizeof(line),
        "shard%u: records=%llu queue=%llu batches=%llu max_batch=%llu "
        "elided_fences=%llu puts=%llu gets=%llu misses=%llu updates=%llu "
        "deletes=%llu bytes_w=%llu bytes_r=%llu psyncs=%llu pfences=%llu\n",
        sh->index(), static_cast<unsigned long long>(s.records),
        static_cast<unsigned long long>(s.queue_depth),
        static_cast<unsigned long long>(s.batches),
        static_cast<unsigned long long>(s.max_batch),
        static_cast<unsigned long long>(s.elided_fences),
        static_cast<unsigned long long>(s.ops.puts),
        static_cast<unsigned long long>(s.ops.gets),
        static_cast<unsigned long long>(s.ops.get_misses),
        static_cast<unsigned long long>(s.ops.updates),
        static_cast<unsigned long long>(s.ops.deletes),
        static_cast<unsigned long long>(s.ops.bytes_written),
        static_cast<unsigned long long>(s.ops.bytes_read),
        static_cast<unsigned long long>(s.device.psyncs),
        static_cast<unsigned long long>(s.device.pfences));
    out += line;
    if (s.repl.enabled) {
      std::snprintf(
          line, sizeof(line),
          "repl%u: role=%s sealed=%llu start=%llu applied=%llu "
          "log_bytes=%llu log_segments=%llu subs=%llu wait_acks=%u "
          "acked=%llu parked=%llu wait_timeouts=%llu stream_frames=%llu "
          "stream_frame_bytes=%llu catchup_records=%llu catchup_bytes=%llu "
          "snap_bytes=%llu apply_batch=%u parked_reads=%llu "
          "released_reads=%llu stale_reads=%llu%s\n",
          sh->index(), s.repl.follower ? "replica" : "primary",
          static_cast<unsigned long long>(s.repl.sealed_seq),
          static_cast<unsigned long long>(s.repl.start_seq),
          static_cast<unsigned long long>(s.repl.applied_batches),
          static_cast<unsigned long long>(s.repl.log_bytes),
          static_cast<unsigned long long>(s.repl.log_segments),
          static_cast<unsigned long long>(s.repl.subscribers),
          s.repl.wait_acks,
          static_cast<unsigned long long>(s.repl.acked_seq),
          static_cast<unsigned long long>(s.repl.parked_batches),
          static_cast<unsigned long long>(s.repl.wait_timeouts),
          static_cast<unsigned long long>(s.repl.stream_frames),
          static_cast<unsigned long long>(s.repl.stream_frame_bytes),
          static_cast<unsigned long long>(s.repl.catchup_records),
          static_cast<unsigned long long>(s.repl.catchup_bytes),
          static_cast<unsigned long long>(s.repl.snap_bytes),
          s.repl.apply_batch,
          static_cast<unsigned long long>(s.repl.parked_reads),
          static_cast<unsigned long long>(s.repl.released_reads),
          static_cast<unsigned long long>(s.repl.stale_reads),
          s.repl.needs_snapshot ? " needs_snapshot" : "");
      out += line;
      std::snprintf(
          line, sizeof(line),
          "ckpt%u: count=%llu begin=%llu end=%llu walked_keys=%llu "
          "walked_bytes=%llu truncated_segs=%llu replayed=%llu "
          "retry_later=%llu\n",
          sh->index(), static_cast<unsigned long long>(s.ckpt.count),
          static_cast<unsigned long long>(s.ckpt.begin_seq),
          static_cast<unsigned long long>(s.ckpt.end_seq),
          static_cast<unsigned long long>(s.ckpt.walked_keys),
          static_cast<unsigned long long>(s.ckpt.walked_bytes),
          static_cast<unsigned long long>(s.ckpt.truncated_segments),
          static_cast<unsigned long long>(s.ckpt.replayed_records),
          static_cast<unsigned long long>(s.ckpt.retry_later));
      out += line;
    }
  }
  if (ckpt_runner_ != nullptr && opts_.shard.repl_log) {
    std::snprintf(line, sizeof(line), "ckpt: busy=%d status=%s\n",
                  ckpt_runner_->busy() ? 1 : 0,
                  ckpt_runner_->status().c_str());
    out += line;
  }
  if (repl_client_ != nullptr) {
    const repl::ReplClientStats rs = repl_client_->Stats();
    std::snprintf(line, sizeof(line),
                  "replclient: received=%llu snapshots=%llu resyncs=%llu "
                  "gap_resyncs=%llu bad_configs=%llu diff_resyncs=%llu "
                  "diff_rejected=%llu retry_later=%llu\n",
                  static_cast<unsigned long long>(rs.records_received),
                  static_cast<unsigned long long>(rs.snapshots_installed),
                  static_cast<unsigned long long>(rs.resyncs),
                  static_cast<unsigned long long>(rs.gap_resyncs),
                  static_cast<unsigned long long>(rs.bad_configs),
                  static_cast<unsigned long long>(rs.diff_resyncs),
                  static_cast<unsigned long long>(rs.diff_rejected),
                  static_cast<unsigned long long>(rs.retry_later));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "txn: committed=%llu aborted=%llu prepared=%llu inflight=%llu "
                "decision_records=%llu\n",
                static_cast<unsigned long long>(txn_comm),
                static_cast<unsigned long long>(txn_abrt),
                static_cast<unsigned long long>(txn_prep),
                static_cast<unsigned long long>(txn_infl),
                static_cast<unsigned long long>(txn_dec));
  out += line;
  if (cluster_ != nullptr) {
    std::snprintf(
        line, sizeof(line),
        "cluster: epoch=%llu slots_owned=%llu migrations_in=%llu "
        "migrations_out=%llu moved_replies=%llu ask_replies=%llu "
        "mig_applied_ops=%llu\n",
        static_cast<unsigned long long>(cluster_->epoch()),
        static_cast<unsigned long long>(cluster_->slots_owned()),
        static_cast<unsigned long long>(cluster_->migrations_in()),
        static_cast<unsigned long long>(cluster_->migrations_out()),
        static_cast<unsigned long long>(moved),
        static_cast<unsigned long long>(ask_replies),
        static_cast<unsigned long long>(mig_applied));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total: records=%llu elided_fences=%llu puts=%llu gets=%llu "
                "updates=%llu deletes=%llu\n",
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(elided),
                static_cast<unsigned long long>(puts),
                static_cast<unsigned long long>(gets),
                static_cast<unsigned long long>(updates),
                static_cast<unsigned long long>(dels));
  out += line;
  return out;
}

void Server::DoShutdown(Loop& lp, uint64_t conn_id, uint64_t seq) {
  // Two-phase cross-loop shutdown, coordinated by this loop (the one that
  // dispatched SHUTDOWN or first noticed RequestShutdown; shutdown_claimed_
  // guarantees there is exactly one).
  //
  // Phase 1 — quiesce intake everywhere. Every loop stops accepting and
  // stops reading/parsing client input, then checks in through the barrier
  // below. Only after the last check-in do the shards quiesce: no loop can
  // mint new work while the drain/audit/image-save runs, so a connection on
  // another loop cannot race the image save (the single-loop version got
  // this for free). Loops keep draining completions and flushing replies
  // throughout — in-flight work still resolves.
  shutdown_phase_.store(1, std::memory_order_release);
  StopIntake(lp);
  for (auto& other : loops_) {
    if (other.get() != &lp) {
      WakeLoop(*other);
    }
  }
  {
    std::unique_lock<std::mutex> lk(shutdown_mu_);
    shutdown_cv_.wait(lk, [&] {
      return intake_stopped_loops_ == loops_.size();
    });
  }
  // On a replica, stop the pull loops before draining the shards so no
  // kApply arrives once the quiesce begins.
  if (repl_client_ != nullptr) {
    repl_client_->Stop();
  }

  // Quiesce shards: drains every queued request, joins the workers,
  // Psyncs, audits integrity (I1–I7) and saves the device images.
  shutdown_report_.shards.clear();
  bool ok = true;
  for (auto& sh : shards_) {
    shutdown_report_.shards.push_back(sh->Quiesce());
    ok &= shutdown_report_.shards.back().integrity_ok;
  }
  shutdown_report_.ok = ok;
  // A migration racing the quiesce fails fast (shard Submit refuses once
  // stopping); join its thread before the slot table closes under it.
  if (migrator_ != nullptr) {
    migrator_->Join();
  }
  // Same discipline for a checkpoint pass racing the quiesce: its control
  // batches fail fast once the shards stop; reap the thread here.
  if (ckpt_runner_ != nullptr) {
    ckpt_runner_->Join();
  }
  if (cluster_ != nullptr) {
    cluster_->Close();
  }

  // Deliver the completions the drain produced for THIS loop's conns (the
  // other loops drain their own on their phase-1 ticks), then answer
  // SHUTDOWN itself — its +OK certifies a clean audit and saved images.
  // The issuing connection is pinned to this loop, so the reply is local.
  DrainCompletions(lp);
  const auto it = lp.conns.find(conn_id);
  if (it != lp.conns.end()) {
    std::string r;
    if (ok) {
      AppendSimple(&r, "OK");
    } else {
      size_t nviol = 0;
      for (const ShardReport& rep : shutdown_report_.shards) {
        nviol += rep.violations.size();
      }
      AppendError(&r, "integrity audit failed: " + std::to_string(nviol) +
                          " violation(s)");
    }
    it->second->Complete(seq, std::move(r));
  }

  // Phase 2 — release every loop to run its own exit path: final drain,
  // best-effort flush, close. This loop goes now; the others go on their
  // next wakeup.
  shutdown_phase_.store(2, std::memory_order_release);
  for (auto& other : loops_) {
    if (other.get() != &lp) {
      WakeLoop(*other);
    }
  }
  FinishLoop(lp);
}

void Server::StopIntake(Loop& lp) {
  if (lp.intake_stopped) {
    return;
  }
  lp.intake_stopped = true;
  if (lp.listen_fd >= 0) {
    lp.poller.Forget(lp.listen_fd);
    ::close(lp.listen_fd);
    lp.listen_fd = -1;
  }
  // Stop watching readable on every connection: unread pipelines stay in
  // the kernel buffers. Write interest stays — pending replies still flush.
  for (auto& [id, conn] : lp.conns) {
    lp.poller.Watch(conn->fd, false, conn->WantsWrite());
  }
  // Hand-off fds that raced the stop are closed, not registered.
  {
    std::lock_guard<std::mutex> lk(lp.mu);
    for (const int fd : lp.fd_inbox) {
      ::close(fd);
    }
    lp.fd_inbox.clear();
  }
  {
    std::lock_guard<std::mutex> lk(shutdown_mu_);
    ++intake_stopped_loops_;
  }
  shutdown_cv_.notify_all();
}

void Server::FinishLoop(Loop& lp) {
  if (lp.exiting) {
    return;
  }
  StopIntake(lp);  // no-op when phase 1 already ran here
  lp.exiting = true;
  // The shards are stopped: re-driving stalled and pending work now fails
  // it cleanly (kStopped → FailStalledRequest / JoinPart), so every reply
  // slot resolves before the flush below.
  RetryStalled(lp);
  RetryPending(lp);
  DrainCompletions(lp);
  FlushAllBestEffort(lp);
  while (!lp.conns.empty()) {
    CloseConn(lp, lp.conns.begin()->first);
  }
}

void Server::FlushAllBestEffort(Loop& lp) {
  // Bounded synchronous flush of every connection's pending output (the
  // sockets are non-blocking; wait briefly for writability when stalled).
  struct iovec iov[64];
  for (auto& [id, conn] : lp.conns) {
    int spins = 0;
    while (conn->WantsWrite() && spins < 200) {
      const size_t niov = conn->BuildIovecs(iov, 64);
      const ssize_t n = WritevNoSignal(conn->fd, iov, niov);
      if (n > 0) {
        Bump(lp.counters.flush_syscalls);
        Bump(lp.counters.flushed_bytes, static_cast<uint64_t>(n));
        Bump(lp.counters.flush_chunks, niov);
        conn->ConsumeOut(static_cast<size_t>(n));
        continue;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        break;
      }
      pollfd p{};
      p.fd = conn->fd;
      p.events = POLLOUT;
      ::poll(&p, 1, 10);
      ++spins;
    }
  }
}

}  // namespace jnvm::server
