// Event-loop readiness (DESIGN.md §7): each Server event loop holds one
// Poller and never shares it across threads. It is a level-triggered epoll
// set; ServerOptions::force_poll swaps in poll(2) over the same interest
// table, so the e2e suites keep a second readiness path running beside
// epoll.
#ifndef JNVM_SRC_SERVER_POLLER_H_
#define JNVM_SRC_SERVER_POLLER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace jnvm::server {

class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  // `use_poll`: block in poll(2) instead of epoll_wait.
  explicit Poller(bool use_poll = false);
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // False when epoll_create1 failed (errno says why).
  bool ok() const { return use_poll_ || epfd_ >= 0; }

  // Declares interest in `fd`. Level-triggered: a still-readable fd reports
  // readable on the next Wait even if the previous round did not consume
  // it. Read interest is a parameter so a connection under shard
  // backpressure can stop watching readable (read-pause) and let the kernel
  // buffer the client's pipeline. An unchanged interest costs no syscall.
  void Watch(int fd, bool want_read, bool want_write);
  // Drops `fd` from the set; call it before closing the fd.
  void Forget(int fd);
  // Blocks for up to `timeout_ms` and replaces *out with the ready fds (at
  // most 64 per epoll_wait). A signal (EINTR) is retried, not reported.
  void Wait(std::vector<Event>* out, int timeout_ms);

 private:
  const bool use_poll_;
  int epfd_ = -1;
  std::unordered_map<int, uint8_t> fds_;  // fd -> interest mask (1=r, 2=w)
};

}  // namespace jnvm::server

#endif  // JNVM_SRC_SERVER_POLLER_H_
