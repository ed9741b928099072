// Event-loop readiness (DESIGN.md §7): each Server event loop holds one
// Poller, a level-triggered epoll set, and never shares it across threads.
// The server is Linux-only, so epoll is its one readiness path.
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

  Poller();
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // False when epoll_create1 failed (errno says why).
  bool ok() const { return epfd_ >= 0; }

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
  int epfd_ = -1;
  std::unordered_map<int, uint8_t> fds_;  // fd -> interest mask (1=r, 2=w)
};

}  // namespace jnvm::server

#endif  // JNVM_SRC_SERVER_POLLER_H_
