#include "src/server/poller.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>

namespace jnvm::server {

Poller::Poller() : epfd_(epoll_create1(0)) {}

Poller::~Poller() {
  if (epfd_ >= 0) {
    ::close(epfd_);
  }
}

void Poller::Watch(int fd, bool want_read, bool want_write) {
  const uint8_t mask = (want_read ? 1u : 0u) | (want_write ? 2u : 0u);
  const auto it = fds_.find(fd);
  const bool known = it != fds_.end();
  if (known && it->second == mask) {
    return;
  }
  fds_[fd] = mask;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  epoll_ctl(epfd_, known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, &ev);
}

void Poller::Forget(int fd) {
  fds_.erase(fd);
  epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

void Poller::Wait(std::vector<Event>* out, int timeout_ms) {
  out->clear();
  epoll_event evs[64];
  int n;
  do {
    n = epoll_wait(epfd_, evs, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);  // signal: not a lost round
  for (int i = 0; i < n; ++i) {
    Event e;
    e.fd = evs[i].data.fd;
    e.readable = (evs[i].events & (EPOLLIN | EPOLLHUP)) != 0;
    e.writable = (evs[i].events & EPOLLOUT) != 0;
    e.error = (evs[i].events & EPOLLERR) != 0;
    out->push_back(e);
  }
}

}  // namespace jnvm::server
