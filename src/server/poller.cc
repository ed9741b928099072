#include "src/server/poller.h"

#include <poll.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>

namespace jnvm::server {

Poller::Poller(bool use_poll)
    : use_poll_(use_poll), epfd_(use_poll ? -1 : epoll_create1(0)) {}

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
  if (use_poll_) {
    return;  // Wait builds its pollfd array from fds_
  }
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  epoll_ctl(epfd_, known ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, &ev);
}

void Poller::Forget(int fd) {
  fds_.erase(fd);
  if (!use_poll_) {
    epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

void Poller::Wait(std::vector<Event>* out, int timeout_ms) {
  out->clear();
  if (!use_poll_) {
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
    return;
  }
  std::vector<pollfd> pfds;
  pfds.reserve(fds_.size());
  for (const auto& [fd, mask] : fds_) {
    pollfd p{};
    p.fd = fd;
    p.events = static_cast<short>(((mask & 1u) != 0 ? POLLIN : 0) |
                                  ((mask & 2u) != 0 ? POLLOUT : 0));
    pfds.push_back(p);
  }
  int n;
  do {
    n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (n < 0 && errno == EINTR);  // signal: not a lost round
  if (n <= 0) {
    return;
  }
  for (const pollfd& p : pfds) {
    if (p.revents == 0) {
      continue;
    }
    Event e;
    e.fd = p.fd;
    e.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
    e.writable = (p.revents & POLLOUT) != 0;
    e.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
    out->push_back(e);
  }
}

}  // namespace jnvm::server
