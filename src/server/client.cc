#include "src/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace jnvm::server {

namespace {

void AppendCommand(std::string* out, const std::vector<std::string>& args) {
  out->push_back('*');
  out->append(std::to_string(args.size()));
  out->append("\r\n");
  for (const std::string& a : args) {
    AppendBulk(out, a);
  }
}

}  // namespace

std::unique_ptr<Client> Client::Connect(const std::string& host, uint16_t port,
                                        std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg + ": " + std::strerror(errno);
    }
    return nullptr;
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return fail("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return fail("inet_pton(" + host + ")");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return fail("connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto c = std::unique_ptr<Client>(new Client());
  c->fd_ = fd;
  return c;
}

Client::~Client() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::string Client::last_error() const {
  std::lock_guard<std::mutex> lk(err_mu_);
  return err_;
}

void Client::SetError(std::string msg) {
  std::lock_guard<std::mutex> lk(err_mu_);
  err_ = std::move(msg);
}

bool Client::WriteAll(const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    // MSG_NOSIGNAL: a write racing the peer's death (the REPLACK path when
    // a primary is killed) must fail with EPIPE, not raise SIGPIPE.
    const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) {
        continue;
      }
      SetError(std::string("write: ") + std::strerror(errno));
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

bool Client::ReadReply(RespReply* out) {
  char buf[65536];
  for (;;) {
    std::string perr;
    const RespParser::Status st = replies_.Next(out, &perr);
    if (st == RespParser::Status::kCommand) {
      return true;
    }
    if (st == RespParser::Status::kError) {
      SetError("reply parse: " + perr);
      return false;
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      SetError(std::string("read: ") + std::strerror(errno));
      return false;
    }
    if (n == 0) {
      SetError("connection closed by server");
      return false;
    }
    replies_.Feed(buf, static_cast<size_t>(n));
  }
}

bool Client::Roundtrip(const std::vector<std::string>& args, RespReply* reply) {
  std::string wire;
  AppendCommand(&wire, args);
  return WriteAll(wire.data(), wire.size()) && ReadReply(reply);
}

bool Client::SendCommand(const std::vector<std::string>& args) {
  std::string wire;
  AppendCommand(&wire, args);
  return WriteAll(wire.data(), wire.size());
}

bool Client::ReadOneReply(RespReply* out) { return ReadReply(out); }

void Client::ShutdownSocket() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void Client::PipeCommand(const std::vector<std::string>& args) {
  AppendCommand(&outbuf_, args);
  ++queued_;
}

bool Client::Sync(std::vector<RespReply>* out) {
  out->clear();
  if (!WriteAll(outbuf_.data(), outbuf_.size())) {
    outbuf_.clear();
    queued_ = 0;
    return false;
  }
  outbuf_.clear();
  const uint32_t expect = queued_;
  queued_ = 0;
  out->reserve(expect);
  for (uint32_t i = 0; i < expect; ++i) {
    RespReply r;
    if (!ReadReply(&r)) {
      return false;
    }
    out->push_back(std::move(r));
  }
  return true;
}

bool Client::Ping() {
  RespReply r;
  return Roundtrip({"PING"}, &r) && r.type == RespReply::Type::kSimple &&
         r.str == "PONG";
}

bool Client::Set(const std::string& key, const std::string& value) {
  RespReply r;
  if (!Roundtrip({"SET", key, value}, &r)) {
    return false;
  }
  if (r.type == RespReply::Type::kError) {
    SetError(r.str);
    return false;
  }
  return r.type == RespReply::Type::kSimple;
}

std::optional<std::string> Client::Get(const std::string& key) {
  RespReply r;
  if (!Roundtrip({"GET", key}, &r)) {
    return std::nullopt;
  }
  if (r.type != RespReply::Type::kBulk) {
    if (r.type == RespReply::Type::kError) {
      SetError(r.str);
    }
    return std::nullopt;
  }
  return std::move(r.str);
}

bool Client::Del(const std::string& key) {
  RespReply r;
  return Roundtrip({"DEL", key}, &r) && r.type == RespReply::Type::kInteger &&
         r.integer == 1;
}

bool Client::Hset(const std::string& key, uint32_t field,
                  const std::string& value) {
  RespReply r;
  return Roundtrip({"HSET", key, std::to_string(field), value}, &r) &&
         r.type == RespReply::Type::kInteger && r.integer == 1;
}

bool Client::Touch(const std::string& key) {
  RespReply r;
  return Roundtrip({"TOUCH", key}, &r) && r.type == RespReply::Type::kInteger &&
         r.integer == 1;
}

bool Client::Mset(const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::vector<std::string> args;
  args.reserve(1 + 2 * pairs.size());
  args.push_back("MSET");
  for (const auto& [k, v] : pairs) {
    args.push_back(k);
    args.push_back(v);
  }
  RespReply r;
  if (!Roundtrip(args, &r)) {
    return false;
  }
  if (r.type == RespReply::Type::kError) {
    SetError(r.str);
    return false;
  }
  return r.type == RespReply::Type::kSimple;
}

std::optional<uint64_t> Client::LastSeq(uint32_t shard) {
  RespReply r;
  if (!Roundtrip({"LASTSEQ", std::to_string(shard)}, &r)) {
    return std::nullopt;
  }
  if (r.type != RespReply::Type::kInteger) {
    if (r.type == RespReply::Type::kError) {
      SetError(r.str);
    }
    return std::nullopt;
  }
  return static_cast<uint64_t>(r.integer);
}

bool Client::MinSeq(uint32_t shard, uint64_t seq) {
  RespReply r;
  if (!Roundtrip({"MINSEQ", std::to_string(shard), std::to_string(seq)}, &r)) {
    return false;
  }
  if (r.type == RespReply::Type::kError) {
    SetError(r.str);
    return false;
  }
  return r.type == RespReply::Type::kSimple;
}

std::optional<std::string> Client::Stats() {
  RespReply r;
  if (!Roundtrip({"STATS"}, &r) || r.type != RespReply::Type::kBulk) {
    return std::nullopt;
  }
  return std::move(r.str);
}

bool Client::Multi() {
  RespReply r;
  if (!Roundtrip({"MULTI"}, &r)) {
    return false;
  }
  if (r.type == RespReply::Type::kError) {
    SetError(r.str);
    return false;
  }
  return r.type == RespReply::Type::kSimple;
}

bool Client::Exec(std::vector<RespReply>* replies) {
  replies->clear();
  RespReply r;
  if (!Roundtrip({"EXEC"}, &r)) {
    return false;
  }
  if (r.type != RespReply::Type::kArray) {
    if (r.type == RespReply::Type::kError) {
      SetError(r.str);
    } else {
      SetError("unexpected EXEC reply type");
    }
    return false;
  }
  *replies = std::move(r.elements);
  return true;
}

bool Client::Discard() {
  RespReply r;
  if (!Roundtrip({"DISCARD"}, &r)) {
    return false;
  }
  if (r.type == RespReply::Type::kError) {
    SetError(r.str);
    return false;
  }
  return r.type == RespReply::Type::kSimple;
}

bool Client::Shutdown() {
  RespReply r;
  if (!Roundtrip({"SHUTDOWN"}, &r)) {
    return false;
  }
  if (r.type == RespReply::Type::kError) {
    SetError(r.str);
    return false;
  }
  return r.type == RespReply::Type::kSimple;
}

}  // namespace jnvm::server
