// Blocking RESP client for the J-NVM server — used by the load generator,
// the e2e tests and anything scripting the server.
//
// One Client = one TCP connection; not thread-safe (one per thread). Two
// call styles:
//  * synchronous helpers (Ping/Set/Get/...) — one round trip each;
//  * explicit pipelining — queue commands with Pipe*() and collect the
//    replies in order with Sync(), amortizing round trips (and letting the
//    server fill its fence-batching groups).
#ifndef JNVM_SRC_SERVER_CLIENT_H_
#define JNVM_SRC_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/server/protocol.h"

namespace jnvm::server {

class Client {
 public:
  // nullptr on connection failure (*error holds the reason).
  static std::unique_ptr<Client> Connect(const std::string& host, uint16_t port,
                                         std::string* error);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // ---- Synchronous helpers (send one command, read one reply) ------------
  // On I/O failure they return false/nullopt and last_error() explains.

  bool Ping();
  bool Set(const std::string& key, const std::string& value);
  std::optional<std::string> Get(const std::string& key);
  // True when the key existed.
  bool Del(const std::string& key);
  bool Hset(const std::string& key, uint32_t field, const std::string& value);
  bool Touch(const std::string& key);
  bool Mset(const std::vector<std::pair<std::string, std::string>>& pairs);
  // ---- Session consistency (DESIGN.md §8) --------------------------------
  // LastSeq asks a server for a shard's sealed watermark; on a primary that
  // covers every write this connection issued before the call, so the value
  // is the session token for read-your-writes on replicas. MinSeq raises
  // this connection's read floor on a (replica) server: subsequent reads on
  // the shard park until the replica applied through `seq`, or fail -STALE.
  std::optional<uint64_t> LastSeq(uint32_t shard);
  bool MinSeq(uint32_t shard, uint64_t seq);
  std::optional<std::string> Stats();
  // +OK = clean quiesce (integrity audit passed, images saved).
  bool Shutdown();

  // ---- Transactions (DESIGN.md §9) ---------------------------------------
  // MULTI / queued ops / EXEC. Multi() opens the txn; ops queue with the
  // pipelining helpers or plain Roundtrip ("+QUEUED" replies); Exec() sends
  // EXEC and returns the per-op reply array. An -TXNABORT (or any error)
  // reply surfaces as false with last_error() set; *replies then stays
  // empty — the txn applied nothing.
  bool Multi();
  bool Exec(std::vector<RespReply>* replies);
  bool Discard();

  // ---- Pipelining ---------------------------------------------------------

  // Queues a command without flushing.
  void PipeCommand(const std::vector<std::string>& args);
  void PipeSet(const std::string& key, const std::string& value) {
    PipeCommand({"SET", key, value});
  }
  void PipeGet(const std::string& key) { PipeCommand({"GET", key}); }
  void PipeHset(const std::string& key, uint32_t field, const std::string& value) {
    PipeCommand({"HSET", key, std::to_string(field), value});
  }
  // Flushes the queue and reads exactly as many replies as were queued.
  // False on I/O error (replies gathered so far are in *out).
  bool Sync(std::vector<RespReply>* out);

  // Sends one command and reads one reply; the workhorse behind the helpers.
  bool Roundtrip(const std::vector<std::string>& args, RespReply* reply);

  // ---- Streaming (replication) -------------------------------------------
  // REPLSYNC converts the connection into a reply stream: send the command
  // once, then read replies forever. These split Roundtrip into its halves.

  bool SendCommand(const std::vector<std::string>& args);
  // Blocks until one reply arrives; false on I/O error or peer close.
  bool ReadOneReply(RespReply* out);
  // Half-closes the socket from any thread: a blocked ReadOneReply returns
  // false. Used to stop replication pull loops.
  void ShutdownSocket();

  // Safe from any thread: a replica's acks fail in SendCommand on one
  // thread while its pull loop fails in ReadOneReply on another.
  std::string last_error() const;

 private:
  Client() = default;

  bool WriteAll(const char* data, size_t n);
  bool ReadReply(RespReply* out);
  void SetError(std::string msg);

  int fd_ = -1;
  uint32_t queued_ = 0;
  std::string outbuf_;
  RespReplyParser replies_;
  mutable std::mutex err_mu_;
  std::string err_;  // guarded by err_mu_
};

}  // namespace jnvm::server

#endif  // JNVM_SRC_SERVER_CLIENT_H_
