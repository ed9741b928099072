// RESP2 wire protocol for the J-NVM network server (DESIGN.md §7).
//
// Requests are RESP arrays of bulk strings (`*N\r\n$len\r\n<bytes>\r\n`…),
// the subset Redis clients speak. Replies are simple strings (+OK), errors
// (-ERR …), integers (:N), bulk strings ($len…), nil ($-1) and — for EXEC —
// arrays of the above (*N).
//
// The parser is incremental and allocation-light: bytes are appended to an
// internal buffer and consumed in place; parse state (stage, argument count,
// current bulk length) survives across Feed calls, so a command split over
// any number of reads is never re-scanned. Argument strings are the only
// per-command allocations.
#ifndef JNVM_SRC_SERVER_PROTOCOL_H_
#define JNVM_SRC_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace jnvm::server {

// Frame limits. A violation is a protocol error: the server replies -ERR
// and closes the offending connection (its parse state is unrecoverable);
// other connections are unaffected.
inline constexpr uint64_t kMaxArgs = 1024;
inline constexpr uint64_t kMaxBulkBytes = 16ull << 20;
// Longest legal `*N` / `$N` header line: type byte, 19 digits, CRLF. More
// unconsumed bytes than this with no CRLF is a protocol error, so a peer
// streaming bytes with no line end costs one scan, not one per read.
inline constexpr size_t kMaxHeaderLine = 1 + 19 + 2;

class RespParser {
 public:
  enum class Status {
    kNeedMore,  // no complete command buffered
    kCommand,   // *args filled with one complete command
    kError,     // protocol violation; *error describes it. Terminal.
  };

  // Appends raw bytes from the socket. When the unconsumed buffer would
  // exceed the cap (set_max_buffer), the bytes are dropped and the parser
  // enters the terminal error state — a peer streaming an endless frame
  // cannot grow the buffer without bound.
  void Feed(const char* data, size_t n);

  // Extracts the next complete command. Call repeatedly until kNeedMore to
  // drain pipelined commands. After kError the parser stays in the error
  // state (the stream position is lost).
  Status Next(std::vector<std::string>* args, std::string* error);

  // Bytes buffered but not yet consumed (tests / memory accounting).
  size_t buffered_bytes() const { return buf_.size() - consumed_; }

  // Caps the unconsumed buffer. Must exceed the largest legal frame the
  // deployment expects (a frame can be up to kMaxArgs * kMaxBulkBytes in
  // principle); the server wires this from ServerOptions::max_conn_in_bytes.
  void set_max_buffer(size_t cap) { max_buffer_ = cap; }
  // True once Feed rejected input for exceeding the cap (terminal).
  bool overflowed() const { return overflowed_; }

 private:
  enum class Stage { kArrayHeader, kBulkHeader, kBulkBody, kBroken };

  Status Fail(std::string* error, const std::string& msg);
  // Reads a CRLF-terminated line starting at consumed_: kCommand with the
  // line in *line, kNeedMore while no CRLF is buffered, kError once the
  // unconsumed bytes exceed kMaxHeaderLine without one.
  Status TakeLine(std::string_view* line, std::string* error);
  void Compact();

  std::string buf_;
  size_t consumed_ = 0;
  size_t max_buffer_ = SIZE_MAX;
  bool overflowed_ = false;
  Stage stage_ = Stage::kArrayHeader;
  uint64_t args_left_ = 0;
  uint64_t bulk_len_ = 0;
  std::vector<std::string> partial_;
};

// ---- Reply builders (append to an output buffer) ---------------------------

void AppendSimple(std::string* out, std::string_view s);   // +s\r\n
void AppendError(std::string* out, std::string_view msg);  // -ERR msg\r\n
// Error with an explicit leading code (e.g. "READONLY ..."): -msg\r\n
void AppendErrorCode(std::string* out, std::string_view msg);
void AppendInteger(std::string* out, int64_t v);           // :v\r\n
void AppendBulk(std::string* out, std::string_view s);     // $len\r\ns\r\n
void AppendNil(std::string* out);                          // $-1\r\n
// Header of an n-element reply array (*n\r\n); the caller appends the
// elements. Used by EXEC, whose reply is one array of per-op replies.
void AppendArrayHeader(std::string* out, size_t n);

// ---- Reply parser (client side) --------------------------------------------

struct RespReply {
  enum class Type { kSimple, kError, kInteger, kBulk, kNil, kArray };
  Type type = Type::kNil;
  std::string str;      // simple / error / bulk payload
  int64_t integer = 0;  // kInteger
  std::vector<RespReply> elements;  // kArray (EXEC replies)
};

// Incremental reply reader for the blocking client: same buffering contract
// as RespParser but over the reply grammar.
class RespReplyParser {
 public:
  void Feed(const char* data, size_t n);
  // kCommand here means "one complete reply in *out".
  RespParser::Status Next(RespReply* out, std::string* error);

 private:
  // Parses one reply starting at *pos; advances *pos past it only on
  // kCommand, so a partial array rolls back wholesale and is re-parsed once
  // more bytes arrive (arrays are rare and small: one per EXEC).
  RespParser::Status ParseOne(RespReply* out, std::string* error, size_t* pos,
                              int depth);

  std::string buf_;
  size_t consumed_ = 0;
  bool broken_ = false;
};

}  // namespace jnvm::server

#endif  // JNVM_SRC_SERVER_PROTOCOL_H_
