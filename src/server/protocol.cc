#include "src/server/protocol.h"

#include <charconv>

namespace jnvm::server {

namespace {

// Strict non-negative integer parse; RESP lengths admit no sign, blanks or
// leading zeros beyond "0".
bool ParseLen(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 19) {
    return false;
  }
  if (s.size() > 1 && s[0] == '0') {
    return false;  // "04" must not alias "4": lengths have one spelling
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

}  // namespace

void RespParser::Feed(const char* data, size_t n) {
  Compact();
  if (buffered_bytes() + n > max_buffer_) {
    // Drop the input and poison the parser: the caller observes kError on
    // the next Next() and overflowed() to distinguish the cause.
    overflowed_ = true;
    stage_ = Stage::kBroken;
    return;
  }
  buf_.append(data, n);
}

void RespParser::Compact() {
  // Reclaim consumed prefix once it dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
}

RespParser::Status RespParser::TakeLine(std::string_view* line,
                                        std::string* error) {
  const size_t eol = buf_.find("\r\n", consumed_);
  if (eol == std::string::npos) {
    return buffered_bytes() > kMaxHeaderLine
               ? Fail(error, "header line exceeds length limit")
               : Status::kNeedMore;
  }
  *line = std::string_view(buf_).substr(consumed_, eol - consumed_);
  consumed_ = eol + 2;
  return Status::kCommand;
}

RespParser::Status RespParser::Fail(std::string* error, const std::string& msg) {
  stage_ = Stage::kBroken;
  if (error != nullptr) {
    *error = msg;
  }
  return Status::kError;
}

RespParser::Status RespParser::Next(std::vector<std::string>* args,
                                    std::string* error) {
  while (true) {
    switch (stage_) {
      case Stage::kBroken:
        return Fail(error, overflowed_ ? "input buffer cap exceeded"
                                       : "parser in error state");
      case Stage::kArrayHeader: {
        std::string_view line;
        if (const Status st = TakeLine(&line, error); st != Status::kCommand) {
          return st;
        }
        if (line.empty() || line[0] != '*') {
          return Fail(error, "expected array header '*'");
        }
        uint64_t n;
        if (!ParseLen(line.substr(1), &n) || n == 0) {
          return Fail(error, "bad array length");
        }
        if (n > kMaxArgs) {
          return Fail(error, "array exceeds argument limit");
        }
        args_left_ = n;
        partial_.clear();
        partial_.reserve(n);
        stage_ = Stage::kBulkHeader;
        break;
      }
      case Stage::kBulkHeader: {
        std::string_view line;
        if (const Status st = TakeLine(&line, error); st != Status::kCommand) {
          return st;
        }
        if (line.empty() || line[0] != '$') {
          return Fail(error, "expected bulk header '$'");
        }
        if (!ParseLen(line.substr(1), &bulk_len_)) {
          return Fail(error, "bad bulk length");
        }
        if (bulk_len_ > kMaxBulkBytes) {
          return Fail(error, "bulk string exceeds size limit");
        }
        stage_ = Stage::kBulkBody;
        break;
      }
      case Stage::kBulkBody: {
        if (buf_.size() - consumed_ < bulk_len_ + 2) {
          return Status::kNeedMore;
        }
        if (buf_[consumed_ + bulk_len_] != '\r' ||
            buf_[consumed_ + bulk_len_ + 1] != '\n') {
          return Fail(error, "bulk string not CRLF-terminated");
        }
        partial_.emplace_back(buf_, consumed_, bulk_len_);
        consumed_ += bulk_len_ + 2;
        if (--args_left_ == 0) {
          *args = std::move(partial_);
          partial_.clear();
          stage_ = Stage::kArrayHeader;
          Compact();
          return Status::kCommand;
        }
        stage_ = Stage::kBulkHeader;
        break;
      }
    }
  }
}

// ---- Reply builders ---------------------------------------------------------

void AppendSimple(std::string* out, std::string_view s) {
  out->push_back('+');
  out->append(s);
  out->append("\r\n");
}

void AppendError(std::string* out, std::string_view msg) {
  out->append("-ERR ");
  out->append(msg);
  out->append("\r\n");
}

void AppendErrorCode(std::string* out, std::string_view msg) {
  out->push_back('-');
  out->append(msg);
  out->append("\r\n");
}

void AppendInteger(std::string* out, int64_t v) {
  out->push_back(':');
  out->append(std::to_string(v));
  out->append("\r\n");
}

void AppendBulk(std::string* out, std::string_view s) {
  out->push_back('$');
  out->append(std::to_string(s.size()));
  out->append("\r\n");
  out->append(s);
  out->append("\r\n");
}

void AppendNil(std::string* out) { out->append("$-1\r\n"); }

void AppendArrayHeader(std::string* out, size_t n) {
  out->push_back('*');
  out->append(std::to_string(n));
  out->append("\r\n");
}

// ---- Reply parser -----------------------------------------------------------

void RespReplyParser::Feed(const char* data, size_t n) {
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
  buf_.append(data, n);
}

RespParser::Status RespReplyParser::Next(RespReply* out, std::string* error) {
  if (broken_) {
    if (error != nullptr) {
      *error = "reply parser in error state";
    }
    return RespParser::Status::kError;
  }
  size_t pos = consumed_;
  const RespParser::Status st = ParseOne(out, error, &pos, 0);
  if (st == RespParser::Status::kCommand) {
    consumed_ = pos;
  }
  return st;
}

RespParser::Status RespReplyParser::ParseOne(RespReply* out, std::string* error,
                                             size_t* pos, int depth) {
  const size_t eol = buf_.find("\r\n", *pos);
  if (eol == std::string::npos) {
    return RespParser::Status::kNeedMore;
  }
  const std::string_view line = std::string_view(buf_).substr(*pos, eol - *pos);
  auto fail = [&](const char* msg) {
    broken_ = true;
    if (error != nullptr) {
      *error = msg;
    }
    return RespParser::Status::kError;
  };
  if (line.empty()) {
    return fail("empty reply line");
  }
  switch (line[0]) {
    case '+':
      out->type = RespReply::Type::kSimple;
      out->str.assign(line.substr(1));
      *pos = eol + 2;
      return RespParser::Status::kCommand;
    case '-':
      out->type = RespReply::Type::kError;
      out->str.assign(line.substr(1));
      *pos = eol + 2;
      return RespParser::Status::kCommand;
    case ':': {
      int64_t v = 0;
      const std::string_view num = line.substr(1);
      const auto res = std::from_chars(num.data(), num.data() + num.size(), v);
      if (res.ec != std::errc() || res.ptr != num.data() + num.size()) {
        return fail("bad integer reply");
      }
      out->type = RespReply::Type::kInteger;
      out->integer = v;
      *pos = eol + 2;
      return RespParser::Status::kCommand;
    }
    case '$': {
      if (line.substr(1) == "-1") {
        out->type = RespReply::Type::kNil;
        out->str.clear();
        *pos = eol + 2;
        return RespParser::Status::kCommand;
      }
      uint64_t len;
      if (!ParseLen(line.substr(1), &len) || len > kMaxBulkBytes) {
        return fail("bad bulk reply length");
      }
      const size_t body = eol + 2;
      if (buf_.size() < body + len + 2) {
        return RespParser::Status::kNeedMore;
      }
      if (buf_[body + len] != '\r' || buf_[body + len + 1] != '\n') {
        return fail("bulk reply not CRLF-terminated");
      }
      out->type = RespReply::Type::kBulk;
      out->str.assign(buf_, body, len);
      *pos = body + len + 2;
      return RespParser::Status::kCommand;
    }
    case '*': {
      // Reply arrays (EXEC). *-1 is the nil array; elements recurse one
      // level deep in practice, but tolerate modest nesting.
      if (line.substr(1) == "-1") {
        out->type = RespReply::Type::kNil;
        out->str.clear();
        *pos = eol + 2;
        return RespParser::Status::kCommand;
      }
      if (depth >= 4) {
        return fail("reply array nested too deep");
      }
      uint64_t n;
      if (!ParseLen(line.substr(1), &n) || n > kMaxArgs) {
        return fail("bad array reply length");
      }
      out->type = RespReply::Type::kArray;
      out->str.clear();
      out->elements.clear();
      out->elements.reserve(n);
      *pos = eol + 2;
      for (uint64_t i = 0; i < n; ++i) {
        RespReply elem;
        const RespParser::Status st = ParseOne(&elem, error, pos, depth + 1);
        if (st != RespParser::Status::kCommand) {
          return st;  // kNeedMore: caller rolls *pos back wholesale
        }
        out->elements.push_back(std::move(elem));
      }
      return RespParser::Status::kCommand;
    }
    default:
      return fail("unknown reply type byte");
  }
}

}  // namespace jnvm::server
