#include "server/protocol.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

#include <cerrno>
#include <cstring>

namespace wdr::server {
namespace {

// Reads exactly `n` bytes into `out`, riding out fragmentation and EINTR.
// Returns the byte count actually read (short on EOF/error/timeout).
size_t RecvExactly(int fd, char* out, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r > 0) {
      got += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    break;  // EOF (0), timeout, or hard error
  }
  return got;
}

}  // namespace

bool WriteFrame(int fd, std::string_view payload) {
  char prefix[4];
  const uint32_t n = static_cast<uint32_t>(payload.size());
  prefix[0] = static_cast<char>((n >> 24) & 0xff);
  prefix[1] = static_cast<char>((n >> 16) & 0xff);
  prefix[2] = static_cast<char>((n >> 8) & 0xff);
  prefix[3] = static_cast<char>(n & 0xff);
  // Prefix and payload leave in one sendmsg: two sends put a 4-byte
  // segment on the wire ahead of the payload, and the peer's delayed ACK
  // of it stalls the payload behind Nagle for ~40 ms per frame.
  struct iovec iov[2];
  iov[0].iov_base = prefix;
  iov[0].iov_len = sizeof(prefix);
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  struct msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  size_t left = sizeof(prefix) + payload.size();
  while (left > 0) {
    const ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0 && errno == EINTR) continue;
    if (sent <= 0) return false;  // peer gone or send timeout
    // Short write: skip the bytes the kernel took, then resend the rest.
    size_t done = static_cast<size_t>(sent);
    left -= done;
    while (msg.msg_iovlen > 1 && done >= msg.msg_iov->iov_len) {
      done -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + done;
    msg.msg_iov->iov_len -= done;
  }
  return true;
}

void SetNoDelay(int fd) {
  const int on = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
}

FrameReadResult ReadFrame(int fd, size_t max_bytes, std::string* payload) {
  char prefix[4];
  const size_t head = RecvExactly(fd, prefix, 4);
  if (head == 0) return FrameReadResult::kClosed;
  if (head < 4) return FrameReadResult::kTruncated;
  const uint32_t n = (static_cast<uint32_t>(static_cast<unsigned char>(prefix[0])) << 24) |
                     (static_cast<uint32_t>(static_cast<unsigned char>(prefix[1])) << 16) |
                     (static_cast<uint32_t>(static_cast<unsigned char>(prefix[2])) << 8) |
                     static_cast<uint32_t>(static_cast<unsigned char>(prefix[3]));
  if (n > max_bytes) return FrameReadResult::kOversized;
  payload->resize(n);
  if (n != 0 && RecvExactly(fd, payload->data(), n) < n) {
    return FrameReadResult::kTruncated;
  }
  return FrameReadResult::kOk;
}

Request ParseRequest(std::string_view payload) {
  Request request;
  std::string_view first = payload;
  const size_t newline = payload.find('\n');
  if (newline != std::string_view::npos) {
    first = payload.substr(0, newline);
    request.body = payload.substr(newline + 1);
  }
  const size_t space = first.find(' ');
  if (space == std::string_view::npos) {
    request.verb = first;
  } else {
    request.verb = first.substr(0, space);
    request.args = first.substr(space + 1);
  }
  return request;
}

std::string OkResponse(std::string_view head_kv, std::string_view body) {
  std::string out = "OK";
  if (!head_kv.empty()) {
    out += ' ';
    out += head_kv;
  }
  out += '\n';
  out += body;
  return out;
}

std::string ErrResponse(const Status& status) {
  return "ERR " + status.ToString();
}

Response ParseResponse(std::string_view payload) {
  Response response;
  std::string_view first = payload;
  const size_t newline = payload.find('\n');
  if (newline != std::string_view::npos) {
    first = payload.substr(0, newline);
    response.body = payload.substr(newline + 1);
  }
  if (first.substr(0, 2) == "OK") {
    response.ok = true;
    if (first.size() > 3) response.head = std::string(first.substr(3));
  } else if (first.substr(0, 3) == "ERR") {
    response.ok = false;
    if (first.size() > 4) response.head = std::string(first.substr(4));
  } else {
    response.ok = false;
    response.head = "malformed response: " + std::string(first);
  }
  return response;
}

}  // namespace wdr::server
