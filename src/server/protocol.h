#ifndef WDR_SERVER_PROTOCOL_H_
#define WDR_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace wdr::server {

// The wire protocol of the query front-end: length-prefixed frames over a
// loopback TCP connection, one request frame in, one response frame out.
//
//   frame    := uint32 big-endian payload length | payload bytes
//   request  := "VERB[ args]\n[body]"          (first line + optional body)
//   response := "OK[ k=v ...]\n[body]"  or  "ERR <Status::ToString()>"
//
// Verbs: QUERY (body = SPARQL), UPDATE (body = SPARQL UPDATE), SET
// (args = k=v settings), PING, INFO, BYE. On connect the server speaks
// first with a greeting frame ("OK wdr proto=1 session=<id> epoch=<e>").
// A length prefix above the server's frame cap is answered with an ERR
// frame and a close — the server never allocates for an oversized claim.
//
// Deliberately dependency-free and binary-safe in the body (only the
// first line is structured), so a client is ~50 lines of socket code.

// Protocol revision, announced in the greeting.
inline constexpr int kProtocolVersion = 1;

// Default per-frame cap (requests and responses): 1 MiB.
inline constexpr size_t kDefaultMaxFrameBytes = size_t{1} << 20;

// Writes one frame (length prefix + payload) as one send. Returns false
// when the peer is gone or the send timed out; the connection is unusable
// then.
bool WriteFrame(int fd, std::string_view payload);

// Sets TCP_NODELAY on a frame socket. Both ends call it: a frame is one
// send and the peer answers it at once, so Nagle's hold for an ACK (which
// the peer delays ~40 ms) only ever stalls the tail segment of a response
// larger than one segment.
void SetNoDelay(int fd);

// Outcomes of reading one frame.
enum class FrameReadResult {
  kOk,         // *payload holds a complete frame
  kClosed,     // clean EOF at a frame boundary (peer hung up)
  kTruncated,  // EOF or socket error mid-frame (abrupt disconnect/timeout)
  kOversized,  // length prefix exceeds max_bytes; nothing was allocated
};

// Reads one complete frame, tolerating arbitrarily fragmented delivery.
// On kOversized the prefix has been consumed but no payload bytes read —
// the caller should answer with an ERR frame and close.
FrameReadResult ReadFrame(int fd, size_t max_bytes, std::string* payload);

// One parsed request.
struct Request {
  std::string_view verb;  // uppercase by convention, matched exactly
  std::string_view args;  // rest of the first line (may be empty)
  std::string_view body;  // everything after the first '\n' (may be empty)
};

// Splits a request payload into verb / args / body. Never fails: a
// payload with no newline is all first-line, an empty payload yields an
// empty verb (which the server rejects as an unknown verb).
Request ParseRequest(std::string_view payload);

// Response builders.
std::string OkResponse(std::string_view head_kv = {},
                       std::string_view body = {});
std::string ErrResponse(const Status& status);

// One parsed response (client side).
struct Response {
  bool ok = false;
  std::string head;  // first line after "OK " / "ERR " (k=v list or error)
  std::string body;  // everything after the first '\n'
};

Response ParseResponse(std::string_view payload);

}  // namespace wdr::server

#endif  // WDR_SERVER_PROTOCOL_H_
