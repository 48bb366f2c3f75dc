#ifndef WDR_SERVER_CLIENT_H_
#define WDR_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "server/protocol.h"

namespace wdr::server {

// A minimal blocking client for the framed protocol: connect, read the
// greeting, then one Call() per request frame. One client = one session;
// not thread-safe (the protocol itself is strictly request/response).
// Used by wdr_client, bench_server, and the concurrency tests.
class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  // Connects to 127.0.0.1:port and consumes the greeting frame. Fails if
  // the server rejected the connection (admission control) — the server's
  // ERR message is surfaced in the Status.
  Status Connect(int port);

  // Sends one request payload ("VERB[ args]\n[body]") and reads the
  // response frame. UnavailableError when the connection dies mid-call.
  Result<Response> Call(std::string_view payload);

  // Convenience wrappers over Call().
  Result<Response> Query(std::string_view sparql);
  Result<Response> Update(std::string_view sparql_update);
  Result<Response> Set(std::string_view settings);  // "k=v k=v ..."

  // Sends BYE (best effort) and closes the socket.
  void Close();

  bool connected() const { return fd_ >= 0; }
  // Raw greeting head ("wdr proto=1 session=... epoch=..."), for tests.
  const std::string& greeting() const { return greeting_; }
  // Raw socket fd, for tests that inject protocol garbage.
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string greeting_;
  std::string buffer_;
};

// Test/tool helper: opens a raw connection (TCP_NODELAY set, see
// SetNoDelay) without consuming the greeting. Returns the fd, or a
// negative value on failure.
int RawConnect(int port);

}  // namespace wdr::server

#endif  // WDR_SERVER_CLIENT_H_
