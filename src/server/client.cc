#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace wdr::server {

int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  SetNoDelay(fd);
  return fd;
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      greeting_(std::move(other.greeting_)),
      buffer_(std::move(other.buffer_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    greeting_ = std::move(other.greeting_);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

Status Client::Connect(int port) {
  if (fd_ >= 0) return FailedPreconditionError("already connected");
  fd_ = RawConnect(port);
  if (fd_ < 0) {
    return UnavailableError("connect to 127.0.0.1:" + std::to_string(port) +
                            " failed");
  }
  // Server speaks first; an admission reject arrives here as an ERR frame
  // followed by a close.
  if (ReadFrame(fd_, kDefaultMaxFrameBytes, &buffer_) != FrameReadResult::kOk) {
    Close();
    return UnavailableError("connection closed before greeting");
  }
  const Response greeting = ParseResponse(buffer_);
  if (!greeting.ok) {
    Close();
    return UnavailableError("server rejected connection: " + greeting.head);
  }
  greeting_ = greeting.head;
  return Status::Ok();
}

Result<Response> Client::Call(std::string_view payload) {
  if (fd_ < 0) return FailedPreconditionError("not connected");
  if (!WriteFrame(fd_, payload)) {
    Close();
    return UnavailableError("send failed (connection lost)");
  }
  const FrameReadResult read = ReadFrame(fd_, kDefaultMaxFrameBytes, &buffer_);
  if (read != FrameReadResult::kOk) {
    Close();
    return UnavailableError("connection closed mid-call");
  }
  return ParseResponse(buffer_);
}

Result<Response> Client::Query(std::string_view sparql) {
  std::string payload = "QUERY\n";
  payload += sparql;
  return Call(payload);
}

Result<Response> Client::Update(std::string_view sparql_update) {
  std::string payload = "UPDATE\n";
  payload += sparql_update;
  return Call(payload);
}

Result<Response> Client::Set(std::string_view settings) {
  std::string payload = "SET ";
  payload += settings;
  payload += '\n';
  return Call(payload);
}

void Client::Close() {
  if (fd_ < 0) return;
  WriteFrame(fd_, "BYE\n");  // best effort; ignore the reply
  ::close(fd_);
  fd_ = -1;
}

}  // namespace wdr::server
