// wdr_client — command-line client for the wdr::server framed protocol
// (the counterpart of `wdr_shell --listen=PORT`).
//
// Usage:
//   wdr_client --port=PORT [--host-note] [-e COMMAND ...]
//
// With -e arguments, each is sent as one request and the client exits
// (non-zero on the first ERR); otherwise commands are read from stdin,
// one per line:
//
//   SELECT ...            query (sent as QUERY)
//   INSERT/DELETE DATA    update (sent as UPDATE)
//   .set k=v [k=v ...]    session settings: mode=saturation|reformulation|
//                         backward|datalog|auto|none|default,
//                         plan=0|1|default, encoding=0|1|default,
//                         timeout_ms=N
//   .info                 server/session info (epoch, size, plan cache,
//                         auto-mode routing counters)
//   .why                  last auto-mode routing decision (sent as WHY)
//   .ping                 liveness + current epoch
//   .quit                 close the session
//
// Multi-line SPARQL: end a line with '\' to continue it.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "server/client.h"

namespace {

using wdr::server::Client;
using wdr::server::Response;

// Renders one response: head (k=v summary) then the body rows.
void Print(const Response& response) {
  if (!response.ok) {
    std::cerr << "ERR " << response.head << "\n";
    return;
  }
  if (!response.head.empty()) std::cout << "[" << response.head << "]\n";
  if (!response.body.empty()) std::cout << response.body;
}

// Maps one shell-style line onto a protocol request payload; empty return
// means "handled locally" (comments, blank lines).
std::string ToRequest(const std::string& line) {
  if (line.empty() || line[0] == '#') return {};
  if (line[0] == '.') {
    if (line.rfind(".set ", 0) == 0) return "SET " + line.substr(5) + "\n";
    if (line == ".info") return "INFO\n";
    if (line == ".why") return "WHY\n";
    if (line == ".ping") return "PING\n";
    if (line == ".quit") return "BYE\n";
    std::cerr << "unknown command: " << line << "\n";
    return {};
  }
  std::string upper;
  for (char c : line) upper += static_cast<char>(std::toupper(c));
  const bool update = upper.rfind("INSERT", 0) == 0 ||
                      upper.rfind("DELETE", 0) == 0 ||
                      (upper.rfind("PREFIX", 0) == 0 &&
                       upper.find("INSERT") != std::string::npos) ||
                      (upper.rfind("PREFIX", 0) == 0 &&
                       upper.find("DELETE DATA") != std::string::npos);
  return (update ? "UPDATE\n" : "QUERY\n") + line;
}

// Sends one line; returns false if the server reported an error or the
// connection died.
bool RunLine(Client& client, const std::string& line) {
  const std::string payload = ToRequest(line);
  if (payload.empty()) return true;
  auto response = client.Call(payload);
  if (!response.ok()) {
    std::cerr << response.status() << "\n";
    return false;
  }
  Print(response.value());
  return response.value().ok;
}

}  // namespace

int main(int argc, char** argv) {
  int port = -1;
  std::vector<std::string> commands;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--port=", 0) == 0) {
      // The whole value must be a port number: "80x" or an int-overflowing
      // value is rejected, not read as a prefix.
      const char* text = arg.c_str() + 7;
      char* end = nullptr;
      const long value = std::strtol(text, &end, 10);
      if (end == text || *end != '\0' || value < 1 || value > 65535) {
        std::cerr << "invalid port in " << arg << "\n";
        return EXIT_FAILURE;
      }
      port = static_cast<int>(value);
    } else if (arg == "-e" && i + 1 < argc) {
      commands.push_back(argv[++i]);
    } else {
      std::cerr << "usage: wdr_client --port=PORT [-e COMMAND ...]\n";
      return EXIT_FAILURE;
    }
  }
  if (port < 0) {
    std::cerr << "usage: wdr_client --port=PORT [-e COMMAND ...]\n";
    return EXIT_FAILURE;
  }

  Client client;
  const wdr::Status connected = client.Connect(port);
  if (!connected.ok()) {
    std::cerr << connected << "\n";
    return EXIT_FAILURE;
  }
  std::cout << "connected: " << client.greeting() << "\n";

  if (!commands.empty()) {
    for (const std::string& command : commands) {
      if (!RunLine(client, command)) return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
  }

  std::string line, pending;
  while (std::getline(std::cin, line)) {
    // Backslash continuation for multi-line SPARQL.
    if (!line.empty() && line.back() == '\\') {
      pending += line.substr(0, line.size() - 1);
      pending += '\n';
      continue;
    }
    pending += line;
    if (pending == ".quit") break;
    RunLine(client, pending);
    pending.clear();
    if (!client.connected()) break;
  }
  return EXIT_SUCCESS;
}
