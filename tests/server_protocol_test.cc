// Protocol-robustness suite for server::Server: hostile and broken
// clients — malformed frames, oversized length claims, truncated writes,
// abrupt disconnects, slow readers, admission floods — must always get a
// clean error (or a clean close) and must NEVER wedge a session thread or
// leak a session: after every abuse the active session count returns to
// zero and a fresh well-behaved client still gets service.
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/snapshot_store.h"
#include "store/reasoning_store.h"

namespace wdr::server {
namespace {

constexpr const char* kPrefixes =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX ex: <http://ex.org/>\n";

// Polls until `cond` holds or ~5s elapse; hostile-client cleanup is
// asynchronous (the session thread has to notice the dead socket).
template <typename Cond>
bool WaitFor(Cond cond) {
  for (int i = 0; i < 500; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

class ServerProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_
                    .LoadTurtle("@prefix rdfs: "
                                "<http://www.w3.org/2000/01/rdf-schema#> .\n"
                                "@prefix ex: <http://ex.org/> .\n"
                                "ex:Cat rdfs:subClassOf ex:Animal .\n"
                                "ex:tom a ex:Cat .\n")
                    .ok());
  }

  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(store_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  // Every test ends with the same leak check: all sessions drained.
  void TearDown() override {
    if (server_ == nullptr) return;
    EXPECT_TRUE(WaitFor([&] { return server_->active_sessions() == 0; }))
        << "leaked sessions: " << server_->active_sessions();
    server_->Stop();
    EXPECT_EQ(server_->active_sessions(), 0u);
  }

  // The protocol assertions read saturation observables (INFO mode=,
  // per-read saturation overrides), so the store is pinned explicitly;
  // WDR_MODE=auto coverage comes from the SET mode=auto session test.
  static store::ReasoningStoreOptions SaturationStoreOptions() {
    store::ReasoningStoreOptions options;
    options.mode = store::ReasoningMode::kSaturation;
    return options;
  }

  SnapshotStore store_{SaturationStoreOptions()};
  std::unique_ptr<Server> server_;
};

TEST_F(ServerProtocolTest, GreetingAndBasicVerbs) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  EXPECT_NE(client.greeting().find("proto=1"), std::string::npos);
  EXPECT_NE(client.greeting().find("epoch=1"), std::string::npos);

  auto ping = client.Call("PING\n");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping.value().ok);
  EXPECT_NE(ping.value().head.find("epoch=1"), std::string::npos);

  auto info = client.Call("INFO\n");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().ok);
  EXPECT_NE(info.value().head.find("mode=saturation"), std::string::npos);
  EXPECT_NE(info.value().head.find("sessions=1"), std::string::npos);

  auto query = client.Query(std::string(kPrefixes) +
                            "SELECT ?x WHERE { ?x rdf:type ex:Animal }");
  ASSERT_TRUE(query.ok());
  EXPECT_TRUE(query.value().ok) << query.value().head;
  EXPECT_NE(query.value().head.find("rows=1"), std::string::npos);
  EXPECT_NE(query.value().body.find("tom"), std::string::npos);

  auto bye = client.Call("BYE\n");
  ASSERT_TRUE(bye.ok());
  EXPECT_TRUE(bye.value().ok);
}

TEST_F(ServerProtocolTest, SessionSettingsChangeBehavior) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  // Per-session mode override; answers must not change (same epoch, the
  // modes are answer-equivalent — the library's core property).
  const std::string query = std::string(kPrefixes) +
                            "SELECT ?x WHERE { ?x rdf:type ex:Animal }";
  for (const char* mode : {"reformulation", "backward", "saturation", "none"}) {
    auto set = client.Set(std::string("mode=") + mode);
    ASSERT_TRUE(set.ok());
    EXPECT_TRUE(set.value().ok) << set.value().head;
    auto result = client.Query(query);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().ok) << result.value().head;
    const bool reasoning = std::string(mode) != "none";
    EXPECT_NE(result.value().head.find(reasoning ? "rows=1" : "rows=0"),
              std::string::npos)
        << mode << ": " << result.value().head;
  }

  // Every toggle setting resets with value "default", matching the mode
  // handler.
  for (const char* reset :
       {"plan=default", "encoding=default", "mode=default"}) {
    auto ok = client.Set(reset);
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(ok.value().ok) << reset << ": " << ok.value().head;
  }

  // Bad settings are errors, and the session survives them. `threads` is
  // no longer a setting: queries run on the session's own thread.
  for (const char* bad :
       {"mode=telepathy", "threads=many", "threads=4", "threads=default",
        "threads=0", "nonsense=1", "timeout_ms=-2", "plan=maybe",
        "shards=4"}) {
    auto set = client.Set(bad);
    ASSERT_TRUE(set.ok());
    EXPECT_FALSE(set.value().ok) << bad;
  }
  auto set = client.Call("SET\n");  // no arguments at all
  ASSERT_TRUE(set.ok());
  EXPECT_FALSE(set.value().ok);

  auto alive = client.Call("PING\n");
  ASSERT_TRUE(alive.ok());
  EXPECT_TRUE(alive.value().ok);
}

TEST_F(ServerProtocolTest, AutoModeSessionRoutesAndExplainsViaWhy) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  // Before any auto-routed query, WHY has nothing to explain.
  auto why = client.Call("WHY\n");
  ASSERT_TRUE(why.ok());
  EXPECT_FALSE(why.value().ok);

  // The new modes are valid session settings.
  for (const char* mode : {"datalog", "auto"}) {
    auto set = client.Set(std::string("mode=") + mode);
    ASSERT_TRUE(set.ok());
    EXPECT_TRUE(set.value().ok) << mode << ": " << set.value().head;
    auto result = client.Query(std::string(kPrefixes) +
                               "SELECT ?x WHERE { ?x rdf:type ex:Animal }");
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().ok) << mode << ": " << result.value().head;
    EXPECT_NE(result.value().head.find("rows=1"), std::string::npos)
        << mode << ": " << result.value().head;
  }

  // The auto-routed query above left a decision for WHY to render.
  why = client.Call("WHY\n");
  ASSERT_TRUE(why.ok());
  EXPECT_TRUE(why.value().ok) << why.value().head;
  EXPECT_NE(why.value().head.find("route="), std::string::npos)
      << why.value().head;
  EXPECT_NE(why.value().head.find("model_version="), std::string::npos);
  EXPECT_FALSE(why.value().body.empty());  // the rationale line

  // INFO surfaces the wdr.auto.* routing counters.
  auto info = client.Call("INFO\n");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().ok);
  EXPECT_NE(info.value().head.find("auto_fallbacks="), std::string::npos)
      << info.value().head;
  EXPECT_NE(info.value().head.find("auto_refreshes="), std::string::npos);
}

TEST_F(ServerProtocolTest, MalformedRequestsGetErrorsNotDisconnects) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  // Unknown verbs, empty frames, bad SPARQL: ERR responses, session lives.
  for (const char* junk :
       {"FROBNICATE\n", "\n", "", "query lowercase\n", "QUERY\nnot sparql"}) {
    auto response = client.Call(junk);
    ASSERT_TRUE(response.ok()) << junk;
    EXPECT_FALSE(response.value().ok) << junk;
  }
  auto alive = client.Call("PING\n");
  ASSERT_TRUE(alive.ok());
  EXPECT_TRUE(alive.value().ok);
}

TEST_F(ServerProtocolTest, OversizedFrameClaimIsRejectedWithoutAllocation) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  StartServer(options);

  const int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  std::string greeting;
  ASSERT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &greeting),
            FrameReadResult::kOk);

  // Claim a 256 MiB frame. The server must answer with an ERR frame and
  // close — without ever allocating the claimed buffer.
  const unsigned char prefix[4] = {0x10, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(fd, prefix, 4, 0), 4);
  std::string response;
  ASSERT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &response),
            FrameReadResult::kOk);
  EXPECT_EQ(response.rfind("ERR ", 0), 0u) << response;
  EXPECT_NE(response.find("frame exceeds limit"), std::string::npos);
  // And the connection is closed behind it.
  EXPECT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &response),
            FrameReadResult::kClosed);
  ::close(fd);
}

TEST_F(ServerProtocolTest, TruncatedFrameTearsSessionDownCleanly) {
  StartServer();
  const int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  std::string greeting;
  ASSERT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &greeting),
            FrameReadResult::kOk);
  ASSERT_TRUE(WaitFor([&] { return server_->active_sessions() == 1; }));

  // Claim 100 bytes, deliver 10, vanish.
  const unsigned char prefix[4] = {0x00, 0x00, 0x00, 0x64};
  ASSERT_EQ(::send(fd, prefix, 4, 0), 4);
  ASSERT_EQ(::send(fd, "0123456789", 10, 0), 10);
  ::close(fd);
  // TearDown asserts the session count returns to zero.
}

TEST_F(ServerProtocolTest, AbruptMidSessionDisconnectIsCleanedUp) {
  StartServer();
  for (int round = 0; round < 3; ++round) {
    const int fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0);
    std::string greeting;
    ASSERT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &greeting),
              FrameReadResult::kOk);
    // Half a prefix, then gone.
    const unsigned char half[2] = {0x00, 0x00};
    ASSERT_EQ(::send(fd, half, 2, 0), 2);
    ::close(fd);
  }
  // And a polite client still gets served afterwards.
  ASSERT_TRUE(WaitFor([&] { return server_->active_sessions() == 0; }));
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  auto ping = client.Call("PING\n");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping.value().ok);
}

TEST_F(ServerProtocolTest, SlowReaderIsDisconnectedBySendTimeout) {
  ServerOptions options;
  options.send_timeout_ms = 200;  // server gives up on a clogged socket
  StartServer(options);

  // Bulk up the store so each QUERY response is tens of KB.
  std::string bulk = "@prefix ex: <http://ex.org/> .\n";
  for (int i = 0; i < 3000; ++i) {
    bulk += "ex:s" + std::to_string(i) + " ex:edge ex:o" + std::to_string(i) +
            " .\n";
  }
  ASSERT_TRUE(store_.LoadTurtle(bulk).ok());

  const int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  // Our own sends must not block forever once buffers fill either.
  struct timeval tv = {0, 200 * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  std::string greeting;
  ASSERT_EQ(ReadFrame(fd, kDefaultMaxFrameBytes, &greeting),
            FrameReadResult::kOk);

  // Pipeline queries without ever reading a response. Responses pile up
  // in the socket buffers until the server's send blocks and times out;
  // the session must then be torn down, not left wedged.
  const std::string query = std::string("QUERY\n") + kPrefixes +
                            "SELECT ?x ?y WHERE { ?x ex:edge ?y }";
  for (int i = 0; i < 512; ++i) {
    if (!WriteFrame(fd, query)) break;  // buffers full: server is clogged
  }
  EXPECT_TRUE(WaitFor([&] { return server_->active_sessions() == 0; }));
  ::close(fd);
}

TEST_F(ServerProtocolTest, AdmissionControlRejectsAndRecovers) {
  ServerOptions options;
  options.max_sessions = 2;
  StartServer(options);

  Client a, b;
  ASSERT_TRUE(a.Connect(server_->port()).ok());
  ASSERT_TRUE(b.Connect(server_->port()).ok());
  ASSERT_TRUE(WaitFor([&] { return server_->active_sessions() == 2; }));

  // The third connection is rejected with a reason, not a bare RST.
  Client c;
  const Status rejected = c.Connect(server_->port());
  EXPECT_FALSE(rejected.ok());
  EXPECT_NE(rejected.ToString().find("server full"), std::string::npos)
      << rejected.ToString();

  // Capacity frees up once a session leaves.
  a.Close();
  ASSERT_TRUE(WaitFor([&] { return server_->active_sessions() <= 1; }));
  Client d;
  EXPECT_TRUE(WaitFor([&] { return d.Connect(server_->port()).ok(); }));
  auto ping = d.Call("PING\n");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping.value().ok);
}

// Regression: the accept loop's lazy reap used to join EVERY registered
// session thread — live ones included — while holding the registry lock,
// deadlocking against the live session's own exit path once churn pushed
// the thread count past max_sessions*2. With one session pinned open,
// churn well past that threshold; the accept loop must keep admitting
// (a recurrence shows up as this test hanging).
TEST_F(ServerProtocolTest, SessionChurnWithLiveSessionDoesNotWedgeAccept) {
  ServerOptions options;
  options.max_sessions = 4;
  StartServer(options);

  Client pinned;
  ASSERT_TRUE(pinned.Connect(server_->port()).ok());

  for (int i = 0; i < 24; ++i) {  // 3x the old join-all threshold
    Client churn;
    ASSERT_TRUE(churn.Connect(server_->port()).ok()) << "iteration " << i;
    auto ping = churn.Call("PING\n");
    ASSERT_TRUE(ping.ok());
    EXPECT_TRUE(ping.value().ok);
    churn.Close();
    ASSERT_TRUE(WaitFor([&] { return server_->active_sessions() == 1; }));
  }

  // The pinned session stayed live through all of it and still works.
  auto ping = pinned.Call("PING\n");
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping.value().ok);
}

// Regression: plan_cache_entries=0 (caching disabled) used to evict the
// just-inserted entry on the miss path and dereference the empty LRU.
TEST_F(ServerProtocolTest, ZeroCapacityPlanCacheServesQueries) {
  ServerOptions options;
  options.plan_cache_entries = 0;
  StartServer(options);
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());

  const std::string query = std::string(kPrefixes) +
                            "SELECT ?x WHERE { ?x rdf:type ex:Animal }";
  for (int i = 0; i < 2; ++i) {
    auto result = client.Query(query);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().ok) << result.value().head;
    EXPECT_NE(result.value().head.find("rows=1"), std::string::npos);
  }
  // A disabled cache records neither hits nor misses.
  auto info = client.Call("INFO\n");
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info.value().head.find("plan_hits=0"), std::string::npos);
  EXPECT_NE(info.value().head.find("plan_misses=0"), std::string::npos);
}

TEST_F(ServerProtocolTest, UpdatesVisibleToOtherSessionsWithNewEpoch) {
  StartServer();
  Client writer, reader;
  ASSERT_TRUE(writer.Connect(server_->port()).ok());
  ASSERT_TRUE(reader.Connect(server_->port()).ok());

  auto update = writer.Update(std::string(kPrefixes) +
                              "INSERT DATA { ex:felix a ex:Cat }");
  ASSERT_TRUE(update.ok());
  EXPECT_TRUE(update.value().ok) << update.value().head;
  EXPECT_NE(update.value().head.find("inserted=1"), std::string::npos);
  EXPECT_NE(update.value().head.find("epoch=2"), std::string::npos);

  auto result = reader.Query(std::string(kPrefixes) +
                             "SELECT ?x WHERE { ?x rdf:type ex:Animal }");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().ok);
  EXPECT_NE(result.value().head.find("rows=2"), std::string::npos)
      << result.value().head;
  EXPECT_NE(result.value().head.find("epoch=2"), std::string::npos);
}

// A failed write changes nothing, so it must publish nothing: the epoch
// stays put and the session's cached plan for that epoch stays valid.
TEST_F(ServerProtocolTest, FailedUpdatePublishesNoEpoch) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  const std::string query = std::string(kPrefixes) +
                            "SELECT ?x WHERE { ?x rdf:type ex:Animal }";
  auto first = client.Query(query);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.value().ok) << first.value().head;

  auto update = client.Update(std::string(kPrefixes) +
                              "INSERT DATA { ex:felix a ex:Cat ");
  ASSERT_TRUE(update.ok());
  EXPECT_FALSE(update.value().ok);

  auto ping = client.Call("PING\n");
  ASSERT_TRUE(ping.ok());
  EXPECT_NE(ping.value().head.find("epoch=1"), std::string::npos)
      << ping.value().head;

  auto again = client.Query(query);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().ok) << again.value().head;
  EXPECT_NE(again.value().head.find("rows=1"), std::string::npos)
      << again.value().head;
  auto info = client.Call("INFO\n");
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info.value().head.find("plan_hits=1"), std::string::npos)
      << info.value().head;
  EXPECT_NE(info.value().head.find("plan_misses=1"), std::string::npos)
      << info.value().head;

  // The sides still agree: good writes after the failed one land on both,
  // and each side in turn serves the right answers.
  int epoch = 1;
  for (const char* cat : {"felix", "garfield"}) {
    update = client.Update(std::string(kPrefixes) + "INSERT DATA { ex:" +
                           cat + " a ex:Cat }");
    ASSERT_TRUE(update.ok());
    EXPECT_TRUE(update.value().ok) << update.value().head;
    ++epoch;
    auto after = client.Query(query);
    ASSERT_TRUE(after.ok());
    EXPECT_NE(after.value().head.find("rows=" + std::to_string(epoch) +
                                      " epoch=" + std::to_string(epoch)),
              std::string::npos)
        << after.value().head;
  }
}

// A multi-block UPDATE whose later block is malformed answers ERR before
// any term is interned: neither side's dictionary grows.
TEST_F(ServerProtocolTest, FailedUpdateInternsNoTerms) {
  StartServer();
  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  const size_t before[2] = {store_.dictionary_size(0),
                            store_.dictionary_size(1)};
  auto update = client.Update(std::string(kPrefixes) +
                              "INSERT DATA { ex:newcomer a ex:Cat } ;\n"
                              "INSERT DATA { ex:stranger a ex:Dog ");
  ASSERT_TRUE(update.ok());
  EXPECT_FALSE(update.value().ok);
  // PING is answered after the writer is done with both sides.
  ASSERT_TRUE(client.Call("PING\n").ok());
  EXPECT_EQ(store_.dictionary_size(0), before[0]);
  EXPECT_EQ(store_.dictionary_size(1), before[1]);
}

// Each frame is one send and both ends set TCP_NODELAY, so a request's
// round trip is not held by a delayed ACK (~40 ms each). Two sends per
// frame without TCP_NODELAY make these 220 round trips take >= 17 s.
TEST_F(ServerProtocolTest, RoundTripsDoNotWaitOnDelayedAcks) {
  StartServer();
  std::string bulk = "@prefix ex: <http://ex.org/> .\n";
  for (int i = 0; i < 3000; ++i) {
    bulk += "ex:s" + std::to_string(i) + " ex:edge ex:o" + std::to_string(i) +
            " .\n";
  }
  ASSERT_TRUE(store_.LoadTurtle(bulk).ok());

  Client client;
  ASSERT_TRUE(client.Connect(server_->port()).ok());
  const std::string query =
      std::string(kPrefixes) + "SELECT ?x ?y WHERE { ?x ex:edge ?y }";
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 200; ++i) {
    auto ping = client.Call("PING\n");
    ASSERT_TRUE(ping.ok());
    ASSERT_TRUE(ping.value().ok);
  }
  for (int i = 0; i < 20; ++i) {
    auto result = client.Query(query);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result.value().ok) << result.value().head;
    ASSERT_GT(result.value().body.size(), size_t{64} << 10);
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 2.0);
}

TEST_F(ServerProtocolTest, RawConnectSetsNoDelay) {
  StartServer();
  const int fd = RawConnect(server_->port());
  ASSERT_GE(fd, 0);
  int on = 0;
  socklen_t len = sizeof(on);
  ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len), 0);
  EXPECT_EQ(on, 1);
  ::close(fd);
}

TEST_F(ServerProtocolTest, StopWithLiveSessionsJoinsEverything) {
  StartServer();
  Client idle1, idle2;
  ASSERT_TRUE(idle1.Connect(server_->port()).ok());
  ASSERT_TRUE(idle2.Connect(server_->port()).ok());
  ASSERT_TRUE(WaitFor([&] { return server_->active_sessions() == 2; }));
  // Stop must unblock both sessions from their recv and join; this must
  // not hang and must leave zero sessions (checked in TearDown too).
  server_->Stop();
  EXPECT_EQ(server_->active_sessions(), 0u);
  EXPECT_FALSE(server_->running());
}

// Frame- and parse-level unit coverage (no sockets).
TEST(ProtocolTest, RequestParsing) {
  const Request full = ParseRequest("QUERY limit=5\nSELECT * WHERE {}");
  EXPECT_EQ(full.verb, "QUERY");
  EXPECT_EQ(full.args, "limit=5");
  EXPECT_EQ(full.body, "SELECT * WHERE {}");

  const Request bare = ParseRequest("PING");
  EXPECT_EQ(bare.verb, "PING");
  EXPECT_TRUE(bare.args.empty());
  EXPECT_TRUE(bare.body.empty());

  const Request empty = ParseRequest("");
  EXPECT_TRUE(empty.verb.empty());
}

TEST(ProtocolTest, ResponseRoundTrip) {
  const Response ok = ParseResponse(OkResponse("rows=3 epoch=7", "a\tb\n"));
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.head, "rows=3 epoch=7");
  EXPECT_EQ(ok.body, "a\tb\n");

  const Response err =
      ParseResponse(ErrResponse(InvalidArgumentError("nope")));
  EXPECT_FALSE(err.ok);
  EXPECT_NE(err.head.find("nope"), std::string::npos);

  const Response garbage = ParseResponse("WAT\n");
  EXPECT_FALSE(garbage.ok);
}

}  // namespace
}  // namespace wdr::server
