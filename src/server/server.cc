#include "server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"

namespace wdr::server {
namespace {

// Per-session state: read settings, per-query timeout, and the plan cache.
// Owned and touched by exactly one session thread.
struct SessionStateImpl {
  store::ReadOptions read_options;
  uint64_t query_timeout_ms = 0;
  SnapshotStore::PlanCache plan_cache;
  uint64_t queries = 0;
  uint64_t updates = 0;

  SessionStateImpl(uint64_t timeout_ms, size_t plan_cache_entries)
      : query_timeout_ms(timeout_ms), plan_cache(plan_cache_entries) {}
};

void SetSocketTimeouts(int fd, int recv_ms, int send_ms) {
  const auto to_timeval = [](int ms) {
    struct timeval tv;
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    return tv;
  };
  if (recv_ms > 0) {
    struct timeval tv = to_timeval(recv_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  if (send_ms > 0) {
    struct timeval tv = to_timeval(send_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
}

// "k=v k=v ..." settings parser for SET. Unknown keys and malformed
// values are errors — a client typo should not silently change nothing.
Status ApplySetting(SessionStateImpl& session, std::string_view key,
                    std::string_view value) {
  const auto parse_bool = [&](std::optional<bool>* out) -> Status {
    if (value == "1" || value == "true") {
      *out = true;
    } else if (value == "0" || value == "false") {
      *out = false;
    } else if (value == "default") {
      out->reset();
    } else {
      return InvalidArgumentError("expected 0/1/default for " +
                                  std::string(key));
    }
    return Status::Ok();
  };
  if (key == "mode") {
    if (value == "default") {
      session.read_options.mode.reset();
    } else if (value == "none") {
      session.read_options.mode = store::ReasoningMode::kNone;
    } else if (value == "saturation") {
      session.read_options.mode = store::ReasoningMode::kSaturation;
    } else if (value == "reformulation") {
      session.read_options.mode = store::ReasoningMode::kReformulation;
    } else if (value == "backward") {
      session.read_options.mode = store::ReasoningMode::kBackward;
    } else if (value == "datalog") {
      session.read_options.mode = store::ReasoningMode::kDatalog;
    } else if (value == "auto") {
      session.read_options.mode = store::ReasoningMode::kAuto;
    } else {
      return InvalidArgumentError("unknown mode: " + std::string(value));
    }
    return Status::Ok();
  }
  if (key == "plan") return parse_bool(&session.read_options.plan);
  if (key == "encoding") return parse_bool(&session.read_options.encoding);
  if (key == "timeout_ms") {
    uint64_t ms = 0;
    for (char c : value) {
      if (c < '0' || c > '9') {
        return InvalidArgumentError("timeout_ms must be a number");
      }
      ms = ms * 10 + static_cast<uint64_t>(c - '0');
    }
    if (value.empty()) return InvalidArgumentError("timeout_ms must be a number");
    session.query_timeout_ms = ms;  // 0 = no deadline
    return Status::Ok();
  }
  return InvalidArgumentError("unknown setting: " + std::string(key));
}

Status ApplySettings(SessionStateImpl& session, std::string_view args) {
  size_t pos = 0;
  bool any = false;
  while (pos < args.size()) {
    size_t end = args.find(' ', pos);
    if (end == std::string_view::npos) end = args.size();
    const std::string_view token = args.substr(pos, end - pos);
    pos = end + 1;
    if (token.empty()) continue;
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgumentError("expected k=v, got: " + std::string(token));
    }
    WDR_RETURN_IF_ERROR(
        ApplySetting(session, token.substr(0, eq), token.substr(eq + 1)));
    any = true;
  }
  if (!any) return InvalidArgumentError("SET requires k=v arguments");
  return Status::Ok();
}

// Renders a ResultSet body: one tab-separated header line of variable
// names, then one line per row. Terms never contain raw tabs/newlines
// (Turtle escapes them), so the framing is unambiguous.
std::string RenderRows(const SnapshotStore::ReadResult& result) {
  std::string body;
  for (size_t i = 0; i < result.var_names.size(); ++i) {
    if (i != 0) body += '\t';
    body += result.var_names[i];
  }
  body += '\n';
  for (const auto& row : result.rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i != 0) body += '\t';
      body += row[i];
    }
    body += '\n';
  }
  return body;
}

}  // namespace

// The definition the forward declaration in server.h points at. Wrapping
// the impl keeps <optional>/PlanCache details out of the header's
// HandleFrame signature.
struct SessionState : SessionStateImpl {
  using SessionStateImpl::SessionStateImpl;
};

Server::Server(SnapshotStore& store, ServerOptions options)
    : store_(store), options_(options) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return FailedPreconditionError("server already running");
  }
  WDR_RETURN_IF_ERROR(listener_.Start(options_.port));
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();

  // Nudge every live session off its blocking recv, then join all
  // session threads (including already-finished ones not yet reaped).
  // Joining happens outside sessions_mu_: exiting sessions need it to
  // erase their fd and announce completion.
  std::unordered_map<uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& [id, fd] : session_fds_) {
      ::shutdown(fd, SHUT_RDWR);
    }
    threads.swap(session_threads_);
    finished_sessions_.clear();
  }
  for (auto& [id, t] : threads) {
    if (t.joinable()) t.join();
  }
}

size_t Server::active_sessions() const {
  return active_sessions_.load(std::memory_order_acquire);
}

void Server::AcceptLoop() {
  auto& metrics = obs::MetricsRegistry::Get();
  while (running_.load(std::memory_order_acquire)) {
    const int fd = listener_.Accept();
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      continue;  // transient accept failure
    }
    SetSocketTimeouts(fd, options_.recv_timeout_ms, options_.send_timeout_ms);
    SetNoDelay(fd);

    // Admission control: greet-and-close when the session table is full.
    // The reject is a well-formed ERR frame, so clients see a reason
    // instead of a bare RST.
    const size_t active =
        active_sessions_.fetch_add(1, std::memory_order_acq_rel);
    if (active >= options_.max_sessions) {
      active_sessions_.fetch_sub(1, std::memory_order_acq_rel);
      metrics.GetCounter("wdr.server.sessions.rejected").Add(1);
      WriteFrame(fd, ErrResponse(UnavailableError(
                         "server full (" +
                         std::to_string(options_.max_sessions) +
                         " sessions)")));
      ::close(fd);
      continue;
    }
    metrics.GetCounter("wdr.server.sessions.accepted").Add(1);

    uint64_t session_id;
    std::vector<std::thread> reaped;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      session_id = next_session_id_++;
      session_fds_.emplace(session_id, fd);
      // Lazy reap: move out exactly the threads whose sessions announced
      // completion, so the registry stays small under session churn. Only
      // finished threads leave here — a live thread must never be joined
      // under sessions_mu_ (its exit path locks it to erase its fd).
      for (uint64_t finished_id : finished_sessions_) {
        auto it = session_threads_.find(finished_id);
        if (it != session_threads_.end()) {
          reaped.push_back(std::move(it->second));
          session_threads_.erase(it);
        }
      }
      finished_sessions_.clear();
      session_threads_.emplace(
          session_id,
          std::thread([this, fd, session_id] { ServeSession(fd, session_id); }));
    }
    // Join outside the lock: these threads have already pushed their ids
    // onto finished_sessions_, so they finish (at most the post-announce
    // tail) without needing anything we hold.
    for (std::thread& t : reaped) {
      if (t.joinable()) t.join();
    }
  }
}

void Server::ServeSession(int fd, uint64_t session_id) {
  auto& metrics = obs::MetricsRegistry::Get();
  metrics.GetGauge("wdr.server.sessions.active")
      .Set(static_cast<int64_t>(active_sessions_.load(std::memory_order_acquire)));

  SessionState session(options_.query_timeout_ms, options_.plan_cache_entries);

  // Server speaks first: greeting carries protocol version, session id,
  // and the published epoch, so a client can sanity-check compatibility
  // before sending anything.
  const std::string greeting = OkResponse(
      "wdr proto=" + std::to_string(kProtocolVersion) +
      " session=" + std::to_string(session_id) +
      " epoch=" + std::to_string(store_.epoch()));
  bool alive = WriteFrame(fd, greeting);

  std::string payload;
  while (alive && running_.load(std::memory_order_acquire)) {
    const FrameReadResult read =
        ReadFrame(fd, options_.max_frame_bytes, &payload);
    if (read == FrameReadResult::kClosed) break;  // clean disconnect
    if (read == FrameReadResult::kTruncated) {
      // Abrupt disconnect, mid-frame EOF, or idle timeout: nothing sane
      // to answer into — just tear the session down.
      metrics.GetCounter("wdr.server.frames.truncated").Add(1);
      break;
    }
    if (read == FrameReadResult::kOversized) {
      metrics.GetCounter("wdr.server.frames.oversized").Add(1);
      WriteFrame(fd, ErrResponse(InvalidArgumentError(
                         "frame exceeds limit of " +
                         std::to_string(options_.max_frame_bytes) +
                         " bytes")));
      break;  // the stream is desynchronized; close
    }
    alive = HandleFrame(fd, session_id, payload, session);
  }

  // Deregister before closing: once the fd leaves session_fds_, Stop()
  // can no longer ::shutdown() it, so the close below cannot race a
  // nudge aimed at a recycled descriptor number. The finished-id push is
  // this thread's completion announcement to the accept-loop reaper.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    session_fds_.erase(session_id);
    finished_sessions_.push_back(session_id);
  }
  ::close(fd);
  active_sessions_.fetch_sub(1, std::memory_order_acq_rel);
  metrics.GetCounter("wdr.server.sessions.closed").Add(1);
  metrics.GetGauge("wdr.server.sessions.active")
      .Set(static_cast<int64_t>(active_sessions_.load(std::memory_order_acquire)));
}

bool Server::HandleFrame(int fd, uint64_t session_id, std::string_view payload,
                         SessionState& session) {
  auto& metrics = obs::MetricsRegistry::Get();
  const Request request = ParseRequest(payload);

  if (request.verb == "QUERY") {
    Timer timer;
    store::ReadOptions options = session.read_options;
    if (session.query_timeout_ms > 0) {
      options.deadline_nanos =
          SteadyNowNanos() + session.query_timeout_ms * 1'000'000ull;
    }
    auto result = store_.Query(request.body, options, &session.plan_cache);
    metrics.GetHistogram("wdr.server.latency.query")
        .RecordSeconds(timer.ElapsedSeconds());
    ++session.queries;
    if (!result.ok()) {
      metrics.GetCounter("wdr.server.queries.failed").Add(1);
      return WriteFrame(fd, ErrResponse(result.status()));
    }
    metrics.GetCounter("wdr.server.queries").Add(1);
    const SnapshotStore::ReadResult& r = result.value();
    return WriteFrame(
        fd, OkResponse("rows=" + std::to_string(r.row_count) +
                           " epoch=" + std::to_string(r.epoch) +
                           " union=" + std::to_string(r.info.union_size),
                       RenderRows(r)));
  }

  if (request.verb == "UPDATE") {
    Timer timer;
    auto result = store_.Update(request.body);
    metrics.GetHistogram("wdr.server.latency.update")
        .RecordSeconds(timer.ElapsedSeconds());
    ++session.updates;
    if (!result.ok()) {
      metrics.GetCounter("wdr.server.updates.failed").Add(1);
      return WriteFrame(fd, ErrResponse(result.status()));
    }
    metrics.GetCounter("wdr.server.updates").Add(1);
    const store::UpdateInfo& info = result.value();
    return WriteFrame(
        fd, OkResponse("inserted=" + std::to_string(info.inserted) +
                       " deleted=" + std::to_string(info.deleted) +
                       " closure_delta=" + std::to_string(info.closure_delta) +
                       " epoch=" + std::to_string(store_.epoch())));
  }

  if (request.verb == "SET") {
    const Status status = ApplySettings(session, request.args);
    if (!status.ok()) return WriteFrame(fd, ErrResponse(status));
    return WriteFrame(fd, OkResponse());
  }

  if (request.verb == "PING") {
    return WriteFrame(
        fd, OkResponse("epoch=" + std::to_string(store_.epoch())));
  }

  if (request.verb == "INFO") {
    const auto counter = [&](const char* name) {
      return std::to_string(metrics.GetCounter(name).value());
    };
    std::string head =
        "epoch=" + std::to_string(store_.epoch()) +
        " size=" + std::to_string(store_.size()) +
        " mode=" +
        store::ReasoningModeName(
            session.read_options.mode.value_or(store_.mode())) +
        " sessions=" + std::to_string(active_sessions()) +
        " session=" + std::to_string(session_id) +
        " plan_hits=" + std::to_string(session.plan_cache.hits()) +
        " plan_misses=" + std::to_string(session.plan_cache.misses()) +
        " auto_saturation=" + counter("wdr.auto.decisions.saturation") +
        " auto_reformulation=" + counter("wdr.auto.decisions.reformulation") +
        " auto_backward=" + counter("wdr.auto.decisions.backward") +
        " auto_datalog=" + counter("wdr.auto.decisions.datalog") +
        " auto_fallbacks=" + counter("wdr.auto.fallbacks") +
        " auto_refreshes=" + counter("wdr.auto.model_refreshes");
    return WriteFrame(fd, OkResponse(head));
  }

  if (request.verb == "WHY") {
    // The last kAuto routing decision on the published side — the wire
    // counterpart of the shell's `.why`.
    const std::optional<analysis::RouteDecision> decision =
        store_.LastAutoDecision();
    if (!decision.has_value()) {
      return WriteFrame(fd, ErrResponse(NotFoundError(
                                "no auto-routed query yet (SET mode=auto, "
                                "then QUERY)")));
    }
    const std::string head =
        std::string("route=") + analysis::RouteName(decision->route) +
        " fallback=" + (decision->fallback ? "1" : "0") +
        " per_key=" + (decision->per_key ? "1" : "0") +
        " closure=" + (decision->closure_available ? "1" : "0") +
        " model_version=" + std::to_string(decision->model_version);
    return WriteFrame(fd, OkResponse(head, decision->rationale + "\n"));
  }

  if (request.verb == "BYE") {
    WriteFrame(fd, OkResponse("bye"));
    return false;
  }

  metrics.GetCounter("wdr.server.requests.unknown").Add(1);
  return WriteFrame(fd, ErrResponse(InvalidArgumentError(
                            "unknown verb: " + std::string(request.verb))));
}

}  // namespace wdr::server
