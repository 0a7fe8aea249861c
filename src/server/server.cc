#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <deque>
#include <utility>

#include "analyze/audit.h"
#include "analyze/diagnostic.h"
#include "common/failpoint.h"
#include "evolve/evolution.h"
#include "observe/metrics.h"
#include "relational/csv.h"

namespace dynview {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK) failed: " +
                            std::string(strerror(errno)));
  }
  return Status::OK();
}

AdmissionController::Lane LaneOf(Verb verb) {
  switch (verb) {
    case Verb::kQuery:
    case Verb::kExecute:
      return AdmissionController::Lane::kHeavy;
    default:
      return AdmissionController::Lane::kCheap;
  }
}

SourcePolicy ParseSourcePolicy(const std::string& name, SourcePolicy def) {
  if (name == "fail_fast") return SourcePolicy::kFailFast;
  if (name == "retry") return SourcePolicy::kRetry;
  if (name == "skip_and_report") return SourcePolicy::kSkipAndReport;
  return def;
}

}  // namespace

/// Per-connection state. The reactor thread owns fd/decoder/handshake
/// fields exclusively; `mu` guards the outbox, the in-flight query map and
/// the prepared-statement table (shared with pool workers).
struct QueryServer::Connection {
  int fd = -1;
  uint64_t session = 0;
  bool handshaken = false;
  FrameDecoder decoder;
  bool close_after_flush = false;

  std::mutex mu;
  bool closed = false;  // fd gone; workers must drop writes.
  std::deque<std::string> outbox;
  size_t front_off = 0;
  std::unordered_map<uint64_t, std::shared_ptr<QueryContext>> inflight;
  std::unordered_map<uint64_t, std::shared_ptr<PreparedQuery>> prepared;
  uint64_t next_prepared = 1;

  explicit Connection(size_t max_frame) : decoder(max_frame) {}
};

QueryServer::QueryServer(IntegrationSystem* system, ServerOptions options)
    : system_(system), options_(std::move(options)) {
  pool_ = system_->engine()->EnsurePool();
  if (pool_ == nullptr) {
    // Serial engine: the server still needs workers to keep the reactor
    // non-blocking. Requests on this private pool run their queries inline
    // (nested ParallelFor on a worker degrades to serial), preserving the
    // engine's serial semantics.
    size_t workers =
        options_.fallback_workers > 0 ? options_.fallback_workers : 4;
    own_pool_ = std::make_unique<ThreadPool>(
        workers, system_->engine()->exec_config().max_queued_tasks);
    pool_ = own_pool_.get();
  }
  admission_ =
      std::make_unique<AdmissionController>(pool_, options_.admission);
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already started");
  }
  Status fp = FailPoints::Check("server.accept", "listen");
  if (!fp.ok()) {
    metrics_.Add(counters::kServerFailpointTrips, 1);
    return Status::Unavailable("listen failpoint: " + fp.message());
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable("socket() failed: " +
                               std::string(strerror(errno)));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host \"" + options_.host +
                                   "\"");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      listen(listen_fd_, 128) < 0) {
    Status s = Status::Unavailable("bind/listen on " + options_.host + ":" +
                                   std::to_string(options_.port) +
                                   " failed: " + strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  DV_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  if (pipe(wake_fd_) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("pipe() failed: " + std::string(strerror(errno)));
  }
  SetNonBlocking(wake_fd_[0]);
  SetNonBlocking(wake_fd_[1]);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  reactor_ = std::thread([this] { ReactorLoop(); });
  return Status::OK();
}

void QueryServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  WakeReactor();
  if (reactor_.joinable()) reactor_.join();
  // Run whatever admission still queued: the closures observe stopping_ and
  // only perform their completion bookkeeping.
  admission_->Shutdown();
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this] { return inflight_tasks_ == 0; });
  }
  // No reactor, no workers: the last possible WakeReactor has happened.
  if (wake_fd_[0] >= 0) {
    close(wake_fd_[0]);
    close(wake_fd_[1]);
    wake_fd_[0] = wake_fd_[1] = -1;
  }
}

void QueryServer::WakeReactor() {
  if (wake_fd_[1] >= 0) {
    char b = 1;
    ssize_t ignored = write(wake_fd_[1], &b, 1);
    (void)ignored;  // A full pipe already wakes the reactor.
  }
}

std::map<std::string, uint64_t> QueryServer::MetricsSnapshot() const {
  std::map<std::string, uint64_t> out = metrics_.Merged();
  AdmissionController::Snapshot adm = admission_->snapshot();
  out["server.admission_running"] = adm.running;
  out["server.admission_queued_cheap"] = adm.queued_cheap;
  out["server.admission_queued_heavy"] = adm.queued_heavy;
  // The integration system's plan_cache.* and analyze.* families and, when
  // durable, the storage.* family: every tier's counters in one reply.
  out.merge(system_->metrics().Merged());
  if (const MetricsRegistry* storage = system_->storage_metrics()) {
    out.merge(storage->Merged());
  }
  return out;
}

// --- Reactor ---------------------------------------------------------------

void QueryServer::ReactorLoop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    polled.clear();
    fds.push_back(pollfd{wake_fd_[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      short events = POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->outbox.empty()) events |= POLLOUT;
      }
      fds.push_back(pollfd{fd, events, 0});
      polled.push_back(conn);
    }
    int n = poll(fds.data(), fds.size(), 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // Unrecoverable poll failure; shut down cleanly below.
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (read(wake_fd_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[1].revents & POLLIN) AcceptReady();
    for (size_t i = 0; i < polled.size(); ++i) {
      const pollfd& p = fds[i + 2];
      const std::shared_ptr<Connection>& conn = polled[i];
      // The connection may have been closed by an earlier event this round.
      if (conns_.find(p.fd) == conns_.end()) continue;
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseConnection(conn, "peer reset");
        continue;
      }
      if (p.revents & POLLIN) {
        ReadReady(conn);
        if (conns_.find(p.fd) == conns_.end()) continue;
      }
      if (p.revents & POLLOUT) WriteReady(conn);
    }
  }
  // Drain: close every connection (cancelling in-flight queries) and the
  // listening socket.
  std::vector<std::shared_ptr<Connection>> all;
  all.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) all.push_back(conn);
  for (auto& conn : all) CloseConnection(conn, "server stopping");
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // The wake pipe is NOT closed here: workers still draining may call
  // WakeReactor until inflight_tasks_ hits zero. Stop() closes it after
  // that barrier.
}

void QueryServer::AcceptReady() {
  for (;;) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    Status fp = FailPoints::Check("server.accept");
    if (!fp.ok()) {
      // Degraded accept path: the client observes a clean EOF right after
      // connect and can retry; nothing of the server's state is touched.
      metrics_.Add(counters::kServerFailpointTrips, 1);
      close(fd);
      continue;
    }
    if (conns_.size() >= options_.max_sessions) {
      // Best-effort refusal frame; the fd is nonblocking, a lost frame
      // still ends in a visible close.
      ErrorReply err;
      err.status = Status::ResourceExhausted(
          "server at max sessions (" + std::to_string(options_.max_sessions) +
          "); retry later");
      err.retry_after_ms = options_.admission.retry_after_ms;
      std::string frame = EncodeFrame(EncodeError(err));
      ssize_t ignored = send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      (void)ignored;
      close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(options_.max_frame_bytes);
    conn->fd = fd;
    conns_[fd] = conn;
    metrics_.Add(counters::kServerAccepted, 1);
  }
}

void QueryServer::ReadReady(const std::shared_ptr<Connection>& conn) {
  Status fp =
      FailPoints::Check("server.read", std::to_string(conn->session));
  if (!fp.ok()) {
    metrics_.Add(counters::kServerFailpointTrips, 1);
    CloseConnection(conn, "read failpoint");
    return;
  }
  char buf[16384];
  for (;;) {
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      Status fed = conn->decoder.Feed(buf, static_cast<size_t>(n));
      if (!fed.ok()) {
        // Oversized frame declaration: the stream is unrecoverable (the
        // length itself is poisoned). Tell the client why, then drop.
        metrics_.Add(counters::kServerOversizedFrames, 1);
        ErrorReply err;
        err.status = fed;
        SendError(conn, err);
        conn->close_after_flush = true;
        return;
      }
      std::string payload;
      while (conn->decoder.Next(&payload)) {
        HandleFrame(conn, payload);
        if (conn->close_after_flush) return;
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->closed) return;
      }
      continue;
    }
    if (n == 0) {
      // EOF. A partial frame left in the decoder is a torn frame — count
      // it, then treat the whole thing as a disconnect (canceling whatever
      // the session still had running).
      if (conn->decoder.HasPartial()) {
        metrics_.Add(counters::kServerBadFrames, 1);
      }
      CloseConnection(conn, "eof");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConnection(conn, "read error");
    return;
  }
}

void QueryServer::WriteReady(const std::shared_ptr<Connection>& conn) {
  Status fp =
      FailPoints::Check("server.write", std::to_string(conn->session));
  if (!fp.ok()) {
    metrics_.Add(counters::kServerFailpointTrips, 1);
    CloseConnection(conn, "write failpoint");
    return;
  }
  for (;;) {
    std::string* front = nullptr;
    size_t off = 0;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->outbox.empty()) break;
      front = &conn->outbox.front();
      off = conn->front_off;
    }
    // MSG_NOSIGNAL: a vanished peer is a clean close, never a SIGPIPE.
    ssize_t n =
        send(conn->fd, front->data() + off, front->size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      CloseConnection(conn, "write error");
      return;
    }
    metrics_.Add(counters::kServerBytesSent, static_cast<uint64_t>(n));
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->front_off += static_cast<size_t>(n);
    if (conn->front_off >= conn->outbox.front().size()) {
      conn->outbox.pop_front();
      conn->front_off = 0;
    }
  }
  if (conn->close_after_flush) {
    CloseConnection(conn, "protocol error close");
  }
}

void QueryServer::CloseConnection(const std::shared_ptr<Connection>& conn,
                                  const char* reason) {
  (void)reason;
  std::vector<std::shared_ptr<QueryContext>> to_cancel;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    conn->outbox.clear();
    conn->front_off = 0;
    for (auto& [id, ctx] : conn->inflight) to_cancel.push_back(ctx);
    conn->inflight.clear();
    if (conn->fd >= 0) {
      close(conn->fd);
    }
  }
  // Cooperative cancellation outside the lock: in-flight queries observe it
  // at their next guard check; their results are dropped at SendFrames.
  for (auto& ctx : to_cancel) {
    ctx->Cancel();
    metrics_.Add(counters::kServerDisconnectCancels, 1);
  }
  conns_.erase(conn->fd);
  metrics_.Add(counters::kServerClosed, 1);
}

// --- Frames and requests ---------------------------------------------------

void QueryServer::SendFrames(const std::shared_ptr<Connection>& conn,
                             std::vector<std::string> payloads) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;  // Disconnected mid-query: drop the result.
    for (std::string& p : payloads) {
      conn->outbox.push_back(EncodeFrame(p));
    }
  }
  WakeReactor();
}

void QueryServer::SendError(const std::shared_ptr<Connection>& conn,
                            const ErrorReply& error) {
  SendFrames(conn, {EncodeError(error)});
}

void QueryServer::HandleFrame(const std::shared_ptr<Connection>& conn,
                              const std::string& payload) {
  Result<JsonValue> doc = JsonParse(payload);
  if (!doc.ok()) {
    // Garbage inside a well-framed payload: answer, then drop the
    // connection — a peer that can't form JSON can't be trusted to frame.
    metrics_.Add(counters::kServerBadFrames, 1);
    ErrorReply err;
    err.status = doc.status();
    SendError(conn, err);
    conn->close_after_flush = true;
    return;
  }
  Result<Request> parsed = ParseRequest(doc.value());
  if (!parsed.ok()) {
    // Well-formed JSON, malformed request: a request-level error; the
    // connection survives.
    metrics_.Add(counters::kServerBadFrames, 1);
    ErrorReply err;
    err.id = static_cast<uint64_t>(doc.value().GetInt("id", 0));
    err.status = parsed.status();
    SendError(conn, err);
    return;
  }
  Request req = std::move(parsed).value();

  if (!conn->handshaken) {
    if (req.verb != Verb::kHello) {
      ErrorReply err;
      err.id = req.id;
      err.status = Status::InvalidArgument(
          "handshake required: first frame must be verb \"hello\"");
      SendError(conn, err);
      conn->close_after_flush = true;
      return;
    }
    HandleHello(conn, req);
    return;
  }
  if (req.verb == Verb::kHello) {
    ErrorReply err;
    err.id = req.id;
    err.status = Status::AlreadyExists("session already handshaken");
    SendError(conn, err);
    return;
  }

  metrics_.Add(counters::kServerRequests, 1);
  switch (req.verb) {
    case Verb::kPing: {
      DoneReply done;
      done.id = req.id;
      std::vector<std::string> frames;
      frames.push_back(EncodeDone(done));
      SendFrames(conn, std::move(frames));
      return;
    }
    case Verb::kStats: {
      // Served inline on the reactor: diagnostics stay responsive even
      // when the admission queues are at capacity.
      DoneReply done;
      done.id = req.id;
      done.stats = MetricsSnapshot();
      std::vector<std::string> frames;
      frames.push_back(EncodeDone(done));
      SendFrames(conn, std::move(frames));
      return;
    }
    default:
      AdmitRequest(conn, std::move(req));
      return;
  }
}

void QueryServer::HandleHello(const std::shared_ptr<Connection>& conn,
                              const Request& req) {
  conn->handshaken = true;
  conn->session = next_session_.fetch_add(1, std::memory_order_relaxed);
  HelloReply reply;
  reply.session = conn->session;
  reply.max_frame_bytes = options_.max_frame_bytes;
  reply.chunk_rows = options_.chunk_rows;
  reply.max_inflight = options_.admission.max_inflight_per_session;
  reply.server = "dynview-server/1";
  (void)req;
  std::vector<std::string> frames;
  frames.push_back(EncodeHelloReply(reply));
  SendFrames(conn, std::move(frames));
}

void QueryServer::AdmitRequest(const std::shared_ptr<Connection>& conn,
                               Request req) {
  const AdmissionController::Lane lane = LaneOf(req.verb);
  const uint64_t session = conn->session;
  const Clock::time_point admitted_at = Clock::now();

  // Guards: session defaults overridden per request. The deadline clock
  // starts NOW — time spent queued behind admission counts against the
  // request's deadline (end-to-end deadline propagation).
  std::shared_ptr<QueryContext> ctx;
  if (lane == AdmissionController::Lane::kHeavy) {
    QueryGuards guards = options_.session_guards;
    if (req.deadline_ms >= 0) guards.deadline_ms = req.deadline_ms;
    if (req.row_budget > 0) guards.row_budget = req.row_budget;
    if (req.byte_budget > 0) guards.byte_budget = req.byte_budget;
    guards.source_policy =
        ParseSourcePolicy(req.source_policy, guards.source_policy);
    ctx = std::make_shared<QueryContext>(guards);
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->inflight[req.id] = ctx;
  }

  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++inflight_tasks_;
  }
  auto task = [this, conn, req, ctx, lane, session, admitted_at]() {
    RunRequest(conn, req, ctx, admitted_at);
    admission_->OnComplete(lane, session);
    // Notify under the lock: once the waiting Stop() returns, the condvar
    // may be destroyed — holding the mutex through the notify keeps the
    // waiter blocked until this signal fully completes.
    std::lock_guard<std::mutex> lock(drain_mu_);
    --inflight_tasks_;
    drain_cv_.notify_all();
  };

  AdmissionController::Outcome outcome =
      admission_->Admit(lane, session, std::move(task));
  if (outcome.admitted) {
    metrics_.Add(counters::kServerAdmitted, 1);
    if (outcome.queued) metrics_.Add(counters::kServerQueued, 1);
    return;
  }

  // Shed: undo the bookkeeping and answer deterministically with the
  // retry-after hint and the queue-depth detail of the shed point.
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    --inflight_tasks_;
    drain_cv_.notify_all();
  }
  if (ctx != nullptr) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->inflight.erase(req.id);
  }
  switch (outcome.reason) {
    case AdmissionController::ShedReason::kQueueFull:
      metrics_.Add(counters::kServerShedQueueFull, 1);
      break;
    case AdmissionController::ShedReason::kSessionCap:
      metrics_.Add(counters::kServerShedSessionCap, 1);
      break;
    case AdmissionController::ShedReason::kPoolSaturated:
      metrics_.Add(counters::kServerShedPool, 1);
      break;
    case AdmissionController::ShedReason::kNone:
      break;
  }
  ErrorReply err;
  err.id = req.id;
  err.status = outcome.status;
  err.retry_after_ms = outcome.retry_after_ms;
  err.queue_depth = outcome.queue_depth;
  SendError(conn, err);
}

std::vector<std::string> QueryServer::ChunkTable(uint64_t id,
                                                 const Table& table,
                                                 DoneReply* done) const {
  done->rows = table.num_rows();
  for (TypeKind k : ColumnKindsOf(table)) {
    done->kinds.push_back(TypeKindName(k));
  }
  const std::string csv = TableToCsvTyped(table);
  std::vector<std::string> frames;
  // Split at line boundaries, chunk_rows lines per frame (the header line
  // rides in the first chunk), additionally capped well under the frame
  // limit so JSON escaping can never push a frame over it.
  const size_t max_chunk_bytes = options_.max_frame_bytes / 2;
  size_t pos = 0;
  uint64_t seq = 0;
  while (pos < csv.size()) {
    size_t lines = 0;
    size_t end = pos;
    while (end < csv.size() && lines < options_.chunk_rows &&
           end - pos < max_chunk_bytes) {
      size_t nl = csv.find('\n', end);
      if (nl == std::string::npos) {
        end = csv.size();
        break;
      }
      end = nl + 1;
      ++lines;
    }
    frames.push_back(EncodeChunk(id, seq++, csv.substr(pos, end - pos)));
    pos = end;
  }
  return frames;
}

void QueryServer::RunRequest(const std::shared_ptr<Connection>& conn,
                             const Request& req,
                             const std::shared_ptr<QueryContext>& ctx,
                             Clock::time_point admitted_at) {
  if (stopping_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;  // Client left while we were queued.
  }
  const Clock::time_point started = Clock::now();
  DoneReply done;
  done.id = req.id;
  done.queue_ms = MsBetween(admitted_at, started);

  auto finish_error = [&](const Status& s) {
    if (ctx != nullptr) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->inflight.erase(req.id);
    }
    ErrorReply err;
    err.id = req.id;
    err.status = s;
    SendError(conn, err);
  };
  // The reply of a cheap verb: one `done` frame.
  auto finish_done = [&] {
    done.exec_ms = MsBetween(started, Clock::now());
    SendFrames(conn, {EncodeDone(done)});
  };

  switch (req.verb) {
    case Verb::kQuery:
    case Verb::kExecute: {
      AnswerOptions options;
      options.multiset = req.multiset;
      options.guards = ctx->guards();
      std::shared_ptr<PreparedQuery> pq;
      if (req.verb == Verb::kExecute) {
        std::lock_guard<std::mutex> lock(conn->mu);
        auto it = conn->prepared.find(req.prepared);
        if (it != conn->prepared.end()) pq = it->second;
      }
      if (req.verb == Verb::kExecute && pq == nullptr) {
        finish_error(Status::NotFound(
            "prepared statement " + std::to_string(req.prepared) +
            " unknown on this session"));
        return;
      }
      Result<AnswerResult> r =
          req.verb == Verb::kQuery
              ? system_->AnswerGuarded(req.sql, options, ctx.get())
              : system_->ExecutePrepared(*pq, req.params, options, ctx.get());
      if (!r.ok()) {
        finish_error(r.status());
        return;
      }
      const AnswerResult& ans = r.value();
      std::vector<std::string> frames = ChunkTable(req.id, ans.table, &done);
      metrics_.Add(counters::kServerChunksSent, frames.size());
      done.warnings = ans.warnings;
      done.snapshot_version = ans.snapshot_version;
      done.plan_cached = ans.plan_cached;
      done.fingerprint = ans.plan_fingerprint;
      done.exec_ms = MsBetween(started, Clock::now());
      frames.push_back(EncodeDone(done));
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        conn->inflight.erase(req.id);
      }
      SendFrames(conn, std::move(frames));
      return;
    }
    case Verb::kExplain: {
      // The plan a `query` of the same SQL and semantics runs.
      AnswerOptions options;
      options.multiset = req.multiset;
      Result<std::string> r = system_->ExplainOptimized(req.sql, options);
      if (!r.ok()) {
        finish_error(r.status());
        return;
      }
      done.text = r.value();
      finish_done();
      return;
    }
    case Verb::kLint: {
      std::vector<Diagnostic> diags = system_->LintSources();
      done.text = RenderDiagnosticsJson(diags);
      finish_done();
      return;
    }
    case Verb::kAudit: {
      const bool json = req.format == "json";
      if (!req.what_if.empty()) {
        Result<DdlOp> op = ParseDdlOp(req.what_if);
        if (!op.ok()) {
          finish_error(op.status());
          return;
        }
        WhatIfReport report = system_->WhatIfAudit(op.value());
        done.text = json ? RenderWhatIfJson(report) : RenderWhatIfText(report);
        done.snapshot_version = report.base_version;
      } else {
        AuditReport report = system_->AuditWorkload();
        done.text = json ? RenderAuditJson(report) : RenderAuditText(report);
        done.snapshot_version = report.catalog_version;
      }
      finish_done();
      return;
    }
    case Verb::kPrepare: {
      Result<std::shared_ptr<PreparedQuery>> r = system_->Prepare(req.sql);
      if (!r.ok()) {
        finish_error(r.status());
        return;
      }
      uint64_t pid = 0;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->closed) return;
        pid = conn->next_prepared++;
        conn->prepared[pid] = r.value();
      }
      done.prepared = pid;
      done.prepared_params = r.value()->num_params();
      done.fingerprint = r.value()->fingerprint();
      finish_done();
      return;
    }
    default:
      finish_error(Status::Internal("verb not pool-executable"));
      return;
  }
}

}  // namespace dynview
