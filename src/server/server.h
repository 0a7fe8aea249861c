#ifndef DYNVIEW_SERVER_SERVER_H_
#define DYNVIEW_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "integration/integration.h"
#include "observe/metrics.h"
#include "server/admission.h"
#include "server/protocol.h"

namespace dynview {

/// Query-server configuration. Defaults serve a loopback development
/// deployment; tests shrink the admission limits to force every shed path
/// deterministically.
struct ServerOptions {
  /// Listen address. Loopback by default — this server has no auth layer,
  /// so exposing it beyond localhost is an explicit decision.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with QueryServer::port().
  int port = 0;

  AdmissionOptions admission;

  /// Default guards every request inherits (a request may override its own
  /// deadline/budgets/policy downward or upward; the admission caps, not
  /// the guards, are the server's protection).
  QueryGuards session_guards;

  /// Result streaming granularity: rows per chunk frame.
  size_t chunk_rows = 256;

  /// Negotiated maximum frame size, enforced on both inbound declarations
  /// (oversized header ⇒ connection dropped) and outbound chunking.
  size_t max_frame_bytes = 8u << 20;

  /// Concurrent connections; further accepts are refused with a
  /// kResourceExhausted error frame.
  size_t max_sessions = 64;

  /// Workers for the server's own pool when the engine runs serial
  /// (ExecConfig::num_threads == 1 has no shared pool to reuse).
  size_t fallback_workers = 4;
};

/// The network front door of the Fig. 6 architecture: a poll()-based
/// reactor accepting concurrent sessions over the length-prefixed JSON wire
/// protocol (server/wire.h, server/protocol.h), executing each admitted
/// request through IntegrationSystem::AnswerGuarded on the shared engine
/// thread pool with one pinned catalog snapshot, and streaming result
/// chunks + warnings + per-request metrics back.
///
/// Threading model:
///   * ONE reactor thread owns every fd (accept, read, frame assembly,
///     request parsing, write flushing). Nothing else touches sockets.
///   * Admitted requests run on the shared ThreadPool (the engine's own
///     pool, so intra-query morsel parallelism and cross-request
///     parallelism draw from one budget; nested ParallelFor degrades to
///     inline execution on a worker, by the pool's design). Workers never
///     write to sockets — they append encoded frames to the connection's
///     outbox and wake the reactor through a self-pipe.
///   * AdmissionController (server/admission.h) bounds everything in
///     front: concurrency, per-lane queues, per-session inflight. Overload
///     sheds deterministically with kResourceExhausted + retry-after.
///
/// Failure semantics (the robustness contract, chaos-tested under
/// ctest -L server incl. TSan):
///   * a client disconnecting mid-query cancels its in-flight
///     QueryContexts cooperatively; results for a dead connection are
///     dropped, never written to a stale fd;
///   * torn, oversized and garbage frames produce deterministic error
///     frames and/or a clean connection drop — never a crash;
///   * failpoints server.accept / server.read / server.write degrade the
///     corresponding I/O path into a clean connection close;
///   * Stop() drains: cancels in-flight work, runs queued admissions to
///     completion (they observe the stopping flag), and joins the reactor.
class QueryServer {
 public:
  /// `system` is borrowed and must outlive the server. Thread-safety relies
  /// on AnswerGuarded being callable from several threads on one system.
  explicit QueryServer(IntegrationSystem* system, ServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens and starts the reactor. Fails with kUnavailable when
  /// the address cannot be bound (or the server.accept failpoint is armed
  /// to fail the listen itself).
  Status Start();

  /// Graceful shutdown: stop accepting, cancel in-flight queries, drain the
  /// admission queues, join the reactor. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (valid after Start), host order.
  int port() const { return port_; }

  const ServerOptions& options() const { return options_; }

  /// Every counter family in one map, as named in observe/metrics.h: the
  /// server's own server.* counters plus the admission gauges, the
  /// integration system's plan_cache.* and analyze.* families and, when
  /// durable, storage.*. A counter appears once first touched (absent
  /// reads as 0). This is the wire `stats` reply. Safe to call at any time
  /// from any thread.
  std::map<std::string, uint64_t> MetricsSnapshot() const;

 private:
  struct Connection;

  void ReactorLoop();
  void AcceptReady();
  void ReadReady(const std::shared_ptr<Connection>& conn);
  void WriteReady(const std::shared_ptr<Connection>& conn);
  /// Reactor-thread only: cancels in-flight queries, closes the fd, drops
  /// the connection from the poll set. `graceful` suppresses the
  /// disconnect-cancel accounting for an orderly close with nothing
  /// running.
  void CloseConnection(const std::shared_ptr<Connection>& conn,
                       const char* reason);

  void HandleFrame(const std::shared_ptr<Connection>& conn,
                   const std::string& payload);
  void HandleHello(const std::shared_ptr<Connection>& conn,
                   const Request& req);
  /// Builds the QueryContext + closure for a pool-executed verb and runs it
  /// through admission, answering shed requests inline.
  void AdmitRequest(const std::shared_ptr<Connection>& conn, Request req);
  /// Pool-side request execution (runs on a worker).
  void RunRequest(const std::shared_ptr<Connection>& conn, const Request& req,
                  const std::shared_ptr<QueryContext>& ctx,
                  std::chrono::steady_clock::time_point admitted_at);

  /// Appends encoded frames to the connection outbox (dropped when the
  /// connection died) and wakes the reactor to flush. Any thread.
  void SendFrames(const std::shared_ptr<Connection>& conn,
                  std::vector<std::string> payloads);
  void SendError(const std::shared_ptr<Connection>& conn,
                 const ErrorReply& error);
  void WakeReactor();

  /// Splits a typed-CSV rendering into ≤chunk_rows-line frame payloads.
  std::vector<std::string> ChunkTable(uint64_t id, const Table& table,
                                      DoneReply* done) const;

  IntegrationSystem* system_;
  ServerOptions options_;
  ThreadPool* pool_ = nullptr;           // Shared engine pool, usually.
  std::unique_ptr<ThreadPool> own_pool_; // Fallback when the engine is serial.
  std::unique_ptr<AdmissionController> admission_;

  int listen_fd_ = -1;
  int wake_fd_[2] = {-1, -1};
  int port_ = 0;
  std::thread reactor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::unordered_map<int, std::shared_ptr<Connection>> conns_;  // Reactor only.
  std::atomic<uint64_t> next_session_{1};

  /// Admitted-but-unfinished pool closures; Stop() blocks until zero.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  size_t inflight_tasks_ = 0;

  /// The server.* counter family, lasting as long as the server.
  MetricsRegistry metrics_;
};

}  // namespace dynview

#endif  // DYNVIEW_SERVER_SERVER_H_
