#ifndef DYNVIEW_SERVER_PROTOCOL_H_
#define DYNVIEW_SERVER_PROTOCOL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/result.h"
#include "relational/value.h"
#include "server/wire.h"

namespace dynview {

/// Protocol version spoken by this server/client pair. Bumped when a frame
/// field changes meaning; the handshake rejects a mismatched major.
inline constexpr int kProtocolVersion = 1;

/// Request verbs. `hello` must be the first frame of a connection; `query`
/// and `execute` are the heavy lane (federated execution), the rest are the
/// cheap lane (no data movement) — see server/admission.h.
enum class Verb {
  kHello,
  kQuery,    // heavy: AnswerGuarded over sql
  kExecute,  // heavy: ExecutePrepared over a prepared id + params
  kExplain,  // cheap: ExplainOptimized, the plan `query` runs (not run)
  kLint,     // cheap: LintSources
  kAudit,    // cheap: workload audit / DDL what-if (analyze/audit.h)
  kPrepare,  // cheap: Prepare (parse + fingerprint once)
  kStats,    // cheap, answered inline on the reactor: server.* counters
  kPing,     // cheap, answered inline on the reactor
};

const char* VerbName(Verb verb);
Result<Verb> ParseVerb(const std::string& name);

/// One decoded client request. Fields default to "unset" and only apply to
/// the verbs that use them; unknown JSON fields are ignored (forward
/// compatibility), malformed known fields are InvalidArgument.
struct Request {
  uint64_t id = 0;
  Verb verb = Verb::kPing;
  std::string sql;
  bool multiset = false;

  /// Per-request guard overrides; a negative deadline / zero budget means
  /// "inherit the session default" (set at hello time from ServerOptions).
  int64_t deadline_ms = -1;
  uint64_t row_budget = 0;
  uint64_t byte_budget = 0;
  /// "fail_fast" | "retry" | "skip_and_report" | "" (inherit).
  std::string source_policy;

  /// kExecute: prepared-statement id (from a prior kPrepare reply) + params.
  uint64_t prepared = 0;
  std::vector<Value> params;

  /// kHello: client identity + requested per-session concurrency.
  std::string client;
  size_t max_inflight = 0;  // 0 = server default.

  /// kAudit: optional DDL text (DdlOp::ToString form) switching the audit
  /// into what-if blast-radius mode, and the reply rendering ("text" |
  /// "json", default "text").
  std::string what_if;
  std::string format;
};

/// Parses one request payload (already a JSON object). Protocol errors are
/// InvalidArgument/ParseError with messages safe to echo to the client.
Result<Request> ParseRequest(const JsonValue& doc);

/// Renders a request as a frame payload (client side).
std::string EncodeRequest(const Request& req);

/// Response frame types, carried in the "type" field:
///   hello — handshake acknowledgment (session id + negotiated limits)
///   chunk — one streamed slice of a result table (typed CSV, "seq"-ordered)
///   done  — terminal success frame (status OK): kinds, per-request metrics,
///           warnings, snapshot version, verb-specific payloads
///   error — terminal failure frame: status code/message, optional
///           retry_after_ms hint and queue-depth detail for shed load
struct HelloReply {
  uint64_t session = 0;
  int protocol = kProtocolVersion;
  size_t max_frame_bytes = 0;
  size_t chunk_rows = 0;
  size_t max_inflight = 0;
  std::string server;
};

std::string EncodeHelloReply(const HelloReply& reply);

std::string EncodeChunk(uint64_t id, uint64_t seq, const std::string& csv);

/// Everything the terminal success frame reports about a request.
struct DoneReply {
  uint64_t id = 0;
  uint64_t rows = 0;
  std::vector<std::string> kinds;  // Column TypeKind names; empty = no table.
  std::vector<SourceWarning> warnings;
  uint64_t snapshot_version = 0;
  bool plan_cached = false;
  std::string fingerprint;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  std::string text;  // explain / lint rendering.
  uint64_t prepared = 0;
  int prepared_params = -1;
  std::map<std::string, uint64_t> stats;  // kStats payload.
};

std::string EncodeDone(const DoneReply& reply);

struct ErrorReply {
  uint64_t id = 0;
  Status status;
  /// Load-shedding hint: come back after this many ms (0 = none — the
  /// failure is not shed load).
  int retry_after_ms = 0;
  /// Queue-depth detail ("<depth>/<cap>") distinguishing admission-queue
  /// shed from thread-pool backpressure; empty otherwise.
  std::string queue_depth;
};

std::string EncodeError(const ErrorReply& reply);

/// Typed Value codec for prepared-statement params: {"k":"INT","v":"42"}.
/// DOUBLE uses round-trip precision; DATE is YYYY-MM-DD; NULL omits "v".
void EncodeWireValue(JsonWriter& w, const Value& v);
Result<Value> DecodeWireValue(const JsonValue& doc);

Result<TypeKind> ParseTypeKindName(const std::string& name);

/// Status-code wire names (StatusCodeName strings) back to codes; unknown
/// names decode as kInternal so a newer server never crashes an old client.
StatusCode ParseStatusCodeName(const std::string& name);

}  // namespace dynview

#endif  // DYNVIEW_SERVER_PROTOCOL_H_
