#include "integration/integration.h"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "analyze/audit.h"
#include "common/failpoint.h"
#include "common/str_util.h"
#include "core/aggregate_rewrite.h"
#include "schemasql/view_materializer.h"
#include "sql/parser.h"
#include "storage/codec.h"

namespace dynview {

namespace {
/// Raw-SQL → parsed-query memo bound; dropped wholesale at capacity. Each
/// entry holds a parsed statement, so the bound matches the plan cache's.
constexpr size_t kRawMemoCapacity = 256;
}  // namespace

IntegrationSystem::IntegrationSystem(Catalog* catalog,
                                     std::string integration_db)
    : IntegrationSystem(catalog, std::move(integration_db),
                        IntegrationOptions{}) {}

IntegrationSystem::IntegrationSystem(Catalog* catalog,
                                     std::string integration_db,
                                     const IntegrationOptions& options)
    : catalog_(catalog),
      integration_db_(std::move(integration_db)),
      engine_(catalog, integration_db_, options.exec) {}

void IntegrationSystem::ClearPlanCache() {
  plan_cache_.Clear();
  std::lock_guard<std::mutex> lock(memo_mu_);
  raw_memo_.clear();
}

Result<DefinedView> IntegrationSystem::DefineView(
    const std::string& create_view_sql, const DefineViewOptions& options) {
  // Analysis and registration see the same catalog version.
  std::shared_ptr<const CatalogSnapshot> snap = catalog_->Snapshot();
  Analyzer analyzer(snap.get(), integration_db_);
  AnalyzeOptions opts;
  opts.multiset = options.multiset;
  std::vector<Diagnostic> diags =
      analyzer.AnalyzeCreateView(create_view_sql, opts);
  RecordAnalyzeMetrics(diags, &metrics_);
  if (HasErrors(diags)) {
    return Status::InvalidArgument("view definition rejected:\n" +
                                   RenderDiagnosticsText(diags));
  }
  Result<const ViewDefinition*> registered =
      options.materialize ? RegisterAndMaterializeInternal(create_view_sql)
                          : RegisterSourceInternal(create_view_sql);
  DV_RETURN_IF_ERROR(registered.status());
  const ViewDefinition* view = registered.value();
  if (!diags.empty()) {
    source_diags_[view] = diags;
    // EXPLAIN's verdicts carry a chosen source's analysis warnings.
    plan_cache_.Clear();
  }
  // One durable record per definition, carrying the diagnostics set above
  // so they restore byte-exact.
  DV_RETURN_IF_ERROR(AppendSourceRecord(view));
  return DefinedView{view, std::move(diags)};
}

std::vector<Diagnostic> IntegrationSystem::LintSources() const {
  std::shared_ptr<const CatalogSnapshot> snap = catalog_->Snapshot();
  Analyzer analyzer(snap.get(), integration_db_);
  std::vector<Diagnostic> all;
  for (size_t i = 0; i < sources_.size(); ++i) {
    std::vector<Diagnostic> diags =
        analyzer.AnalyzeRegisteredView(*sources_[i], *snap);
    for (Diagnostic& d : diags) {
      d.statement = static_cast<int>(i);
      all.push_back(std::move(d));
    }
  }
  RecordAnalyzeMetrics(all, &metrics_);
  SortDiagnostics(&all);
  return all;
}

std::vector<Diagnostic> IntegrationSystem::LintSource(
    size_t index, const CatalogSnapshot& snap) const {
  std::vector<Diagnostic> diags;
  if (index >= sources_.size()) return diags;
  Analyzer analyzer(&snap, integration_db_);
  diags = analyzer.AnalyzeRegisteredView(*sources_[index], snap);
  for (Diagnostic& d : diags) d.statement = static_cast<int>(index);
  RecordAnalyzeMetrics(diags, &metrics_);
  SortDiagnostics(&diags);
  return diags;
}

void IntegrationSystem::ExportAnalyzeMetrics(MetricsRegistry* sink) const {
  for (const auto& [name, value] : metrics_.Merged()) {
    if (name.rfind("analyze.", 0) == 0) sink->Set(name.c_str(), value);
  }
}

PlanCacheStats IntegrationSystem::plan_cache_stats() const {
  return PlanCacheStats{
      .hits = metrics_.Value(counters::kPlanCacheHits),
      .misses = metrics_.Value(counters::kPlanCacheMisses),
      .evictions = metrics_.Value(counters::kPlanCacheEvictions),
      .invalidations = metrics_.Value(counters::kPlanCacheInvalidations),
      .shape_hits = metrics_.Value(counters::kPlanCacheShapeHits),
      .shape_guard_failures =
          metrics_.Value(counters::kPlanCacheShapeGuardFailures)};
}

AuditReport IntegrationSystem::AuditWorkload() const {
  WorkloadAuditor auditor(catalog_->Snapshot(), integration_db_, sources_,
                          WorkloadAuditor::DescribeIndexes(indexes_,
                                                           integration_db_),
                          &metrics_);
  return auditor.Audit();
}

WhatIfReport IntegrationSystem::WhatIfAudit(const DdlOp& op) const {
  WorkloadAuditor auditor(catalog_->Snapshot(), integration_db_, sources_,
                          WorkloadAuditor::DescribeIndexes(indexes_,
                                                           integration_db_),
                          &metrics_);
  return auditor.WhatIf(op);
}

Result<const ViewDefinition*> IntegrationSystem::RegisterAndMaterializeSource(
    const std::string& create_view_sql) {
  DV_ASSIGN_OR_RETURN(const ViewDefinition* view,
                      RegisterAndMaterializeInternal(create_view_sql));
  DV_RETURN_IF_ERROR(AppendSourceRecord(view));
  return view;
}

Result<const ViewDefinition*> IntegrationSystem::RegisterAndMaterializeInternal(
    const std::string& create_view_sql) {
  uint64_t commit_version = 0;
  DV_ASSIGN_OR_RETURN(auto created,
                      ViewMaterializer::MaterializeSql(
                          create_view_sql, &engine_, catalog_, integration_db_,
                          /*qc=*/nullptr, &commit_version));
  DV_ASSIGN_OR_RETURN(
      ViewDefinition view,
      ViewDefinition::FromSql(create_view_sql, *catalog_, integration_db_));
  // The materialization is derived state: fence it at the version its
  // install committed (the base version when the body selected no rows and
  // the install committed nothing) so queries pinned to a later snapshot
  // can detect whether I has moved underneath it
  // (ViewDefinition::IsStaleAgainst). No reader sees the definition before
  // AddSource, so the fence is in place before any plan can choose it.
  // The created (db, rel) pairs are remembered so the fence also covers
  // DDL against the materialization itself (drop/rename of a partition)
  // and so re-materialization can retire partitions that no longer exist.
  std::vector<TableRef> refs;
  refs.reserve(created.size());
  for (const auto& [db, rel] : created) {
    refs.push_back(TableRef{ToLower(db), ToLower(rel)});
  }
  view.set_materialization(std::move(refs));
  view.AdvanceMaterializedVersion(commit_version);
  view.set_fenced(true);
  return AddSource(std::move(view));
}

Result<const ViewDefinition*> IntegrationSystem::RegisterSource(
    const std::string& create_view_sql) {
  DV_ASSIGN_OR_RETURN(const ViewDefinition* view,
                      RegisterSourceInternal(create_view_sql));
  DV_RETURN_IF_ERROR(AppendSourceRecord(view));
  return view;
}

Result<const ViewDefinition*> IntegrationSystem::RegisterSourceInternal(
    const std::string& create_view_sql) {
  DV_ASSIGN_OR_RETURN(
      ViewDefinition view,
      ViewDefinition::FromSql(create_view_sql, *catalog_, integration_db_));
  return AddSource(std::move(view));
}

const ViewDefinition* IntegrationSystem::AddSource(ViewDefinition view) {
  sources_.push_back(std::make_shared<ViewDefinition>(std::move(view)));
  // The source universe changed: cached rewritings chose among the old
  // sources. (The raw-SQL memo survives — fingerprints are a pure function
  // of the text.)
  plan_cache_.Clear();
  return sources_.back().get();
}

Result<const ViewIndex*> IntegrationSystem::RegisterIndex(
    const std::string& create_index_sql) {
  DV_ASSIGN_OR_RETURN(ViewIndex index,
                      ViewIndex::BuildSql(create_index_sql, &engine_));
  indexes_.push_back(std::make_shared<ViewIndex>(std::move(index)));
  plan_cache_.Clear();  // The index universe changed.
  DV_RETURN_IF_ERROR(AppendIndexRecord(*indexes_.back()));
  return indexes_.back().get();
}

namespace {
constexpr char kMaintainerTagPrefix[] = "maintainer.delta#";
constexpr char kEvolveRematTagPrefix[] = "evolve.remat#";

/// The warning of a source fenced off as stale at `snap`.
SourceWarning StaleWarning(const ViewDefinition& view,
                           const CatalogSnapshot& snap) {
  return SourceWarning{
      view.DisplayName(),
      Status::Unavailable("stale materialization: built at catalog version " +
                          std::to_string(view.materialized_version()) +
                          ", snapshot is version " +
                          std::to_string(snap.version()))};
}

/// The deterministic degrade warning for a rewriting whose materialization
/// relation vanished under DDL (dropped or renamed without a fence to trip).
SourceWarning VanishedMaterializationWarning(const ViewDefinition& view,
                                             const Status& exec_status) {
  return SourceWarning{
      view.DisplayName(),
      Status::Unavailable("stale materialization: " + exec_status.message() +
                          "; answered from the direct plan on I")};
}
}  // namespace

std::string EvolveRematTag(size_t index, const std::vector<TableRef>& refs) {
  std::string tag = kEvolveRematTagPrefix + std::to_string(index) + "|";
  for (size_t i = 0; i < refs.size(); ++i) {
    if (i > 0) tag += ",";
    tag += refs[i].ToString();
  }
  return tag;
}

bool ParseEvolveRematTag(const std::string& tag, size_t* index,
                         std::vector<TableRef>* refs) {
  if (tag.rfind(kEvolveRematTagPrefix, 0) != 0) return false;
  size_t pos = sizeof(kEvolveRematTagPrefix) - 1;
  size_t bar = tag.find('|', pos);
  if (bar == std::string::npos) return false;
  char* end = nullptr;
  std::string idx_text = tag.substr(pos, bar - pos);
  unsigned long long idx = std::strtoull(idx_text.c_str(), &end, 10);
  if (idx_text.empty() || end == nullptr || *end != '\0') return false;
  std::vector<TableRef> parsed;
  size_t at = bar + 1;
  while (at < tag.size()) {
    size_t comma = tag.find(',', at);
    if (comma == std::string::npos) comma = tag.size();
    std::string item = tag.substr(at, comma - at);
    size_t sep = item.find("::");
    if (sep == std::string::npos) return false;
    parsed.push_back(TableRef{item.substr(0, sep), item.substr(sep + 2)});
    at = comma + 1;
  }
  *index = static_cast<size_t>(idx);
  *refs = std::move(parsed);
  return true;
}

Status IntegrationSystem::OpenDurable(const std::string& dir) {
  if (durable_ != nullptr) {
    return Status::InvalidArgument("durable storage is already open (" +
                                   durable_->dir() + ")");
  }
  DurableHooks hooks;
  hooks.blob_replay = [this](const std::string& kind,
                             const std::string& payload) -> Status {
    if (kind == "source") return RestoreSourceRecord(payload);
    if (kind == "index") return RestoreIndexRecord(payload);
    return Status::ParseError("unknown durable registration kind '" + kind +
                              "'");
  };
  hooks.commit_replay = [this](uint64_t version, const std::string& tag) {
    // Evolver re-materialization commits carry the source index AND the
    // installed partition set in their tag: replay re-advances the fence
    // and restores the refs, so post-recovery evolutions retire exactly
    // the partitions that exist.
    size_t remat_index = 0;
    std::vector<TableRef> remat_refs;
    if (ParseEvolveRematTag(tag, &remat_index, &remat_refs)) {
      if (remat_index < sources_.size()) {
        sources_[remat_index]->set_materialization(std::move(remat_refs));
        sources_[remat_index]->AdvanceMaterializedVersion(version);
      }
      return;
    }
    // Maintainer delta commits carry the source index in their tag; the
    // replayed commit version re-advances that source's fence, restoring
    // the exact staleness state (DV007) the crash interrupted.
    if (tag.rfind(kMaintainerTagPrefix, 0) != 0) return;
    char* end = nullptr;
    unsigned long long idx =
        std::strtoull(tag.c_str() + sizeof(kMaintainerTagPrefix) - 1, &end,
                      10);
    if (end == nullptr || *end != '\0') return;
    if (idx < sources_.size()) {
      sources_[idx]->AdvanceMaterializedVersion(version);
    }
  };
  hooks.blob_provider = [this]() { return RegistrationExtras(); };
  DV_ASSIGN_OR_RETURN(durable_,
                      DurableCatalog::Open(catalog_, dir, std::move(hooks),
                                           &recovery_report_));
  {
    std::lock_guard<std::mutex> lock(recovery_warn_mu_);
    pending_recovery_warnings_.clear();
    for (const std::string& w : recovery_report_.warnings) {
      pending_recovery_warnings_.push_back(
          SourceWarning{"recovery", Status::Unavailable(w)});
    }
  }
  // Recovery repopulated the source/index universe outside the normal
  // registration paths.
  ClearPlanCache();
  return Status::OK();
}

Status IntegrationSystem::Checkpoint() {
  if (durable_ == nullptr) {
    return Status::InvalidArgument("durable storage is not open");
  }
  return durable_->Checkpoint();
}

Status IntegrationSystem::CloseDurable() {
  if (durable_ == nullptr) {
    return Status::InvalidArgument("durable storage is not open");
  }
  Status st = durable_->Close();
  durable_.reset();
  return st;
}

Result<ViewMaintainer> IntegrationSystem::CreateMaintainer(
    size_t source_index, const std::string& default_target_db) {
  if (source_index >= sources_.size()) {
    return Status::InvalidArgument(
        "source index " + std::to_string(source_index) + " out of range (" +
        std::to_string(sources_.size()) + " registered)");
  }
  ViewDefinition* source = sources_[source_index].get();
  DV_ASSIGN_OR_RETURN(ViewMaintainer maintainer,
                      ViewMaintainer::Create(source->stmt(), catalog_,
                                             integration_db_,
                                             default_target_db));
  maintainer.BindFence(source);
  maintainer.set_commit_tag(kMaintainerTagPrefix +
                            std::to_string(source_index));
  return maintainer;
}

std::string IntegrationSystem::EncodeSourceRecord(
    const ViewDefinition& view) const {
  ByteWriter w;
  w.Str(view.stmt().ToString());
  w.U8(view.fenced() ? 1 : 0);
  w.U64(view.materialized_version());
  w.U32(static_cast<uint32_t>(view.materialization().size()));
  for (const TableRef& ref : view.materialization()) {
    w.Str(ref.db);
    w.Str(ref.rel);
  }
  auto it = source_diags_.find(&view);
  const std::vector<Diagnostic>* diags =
      it != source_diags_.end() ? &it->second : nullptr;
  w.U32(diags != nullptr ? static_cast<uint32_t>(diags->size()) : 0);
  if (diags != nullptr) {
    for (const Diagnostic& d : *diags) {
      w.Str(d.code);
      w.U8(static_cast<uint8_t>(d.severity));
      w.U64(d.span.offset);
      w.U64(d.span.length);
      w.Str(d.message);
      w.Str(d.fix_hint);
      w.Str(d.anchor);
      w.I32(d.statement);
    }
  }
  return w.Take();
}

Status IntegrationSystem::RestoreSourceRecord(const std::string& payload) {
  ByteReader r(payload);
  std::string sql;
  uint8_t fenced = 0;
  uint64_t materialized_version = 0;
  uint32_t nrefs = 0;
  uint32_t ndiags = 0;
  DV_RETURN_IF_ERROR(r.Str(&sql));
  DV_RETURN_IF_ERROR(r.U8(&fenced));
  DV_RETURN_IF_ERROR(r.U64(&materialized_version));
  DV_RETURN_IF_ERROR(r.U32(&nrefs));
  std::vector<TableRef> refs;
  refs.reserve(nrefs);
  for (uint32_t i = 0; i < nrefs; ++i) {
    TableRef ref;
    DV_RETURN_IF_ERROR(r.Str(&ref.db));
    DV_RETURN_IF_ERROR(r.Str(&ref.rel));
    refs.push_back(std::move(ref));
  }
  DV_RETURN_IF_ERROR(r.U32(&ndiags));
  std::vector<Diagnostic> diags;
  diags.reserve(ndiags);
  for (uint32_t i = 0; i < ndiags; ++i) {
    Diagnostic d;
    uint8_t severity = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
    DV_RETURN_IF_ERROR(r.Str(&d.code));
    DV_RETURN_IF_ERROR(r.U8(&severity));
    DV_RETURN_IF_ERROR(r.U64(&offset));
    DV_RETURN_IF_ERROR(r.U64(&length));
    DV_RETURN_IF_ERROR(r.Str(&d.message));
    DV_RETURN_IF_ERROR(r.Str(&d.fix_hint));
    DV_RETURN_IF_ERROR(r.Str(&d.anchor));
    DV_RETURN_IF_ERROR(r.I32(&d.statement));
    if (severity > static_cast<uint8_t>(Severity::kError)) {
      return Status::ParseError("unknown diagnostic severity tag " +
                                std::to_string(severity));
    }
    d.severity = static_cast<Severity>(severity);
    d.span.offset = static_cast<size_t>(offset);
    d.span.length = static_cast<size_t>(length);
    diags.push_back(std::move(d));
  }
  // Re-register against the recovered catalog (the record replays after
  // the commits that materialized the view, so binding sees at least the
  // state registration originally saw), then restore the fence exactly.
  DV_ASSIGN_OR_RETURN(const ViewDefinition* view,
                      RegisterSourceInternal(sql));
  ViewDefinition* restored = sources_.back().get();
  restored->set_materialization(std::move(refs));
  if (fenced != 0) {
    restored->AdvanceMaterializedVersion(materialized_version);
    restored->set_fenced(true);
  }
  if (!diags.empty()) {
    source_diags_[view] = std::move(diags);
    plan_cache_.Clear();
  }
  return Status::OK();
}

std::string IntegrationSystem::EncodeIndexRecord(
    const ViewIndex& index) const {
  ByteWriter w;
  w.Str(index.name());
  w.U8(static_cast<uint8_t>(index.method()));
  w.U64(index.build_version());
  w.Str(index.definition());
  EncodeStandaloneTable(index.contents(), &w);
  return w.Take();
}

Status IntegrationSystem::RestoreIndexRecord(const std::string& payload) {
  ByteReader r(payload);
  std::string name;
  uint8_t method = 0;
  uint64_t build_version = 0;
  std::string definition;
  DV_RETURN_IF_ERROR(r.Str(&name));
  DV_RETURN_IF_ERROR(r.U8(&method));
  DV_RETURN_IF_ERROR(r.U64(&build_version));
  DV_RETURN_IF_ERROR(r.Str(&definition));
  DV_ASSIGN_OR_RETURN(Table contents, DecodeStandaloneTable(&r));
  if (method > static_cast<uint8_t>(IndexMethod::kInverted)) {
    return Status::ParseError("unknown index method tag " +
                              std::to_string(method));
  }
  // The definition text is the statement's own rendering, so it re-parses;
  // the physical structure rebuilds from the persisted contents, not from
  // re-running the defining query (whose inputs may have moved since).
  DV_ASSIGN_OR_RETURN(
      ViewIndex index,
      ViewIndex::Restore(name, static_cast<IndexMethod>(method), definition,
                         integration_db_, build_version, std::move(contents)));
  indexes_.push_back(std::make_shared<ViewIndex>(std::move(index)));
  plan_cache_.Clear();
  return Status::OK();
}

std::vector<std::pair<std::string, std::string>>
IntegrationSystem::RegistrationExtras() const {
  std::vector<std::pair<std::string, std::string>> extras;
  extras.reserve(sources_.size() + indexes_.size());
  for (const auto& source : sources_) {
    extras.emplace_back("source", EncodeSourceRecord(*source));
  }
  for (const auto& index : indexes_) {
    extras.emplace_back("index", EncodeIndexRecord(*index));
  }
  return extras;
}

Status IntegrationSystem::AppendSourceRecord(const ViewDefinition* view) {
  if (durable_ == nullptr) return Status::OK();
  return durable_->AppendBlob("source", EncodeSourceRecord(*view));
}

Status IntegrationSystem::AppendIndexRecord(const ViewIndex& index) {
  if (durable_ == nullptr) return Status::OK();
  return durable_->AppendBlob("index", EncodeIndexRecord(index));
}

void IntegrationSystem::DrainRecoveryWarnings(
    std::vector<SourceWarning>* out) {
  std::lock_guard<std::mutex> lock(recovery_warn_mu_);
  if (pending_recovery_warnings_.empty()) return;
  out->insert(out->begin(),
              std::make_move_iterator(pending_recovery_warnings_.begin()),
              std::make_move_iterator(pending_recovery_warnings_.end()));
  pending_recovery_warnings_.clear();
}

Result<TranslationResult> IntegrationSystem::Rewrite(const std::string& sql,
                                                     bool multiset) {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                      Parser::ParseSelect(sql));
  // One consistent version for the whole rewrite (the translators read view
  // bodies and I's schema through it). Held alive for the call.
  std::shared_ptr<const CatalogSnapshot> snap = catalog_->Snapshot();
  return RewriteOver(*stmt, multiset, *snap, /*plan=*/nullptr,
                     /*guard=*/nullptr);
}

Result<TranslationResult> IntegrationSystem::RewriteOver(
    const SelectStmt& query, bool multiset, const CatalogSnapshot& snap,
    CachedPlan* plan, LiteralGuard* guard) {
  CachedPlan scratch;
  if (plan == nullptr) plan = &scratch;
  QueryTranslator translator(&snap, integration_db_, guard);
  AggregateViewRewriter agg_rewriter(&snap, integration_db_, guard);
  std::optional<TranslationResult> chosen;
  std::string last_reason;
  for (const auto& source : sources_) {
    std::string name = source->DisplayName();
    if (chosen.has_value()) {
      plan->verdicts.push_back("source " + name +
                               " not probed: an earlier source answers");
      continue;
    }
    const bool stale = source->IsStaleAgainst(snap);
    plan->fences.emplace_back(source.get(), stale);
    if (stale) {
      // The materialization predates a commit that touched a base database
      // the view reads: answering from it would not match any single catalog
      // version. Fall back past it (stale fencing).
      last_reason = "source " + name + " is stale";
      plan->verdicts.push_back("warning DV007 [Sec. 6]: source " + name +
                               " fenced off: stale materialization predates "
                               "the pinned snapshot");
      continue;
    }
    // Sec. 5.2 / Ex. 5.3: aggregate-defined sources answer aggregate queries
    // by re-aggregation. AVG re-aggregation requires the uniform-group
    // assumption, so it is only offered for set semantics.
    Result<TranslationResult> t =
        source->IsAggregateView()
            ? agg_rewriter.Rewrite(*source, query,
                                   /*allow_avg_reaggregation=*/!multiset)
            : translator.TranslateAll(*source, query, multiset);
    if (t.ok()) {
      chosen = std::move(t).value();
      plan->chosen = source.get();
      plan->verdicts.push_back("source " + name + " chosen");
      for (const std::string& w : AnalysisWarnings(source.get())) {
        plan->verdicts.push_back("warning " + w);
      }
    } else {
      last_reason = t.status().message();
      plan->verdicts.push_back("note DV004 [Thm. 5.2/5.4]: source " + name +
                               " not usable: " + last_reason);
    }
  }
  if (chosen.has_value()) return std::move(*chosen);
  return Status::NotFound("no registered source can answer the query" +
                          (last_reason.empty() ? "" : ": " + last_reason));
}

IntegrationSystem::ParsedQuery IntegrationSystem::KeyStatement(
    std::unique_ptr<SelectStmt> stmt, bool multiset) {
  QueryFingerprint fp = FingerprintStatement(*stmt, FingerprintMode::kExact);
  // Key on the full normalized text, not the 64-bit hash: a hash collision
  // between distinct queries must miss, never serve the other query's plan.
  // The hex hash stays display-only (AnswerResult, failpoints).
  return ParsedQuery{std::shared_ptr<const SelectStmt>(std::move(stmt)),
                     (multiset ? "m|" : "s|") + fp.normalized, fp.Hex()};
}

Result<IntegrationSystem::ParsedQuery> IntegrationSystem::ParseMemoized(
    const std::string& sql, bool multiset) {
  // First cache level: exact raw text. Repeats of the same string skip
  // parsing and fingerprinting entirely.
  const std::string memo_key = (multiset ? "m|" : "s|") + sql;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = raw_memo_.find(memo_key);
    if (it != raw_memo_.end()) {
      ParsedQuery repeated = it->second;
      repeated.repeat = true;
      return repeated;
    }
  }
  // Second level: parse once, fingerprint the normalized statement. Text
  // I's grammar rejects fails here with the parser's positioned error.
  DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                      Parser::ParseSelect(sql));
  ParsedQuery query = KeyStatement(std::move(stmt), multiset);
  // A full memo is swapped out under the lock and freed outside it.
  std::unordered_map<std::string, ParsedQuery> dropped;
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (raw_memo_.size() >= kRawMemoCapacity) dropped.swap(raw_memo_);
  raw_memo_.emplace(memo_key, query);
  return query;
}

Result<AnswerResult> IntegrationSystem::AnswerGuarded(
    const std::string& sql, const AnswerOptions& options, QueryContext* ctx) {
  DV_ASSIGN_OR_RETURN(ParsedQuery query, ParseMemoized(sql, options.multiset));
  return AnswerParsed(query, options, ctx);
}

void IntegrationSystem::CountPlanCache(const char* name, uint64_t n,
                                       MetricsRegistry* sink) {
  metrics_.Add(name, n);
  if (sink != nullptr) sink->Add(name, n);
}

void IntegrationSystem::Remember(const std::string& key, uint64_t epoch,
                                 std::shared_ptr<CachedPlan> plan,
                                 MetricsRegistry* sink) {
  size_t evicted = plan_cache_.Insert(key, epoch, std::move(plan));
  if (evicted > 0) {
    CountPlanCache(counters::kPlanCacheEvictions,
                   static_cast<uint64_t>(evicted), sink);
  }
}

std::string IntegrationSystem::ShapeKey(const QueryShape& shape,
                                        bool multiset) {
  // '#' keeps the shape tier's keys apart from the exact tier's "m|"/"s|".
  return (multiset ? "m#|" : "s#|") + shape.fingerprint.normalized;
}

bool IntegrationSystem::FencesHold(const CachedPlan& plan,
                                   const CatalogSnapshot& snap) {
  for (const auto& [source, stale] : plan.fences) {
    if (source->IsStaleAgainst(snap) != stale) return false;
  }
  return true;
}

std::vector<SourceWarning> IntegrationSystem::StaleWarnings(
    const CachedPlan& plan, const CatalogSnapshot& snap) {
  std::vector<SourceWarning> out;
  for (const auto& [source, stale] : plan.fences) {
    if (stale) out.push_back(StaleWarning(*source, snap));
  }
  return out;
}

std::shared_ptr<IntegrationSystem::CachedPlan> IntegrationSystem::PlanMiss(
    const ParsedQuery& query, bool multiset, const CatalogSnapshot& snap,
    MetricsRegistry* sink, Status* no_source) {
  const uint64_t epoch = snap.schema_epoch();
  // Computed only here, after an exact miss: exact hits pay nothing for the
  // shape tier. A repeated text misses only when its plan went stale (the
  // schema epoch or a fence verdict changed), and then a shape entry pays
  // only if another binding follows within the epoch — ad-hoc traffic,
  // which arrives as new text.
  QueryShape shape;
  if (!query.repeat) shape = ShapeStatement(*query.stmt);
  const bool shaped = shape.tagged != nullptr;
  const std::string shape_key = shaped ? ShapeKey(shape, multiset) : "";
  if (shaped) {
    std::shared_ptr<CachedPlan> entry = plan_cache_.Lookup(
        shape_key, epoch,
        [&](const CachedPlan& p) { return FencesHold(p, snap); });
    if (entry != nullptr && entry->guard->Holds(shape.fingerprint.literals)) {
      // Every answer the probe took from the literals is the same for these
      // values, so a probe of this query would choose the same source, with
      // the same verdicts and warnings, and rewrite to the template with
      // these values in its literal slots.
      CountPlanCache(counters::kPlanCacheShapeHits, 1, sink);
      auto plan = std::make_shared<CachedPlan>(*entry);
      std::unique_ptr<SelectStmt> rewritten = entry->rewritten->Clone();
      SubstituteLiteralSlots(rewritten.get(), shape.fingerprint.literals);
      plan->rewritten = std::move(rewritten);
      plan->guard = nullptr;
      return plan;
    }
    if (entry != nullptr) {
      CountPlanCache(counters::kPlanCacheShapeGuardFailures, 1, sink);
    }
  }

  // Alg. 5.1 against the pinned snapshot, over the literal-tagged clone so
  // the rewriting keeps each query literal's slot.
  auto plan = std::make_shared<CachedPlan>();
  auto guard = shaped ? std::make_shared<LiteralGuard>() : nullptr;
  Result<TranslationResult> rewritten =
      RewriteOver(shaped ? *shape.tagged : *query.stmt, multiset, snap,
                  plan.get(), guard.get());
  if (!rewritten.ok()) {
    *no_source = rewritten.status();  // Direct plans stay exact-keyed.
    return plan;
  }
  plan->rewritten =
      std::shared_ptr<const SelectStmt>(std::move(rewritten.value().query));
  if (shaped && guard->complete()) {
    auto entry = std::make_shared<CachedPlan>(*plan);
    entry->guard = std::move(guard);
    Remember(shape_key, epoch, std::move(entry), sink);
  }
  return plan;
}

IntegrationSystem::PlannedQuery IntegrationSystem::PlanParsed(
    const ParsedQuery& query, bool multiset, QueryContext* qc,
    MetricsRegistry* sink) {
  const CatalogSnapshot& snap = *qc->snapshot();
  const uint64_t epoch = snap.schema_epoch();
  PlannedQuery out;
  CacheLookupOutcome outcome = CacheLookupOutcome::kMiss;
  std::shared_ptr<CachedPlan> plan = plan_cache_.Lookup(
      query.cache_key, epoch,
      [&](const CachedPlan& p) { return FencesHold(p, snap); }, &outcome);
  out.cached = plan != nullptr;
  // Cache outcomes count cumulatively on the system registry and per answer
  // on the observer.
  CountPlanCache(
      out.cached ? counters::kPlanCacheHits : counters::kPlanCacheMisses, 1,
      sink);
  if (outcome == CacheLookupOutcome::kStaleMiss) {
    CountPlanCache(counters::kPlanCacheInvalidations, 1, sink);
  }

  if (!out.cached) {
    plan = PlanMiss(query, multiset, snap, sink, &out.no_source);
  }

  // Build the executable plan unless the entry carries one for this epoch:
  // a hit then runs it without binding, grounding or compiling.
  out.exec = plan->exec;
  if (out.exec == nullptr) {
    const SelectStmt& tmpl =
        plan->rewritten != nullptr ? *plan->rewritten : *query.stmt;
    out.exec = engine_.Build(tmpl.Clone().get(), qc);
    if (out.exec->cacheable) {
      if (out.cached) {
        // A hit whose entry has no executable plan re-inserts a copy that
        // has one; the shared entry itself is never mutated.
        plan = std::make_shared<CachedPlan>(*plan);
        plan->exec = out.exec;
        Remember(query.cache_key, epoch, plan, sink);
      } else {
        plan->exec = out.exec;
      }
    }
  }
  if (!out.cached && plan->rewritten != nullptr) {
    // Cached before execution: a rewriting is valid for this epoch even if
    // this particular execution trips a guard.
    Remember(query.cache_key, epoch, plan, sink);
  }
  out.plan = std::move(plan);
  return out;
}

Result<AnswerResult> IntegrationSystem::AnswerParsed(
    const ParsedQuery& query, const AnswerOptions& options, QueryContext* ctx) {
  QueryContext local(options.guards);
  QueryContext* qc = ctx != nullptr ? ctx : &local;
  // Pin the one catalog version the whole call reads. A snapshot the caller
  // already pinned is honored when it belongs to our catalog (the chaos
  // oracle replays queries against a recorded version this way); a foreign
  // snapshot is replaced rather than misapplied.
  if (qc->snapshot() == nullptr || qc->snapshot()->origin() != catalog_) {
    qc->PinSnapshot(catalog_->Snapshot());
  }
  std::shared_ptr<const CatalogSnapshot> snap = qc->snapshot();
  // Attach an observer unless the caller brought their own (a
  // caller-attached observer also receives this query's data and is simply
  // not re-exported on the result).
  std::shared_ptr<QueryObserver> observer;
  if (qc->observer() == nullptr) {
    observer = std::make_shared<QueryObserver>();
    qc->set_observer(observer.get());
  }
  // The observer is borrowed by qc for this call only; detach it on every
  // exit path, so a caller-owned context does not keep it alive. The engine
  // itself takes qc per call, so concurrent answers on one system never
  // share mutable engine state.
  struct Detach {
    QueryContext* qc;
    bool owns_observer;
    ~Detach() {
      if (owns_observer) qc->set_observer(nullptr);
    }
  } detach{qc, observer != nullptr};
  MetricsRegistry& sink = qc->observer()->metrics;

  // Chaos hook: a poisoned cache entry is erased, with its shape entry, and
  // the query degrades to a fresh compile with a warning — never a wrong
  // answer.
  std::vector<SourceWarning> warnings;
  if (FailPoints::AnyArmed()) {
    Status poisoned = FailPoints::Check("plan_cache.lookup", query.fp_hex);
    if (!poisoned.ok()) {
      plan_cache_.Erase(query.cache_key);
      plan_cache_.Erase(ShapeKey(ShapeStatement(*query.stmt), options.multiset));
      warnings.push_back(SourceWarning{"plan_cache", poisoned});
    }
  }

  PlannedQuery planned = PlanParsed(query, options.multiset, qc, &sink);
  const CachedPlan& plan = *planned.plan;
  // Stale-source fences surface in registration order, before any
  // degradation warnings execution adds — a deterministic prefix.
  std::vector<SourceWarning> stale = StaleWarnings(plan, *snap);
  const ViewDefinition* chosen = plan.chosen;
  Result<Table> answered = engine_.Run(*planned.exec, qc);
  if (plan.rewritten != nullptr && !answered.ok() &&
      answered.status().code() == StatusCode::kNotFound) {
    // The rewriting references a materialization relation that DDL has
    // since dropped or renamed (an unfenced source has no staleness fence to
    // trip). That degrades like a stale fence — the entry is dropped, a
    // deterministic warning added and the direct plan on I answers — never
    // a hard NotFound for a query I itself can answer.
    plan_cache_.Erase(query.cache_key);
    stale.push_back(VanishedMaterializationWarning(*chosen, answered.status()));
    chosen = nullptr;
    answered = engine_.Execute(query.stmt->Clone().get(), qc);
  } else if (!planned.cached && plan.rewritten == nullptr) {
    // The direct plan is cached only on success. A direct NotFound yields to
    // the rewrite's (which names the fenced sources), unless a guard tripped;
    // any other direct error (a TypeError after DDL retyped a column, say)
    // is the query's real outcome and surfaces as is.
    if (answered.ok()) {
      Remember(query.cache_key, snap->schema_epoch(), planned.plan, &sink);
    } else if (answered.status().code() == StatusCode::kNotFound &&
               qc->CheckGuards().ok()) {
      answered = planned.no_source;
    }
  }

  if (!stale.empty()) {
    sink.Add(counters::kCatalogStalePath, static_cast<uint64_t>(stale.size()));
  }
  DV_RETURN_IF_ERROR(answered.status());
  // Budget gauges come from the guard's accounting, set once at query end on
  // the driving thread.
  sink.Set(counters::kBudgetRowsCharged, qc->rows_charged());
  sink.Set(counters::kBudgetBytesCharged, qc->bytes_charged());
  ExportAnalyzeMetrics(&sink);
  for (SourceWarning& w : stale) warnings.push_back(std::move(w));
  // Analysis warnings DefineView attached to the chosen source travel with
  // every answer it serves (the Sec. 4.3 hazards are per-result facts).
  if (chosen != nullptr) {
    for (std::string& w : AnalysisWarnings(chosen)) {
      warnings.push_back(
          SourceWarning{chosen->DisplayName(), Status::InvalidArgument(w)});
    }
  }
  for (SourceWarning& w : qc->warnings()) warnings.push_back(std::move(w));
  // Recovery warnings (torn WAL tail etc.) lead the first post-restart
  // answer, then never repeat.
  DrainRecoveryWarnings(&warnings);
  // Same (source, code, detail) emitted once, with an occurrence count —
  // grounding fan-out width does not change warning output.
  DedupSourceWarnings(&warnings);
  return AnswerResult{std::move(answered).value(), std::move(warnings),
                      std::move(observer), snap->version(), std::move(snap),
                      planned.cached, query.fp_hex};
}

std::vector<std::string> IntegrationSystem::AnalysisWarnings(
    const ViewDefinition* source) const {
  std::vector<std::string> out;
  auto it = source_diags_.find(source);
  if (it == source_diags_.end()) return out;
  for (const Diagnostic& d : it->second) {
    if (d.severity != Severity::kWarning) continue;
    out.push_back(d.code + " [" + d.anchor + "]: " + d.message);
  }
  return out;
}

Result<std::shared_ptr<PreparedQuery>> IntegrationSystem::Prepare(
    const std::string& sql) {
  DV_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> stmt,
                      Parser::ParseSelect(sql));
  auto prepared = std::make_shared<PreparedQuery>();
  prepared->sql_ = sql;
  prepared->num_params_ = CountParameters(*stmt);
  prepared->fp_hex_ =
      FingerprintStatement(*stmt, FingerprintMode::kParameterized).Hex();
  prepared->template_ = std::shared_ptr<const SelectStmt>(std::move(stmt));
  return prepared;
}

Result<AnswerResult> IntegrationSystem::ExecutePrepared(
    const PreparedQuery& prepared, const std::vector<Value>& params,
    const AnswerOptions& options, QueryContext* ctx) {
  if (static_cast<int>(params.size()) != prepared.num_params()) {
    return Status::InvalidArgument(
        "prepared query expects " + std::to_string(prepared.num_params()) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  std::unique_ptr<SelectStmt> stmt = prepared.template_->Clone();
  DV_RETURN_IF_ERROR(SubstituteParameters(stmt.get(), params));
  // The exact tier keys on the substituted statement. A new binding that
  // misses there reuses the shape tier's rewriting only when the guarded
  // implication answers replay equal over its values (PlanMiss).
  return AnswerParsed(KeyStatement(std::move(stmt), options.multiset),
                      options, ctx);
}

Result<std::string> IntegrationSystem::ExplainOptimized(
    const std::string& sql, const AnswerOptions& options) {
  DV_ASSIGN_OR_RETURN(ParsedQuery query, ParseMemoized(sql, options.multiset));
  // The same planning step an answer takes, against one pinned version and
  // without an observer: nothing runs.
  QueryContext qc;
  qc.PinSnapshot(catalog_->Snapshot());
  PlannedQuery planned = PlanParsed(query, options.multiset, &qc, nullptr);
  const CachedPlan& plan = *planned.plan;

  std::string out = "== answer ==\n";
  if (plan.chosen != nullptr) {
    out += "source: " + plan.chosen->DisplayName() + "\n";
    out += "rewriting: " + plan.rewritten->ToString() + "\n";
  } else {
    out += "direct plan on " + integration_db_ + "\n";
  }
  out += "== analysis ==\n";
  for (const std::string& verdict : plan.verdicts) out += verdict + "\n";
  out += "== plan ==\n";
  out += Describe(*planned.exec);
  return out;
}

Result<Table> IntegrationSystem::KeywordSearch(
    const std::string& interface_table, const std::string& keyword) {
  // Both paths return whole rows of the interface table, in its column
  // order. An inverted index answers only when its access path reads this
  // very table, its key and payload cover every column, and no commit to
  // the table's database postdates its build (the optimizer's stale fence);
  // otherwise the scan does.
  const TableRef table{ToLower(integration_db_), ToLower(interface_table)};
  std::shared_ptr<const CatalogSnapshot> snap = catalog_->Snapshot();
  Result<const Table*> base = snap->ResolveTable(table.db, table.rel);
  for (const auto& idx : indexes_) {
    if (!base.ok() || idx->method() != IndexMethod::kInverted ||
        !idx->access_path().has_value() ||
        !(idx->access_path()->source == table) ||
        snap->DatabaseVersion(table.db) > idx->build_version()) {
      continue;
    }
    // contents() holds the key in column 0, then the payload attributes.
    const IndexAccessPath& path = *idx->access_path();
    const Schema& schema = base.value()->schema();
    std::vector<size_t> from;
    for (const Column& c : schema.columns()) {
      const std::string name = ToLower(c.name);
      if (name == path.key_attr) {
        from.push_back(0);
        continue;
      }
      auto it = std::find(path.payload_attrs.begin(), path.payload_attrs.end(),
                          name);
      if (it == path.payload_attrs.end()) break;
      from.push_back(1 + static_cast<size_t>(it - path.payload_attrs.begin()));
    }
    if (from.size() != schema.num_columns()) continue;
    Result<std::vector<int64_t>> ids = idx->KeywordRows(ToLower(keyword));
    if (!ids.ok()) continue;
    Table hits(schema);
    for (int64_t id : ids.value()) {
      const Row& r = idx->contents().row(static_cast<size_t>(id));
      Row row;
      row.reserve(from.size());
      for (size_t col : from) row.push_back(r[col]);
      hits.AppendRowUnchecked(std::move(row));
    }
    return hits;
  }
  // Scan fallback: any row whose value contains the keyword. Render the
  // keyword through Value::ToString so embedded quotes stay literal.
  QueryContext qc;
  qc.PinSnapshot(std::move(snap));
  return engine_.ExecuteSql("select * from " + integration_db_ +
                                "::" + interface_table +
                                " T where contains(T.value, " +
                                Value::String(keyword).ToString() + ")",
                            &qc);
}

}  // namespace dynview
