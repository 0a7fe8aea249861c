#include "fuzzer.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/query_context.h"
#include "common/str_util.h"
#include "evolve/evolution.h"
#include "integration/integration.h"
#include "optimizer/optimizer.h"
#include "plan_cache/fingerprint.h"
#include "relational/catalog.h"
#include "relational/table.h"
#include "sql/parser.h"

namespace dynview {
namespace {

// ---- Deterministic generation helpers --------------------------------------

uint64_t Pick(std::mt19937_64& rng, uint64_t n) { return rng() % n; }

const char* const kLabelPool[] = {"alpha", "beta", "gamma", "delta"};

/// Everything needed to (re)build one scenario from scratch — the minimizer
/// replays failures against a fresh runtime built from this.
struct ScenarioSpec {
  int index = 0;
  uint64_t rng_seed = 0;
  std::vector<std::string> labels;
  Table base;                     // Initial contents of I::base0.
  std::vector<std::string> defs;  // Source definitions, registration order.
};

ScenarioSpec MakeSpec(uint64_t seed, int index) {
  std::mt19937_64 rng(seed * 1000003ULL + static_cast<uint64_t>(index));
  ScenarioSpec spec;
  spec.index = index;
  size_t num_labels = 2 + Pick(rng, 3);
  for (size_t i = 0; i < num_labels; ++i) spec.labels.push_back(kLabelPool[i]);

  spec.base = Table(Schema({Column("id", TypeKind::kInt),
                            Column("cat", TypeKind::kString),
                            Column("val", TypeKind::kInt),
                            Column("wt", TypeKind::kInt)}));
  size_t rows = 12 + Pick(rng, 24);
  for (size_t i = 0; i < rows; ++i) {
    spec.base.AppendRowUnchecked(
        {Value::Int(static_cast<int64_t>(i)),
         Value::String(spec.labels[Pick(rng, spec.labels.size())]),
         Value::Int(static_cast<int64_t>(Pick(rng, 50))),
         Value::Int(static_cast<int64_t>(Pick(rng, 9)))});
  }

  std::string s = std::to_string(index);
  // Copy source: first-order, bag-usable — the rewriting workhorse.
  spec.defs.push_back("create view cp" + s +
                      "::base0(id, cat) as select A, C from I::base0 T, "
                      "T.id A, T.cat C");
  // Partitioned source (relation variable): one relation per cat value.
  if (Pick(rng, 2) == 0) {
    spec.defs.push_back("create view part" + s +
                        "::C(id) as select A from I::base0 T, T.cat C, "
                        "T.id A");
  }
  // Pivot source (attribute variable): set-usable only (Thm. 5.4).
  if (Pick(rng, 2) == 0) {
    spec.defs.push_back("create view piv" + s +
                        "::base0(id, C) as select A, V from I::base0 T, "
                        "T.cat C, T.id A, T.val V");
  }
  spec.rng_seed = rng();
  // Conditioned source, registered last: usable only when the query's
  // conditions imply V > 25, so the shape arm's second literal can flip
  // that implication (a literal-guard failure).
  spec.defs.push_back("create view hi" + s +
                      "::base0(id, cat, val, wt) as select A, C, V, W from "
                      "I::base0 T, T.id A, T.cat C, T.val V, T.wt W "
                      "where V > 25");
  return spec;
}

// ---- Scenario runtime ------------------------------------------------------

ExecConfig MakeExec(size_t threads) {
  ExecConfig cfg;
  cfg.num_threads = threads;
  return cfg;
}

/// One scenario's engines and systems. Declaration order matters: the
/// catalog outlives everything referencing it (members destroy in reverse).
struct Runtime {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<QueryEngine> ref;  // Direct, serial — the reference.
  std::unique_ptr<QueryEngine> dc8;  // Direct, 8 threads.
  std::unique_ptr<IntegrationSystem> a1;  // Rewriting, 1 thread.
  std::unique_ptr<IntegrationSystem> a8;  // Rewriting, 8 threads.
  /// Rewriting, 1 thread, registered like a1 but only ever asked with an
  /// empty plan cache: the shape arm's cold reference.
  std::unique_ptr<IntegrationSystem> cold;
  std::unique_ptr<SchemaEvolver> evolver;

  /// Tears down in reverse declaration order. Move-assigning a fresh
  /// Runtime{} would destroy the catalog FIRST (members assign in
  /// declaration order) while the durable system's final checkpoint still
  /// reads it — this is the crash-simulation path, so order matters.
  void Reset() {
    evolver.reset();
    cold.reset();
    a8.reset();
    a1.reset();
    dc8.reset();
    ref.reset();
    catalog.reset();
  }
};

/// Copies the primary's fence state onto a twin registered with the same
/// definitions in the same order. The twins share the catalog (and so the
/// materializations) but register through the plain RegisterSource path,
/// which neither fences nor records materialization refs — without the sync
/// an evolved twin would serve stale rows the primary correctly fences off.
void SyncFence(const ViewDefinition& from, ViewDefinition* to) {
  to->set_fenced(from.fenced());
  to->AdvanceMaterializedVersion(from.materialized_version());
  to->set_materialization(from.materialization());
}

void SyncFences(const IntegrationSystem& primary, IntegrationSystem* twin) {
  const auto& src = primary.sources();
  const auto& dst = twin->sources();
  for (size_t i = 0; i < src.size() && i < dst.size(); ++i) {
    SyncFence(*src[i], dst[i].get());
  }
}

void SyncTwins(Runtime* rt) {
  SyncFences(*rt->a8, rt->a1.get());
  SyncFences(*rt->a8, rt->cold.get());
}

/// Builds (fresh_data) or recovers (!fresh_data, durable dir has state) one
/// scenario runtime. On recovery the primary's catalog, sources, fences and
/// materialization refs all come back from the WAL; only the twins are
/// re-registered from the spec.
Status BuildRuntime(const ScenarioSpec& spec, const std::string& durable_dir,
                    bool fresh_data, Runtime* rt) {
  rt->catalog = std::make_unique<Catalog>();
  rt->ref = std::make_unique<QueryEngine>(rt->catalog.get(), "I",
                                          MakeExec(1));
  rt->dc8 = std::make_unique<QueryEngine>(rt->catalog.get(), "I",
                                          MakeExec(8));
  IntegrationOptions o1, o8;
  o1.exec = MakeExec(1);
  o8.exec = MakeExec(8);
  rt->a1 = std::make_unique<IntegrationSystem>(rt->catalog.get(), "I", o1);
  rt->a8 = std::make_unique<IntegrationSystem>(rt->catalog.get(), "I", o8);
  rt->cold = std::make_unique<IntegrationSystem>(rt->catalog.get(), "I", o1);
  if (!durable_dir.empty()) {
    DV_RETURN_IF_ERROR(rt->a8->OpenDurable(durable_dir));
  }
  if (fresh_data) {
    DV_ASSIGN_OR_RETURN(uint64_t v, rt->catalog->Mutate([&](CatalogTxn& txn) {
      txn.GetOrCreateDatabase("I")->PutTable("base0", spec.base);
      return Status::OK();
    }));
    (void)v;
    for (const std::string& def : spec.defs) {
      DV_RETURN_IF_ERROR(rt->a8->RegisterAndMaterializeSource(def).status());
    }
  }
  // The twins register the primary's definitions. After a recovery those
  // are the replayed ones, whose bodies were normalized against the schema
  // of I at their first registration — re-registering the spec's text
  // against an evolved I would give the twins different sources.
  std::vector<std::string> defs = spec.defs;
  if (!fresh_data) {
    defs.clear();
    for (const auto& source : rt->a8->sources()) {
      defs.push_back(source->stmt().ToString());
    }
  }
  for (const std::string& def : defs) {
    DV_RETURN_IF_ERROR(rt->a1->RegisterSource(def).status());
    DV_RETURN_IF_ERROR(rt->cold->RegisterSource(def).status());
  }
  rt->evolver =
      std::make_unique<SchemaEvolver>(rt->catalog.get(), rt->a8.get());
  SyncTwins(rt);
  return Status::OK();
}

// ---- DDL stream generation -------------------------------------------------

std::vector<std::string> TablesOfI(const CatalogSnapshot& snap) {
  auto db = snap.GetDatabase("I");
  if (!db.ok()) return {};
  return db.value()->TableNames();
}

/// Whether the surface syntax can spell `name` as a relation reference.
/// Demoting by an int column legitimately yields relations named "42" —
/// valid catalog entries that no textual query can address; only the
/// relation-variable fan-outs (I -> R) reach those.
bool IsSpellableName(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') {
    return false;
  }
  for (char ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_') {
      return false;
    }
  }
  return true;
}

/// A column of I::<rel> the scheduled attribute DDL may touch: never id or
/// cat, which the source definitions depend on (random tail ops have no such
/// restraint — breaking sources is their job).
std::string PickEvolvableCol(const CatalogSnapshot& snap,
                             const std::string& rel, std::mt19937_64& rng) {
  auto t = snap.ResolveTable("I", rel);
  if (!t.ok()) return "val";
  std::vector<std::string> pool;
  for (const std::string& c : t.value()->schema().ColumnNames()) {
    std::string lc = ToLower(c);
    if (lc != "id" && lc != "cat") pool.push_back(c);
  }
  if (pool.empty()) return "val";
  return pool[Pick(rng, pool.size())];
}

/// Steps 0..5: the deterministic all-six-kinds schedule. Steps 3-5 rename
/// the relation away, shatter it into per-label partitions, then unite the
/// partitions back into base0 — restoring the rewriting path with the label
/// column promoted back to data.
DdlOp ScheduledOp(int k, std::mt19937_64& rng, const CatalogSnapshot& snap) {
  std::vector<std::string> tables = TablesOfI(snap);
  std::string rel = tables.empty() ? "base0" : tables[0];
  switch (k) {
    case 0:
      return DdlOp::AddAttribute(
          "I", rel, "x0", Value::Int(static_cast<int64_t>(Pick(rng, 100))));
    case 1:
      return DdlOp::RenameAttribute("I", rel, PickEvolvableCol(snap, rel, rng),
                                    "r1");
    case 2:
      return DdlOp::DropAttribute("I", rel, PickEvolvableCol(snap, rel, rng));
    case 3:
      return DdlOp::RenameRelation("I", rel, rel + "x");
    case 4:
      return DdlOp::DemoteDataToLabel("I", rel, "cat");
    default:
      return DdlOp::PromoteLabelToData("I", tables, "base0", "cat");
  }
}

/// Tail ops: unconstrained random DDL. Rejections (ddl_rejected) and
/// broken-source outcomes (left_stale + warnings) are valid results.
DdlOp RandomOp(int k, std::mt19937_64& rng, const CatalogSnapshot& snap) {
  std::vector<std::string> tables = TablesOfI(snap);
  std::string suffix = std::to_string(k);
  if (tables.empty()) {
    return DdlOp::AddAttribute("I", "base0", "e" + suffix, Value::Int(1));
  }
  std::string rel = tables[Pick(rng, tables.size())];
  std::vector<std::string> cols;
  if (auto t = snap.ResolveTable("I", rel); t.ok()) {
    cols = t.value()->schema().ColumnNames();
  }
  switch (Pick(rng, 6)) {
    case 0:
      return DdlOp::AddAttribute(
          "I", rel, "e" + suffix,
          Value::Int(static_cast<int64_t>(Pick(rng, 100))));
    case 1:
      if (cols.empty()) break;
      return DdlOp::DropAttribute("I", rel, cols[Pick(rng, cols.size())]);
    case 2:
      if (cols.empty()) break;
      return DdlOp::RenameAttribute("I", rel, cols[Pick(rng, cols.size())],
                                    "e" + suffix);
    case 3:
      return DdlOp::RenameRelation("I", rel, rel + "y");
    case 4:
      if (cols.empty()) break;
      return DdlOp::DemoteDataToLabel("I", rel, cols[Pick(rng, cols.size())]);
    default:
      return DdlOp::PromoteLabelToData("I", tables, "base0", "cat");
  }
  return DdlOp::AddAttribute("I", rel, "e" + suffix, Value::Int(1));
}

// ---- Query generation ------------------------------------------------------

struct GenQuery {
  std::string sql;
  bool multiset = true;  // Only DISTINCT queries accept set-correctness.
};

/// One query over a single relation I::<rel>, a pure function of (rng,
/// schema). Half the column picks are biased to {id, cat} so the rewriting
/// path actually triggers; cat is the only string column by construction,
/// every other column is an int.
GenQuery GenSingle(std::mt19937_64& rng, const std::string& rel,
                   const Schema& schema,
                   const std::vector<std::string>& labels) {
  std::vector<std::string> cols = schema.ColumnNames();
  std::vector<std::string> ints, favored;
  bool has_cat = false;
  for (const std::string& c : cols) {
    std::string lc = ToLower(c);
    if (lc == "cat") {
      has_cat = true;
    } else {
      ints.push_back(c);
    }
    if (lc == "id" || lc == "cat") favored.push_back(c);
  }
  auto pick = [&](const std::vector<std::string>& pool) {
    if (Pick(rng, 2) == 0 && !favored.empty()) {
      return favored[Pick(rng, favored.size())];
    }
    return pool[Pick(rng, pool.size())];
  };
  std::string from = "from I::" + rel + " T";
  switch (Pick(rng, 5)) {
    case 0: {
      std::string c = pick(cols);
      return {"select distinct A " + from + ", T." + c + " A", false};
    }
    case 1: {
      std::string c1 = pick(cols), c2 = pick(cols);
      return {"select A, B " + from + ", T." + c1 + " A, T." + c2 + " B",
              true};
    }
    case 2: {
      if (ints.empty()) break;
      std::string c1 = ints[Pick(rng, ints.size())], c2 = pick(cols);
      return {"select A, B " + from + ", T." + c1 + " A, T." + c2 +
                  " B where A > " + std::to_string(Pick(rng, 40)),
              true};
    }
    case 3: {
      if (!has_cat) break;
      std::string c = pick(cols);
      return {"select A, B " + from + ", T.cat A, T." + c +
                  " B where A = '" + labels[Pick(rng, labels.size())] + "'",
              true};
    }
    default: {
      if (!has_cat || ints.empty()) break;
      std::string c = ints[Pick(rng, ints.size())];
      return {"select A, max(B) " + from + ", T.cat A, T." + c +
                  " B group by A",
              true};
    }
  }
  std::string c = pick(cols);
  return {"select distinct A " + from + ", T." + c + " A", false};
}

/// Queries for the current shape of I: single-relation templates, or
/// higher-order fan-outs over the partition family when a demote shattered
/// the relation.
std::vector<GenQuery> GenQueries(std::mt19937_64& rng, const Catalog& catalog,
                                 const std::vector<std::string>& labels,
                                 int n) {
  std::vector<GenQuery> out;
  auto snap = catalog.Snapshot();
  std::vector<std::string> tables = TablesOfI(*snap);
  std::vector<std::string> common;
  if (tables.size() > 1) {
    auto first = snap->ResolveTable("I", tables[0]);
    if (first.ok()) {
      for (const std::string& c : first.value()->schema().ColumnNames()) {
        bool everywhere = true;
        for (size_t i = 1; i < tables.size() && everywhere; ++i) {
          auto t = snap->ResolveTable("I", tables[i]);
          everywhere = t.ok() && t.value()->schema().HasColumn(c);
        }
        if (everywhere) common.push_back(c);
      }
    }
  }
  std::vector<std::string> named;
  for (const std::string& t : tables) {
    if (IsSpellableName(t)) named.push_back(t);
  }
  for (int i = 0; i < n; ++i) {
    if (tables.empty()) {
      out.push_back({"select A from I::base0 T, T.id A", true});
      continue;
    }
    bool single = tables.size() == 1 || (Pick(rng, 3) == 0) || common.empty();
    if (named.empty()) single = false;  // Nothing the syntax can name.
    if (!single && (tables.size() < 2 || common.empty())) {
      // No spellable relation and no family to fan out over: probe the
      // canonical name (both answer paths agree it is unknown).
      out.push_back({"select A from I::base0 T, T.id A", true});
      continue;
    }
    if (single) {
      std::string rel = named[Pick(rng, named.size())];
      auto t = snap->ResolveTable("I", rel);
      if (!t.ok()) {
        out.push_back({"select A from I::" + rel + " T, T.id A", true});
        continue;
      }
      out.push_back(GenSingle(rng, rel, t.value()->schema(), labels));
      continue;
    }
    // Fan-out over the whole family via a relation variable.
    std::vector<std::string> ci;
    for (const std::string& c : common) {
      if (ToLower(c) != "cat") ci.push_back(c);
    }
    if (Pick(rng, 2) == 0 || ci.empty()) {
      std::string c = common[Pick(rng, common.size())];
      out.push_back(
          {"select distinct R, K from I -> R, R T, T." + c + " K", false});
    } else {
      std::string c = ci[Pick(rng, ci.size())];
      out.push_back({"select R, K from I -> R, R T, T." + c +
                         " K where K > " + std::to_string(Pick(rng, 40)),
                     true});
    }
  }
  return out;
}

// ---- The differential oracle -----------------------------------------------

std::string Canon(const Table& t) {
  Table c = t;
  c.SortRows();
  return c.ToString();
}

/// The rows of `t` as a set: sorted, each distinct row once.
std::string SetCanon(const Table& t) {
  Table sorted = t;
  sorted.SortRows();
  Table c(sorted.schema());
  for (const Row& r : sorted.rows()) {
    if (c.num_rows() == 0 || !(c.row(c.num_rows() - 1) == r)) {
      c.AppendRowUnchecked(r);
    }
  }
  return c.ToString();
}

struct RunOut {
  bool ok = false;
  Status st;
  std::string raw;    // Verbatim rendering (order-sensitive).
  std::string canon;  // Sorted rendering (order-insensitive).
  std::vector<std::pair<std::string, std::string>> warns;
  size_t num_warnings = 0;
  bool cached = false;              // Answered from the plan cache.
  std::vector<uint64_t> counters;   // kAnswerCounters, per answer.
};

/// Per-answer counters a plan-cache hit must reproduce exactly: the hit
/// replays the grounding bookkeeping its cached plan recorded at build.
constexpr const char* kAnswerCounters[] = {
    counters::kGroundingsEnumerated, counters::kGroundingsEvaluated,
    counters::kGroundingsPruned, counters::kRowsScanned,
    counters::kRowsUnioned};

RunOut RunDirect(QueryEngine* engine, const std::string& sql,
                 std::shared_ptr<const CatalogSnapshot> snap) {
  RunOut out;
  QueryContext qc;
  qc.PinSnapshot(std::move(snap));
  Result<Table> r = engine->ExecuteSql(sql, &qc);
  out.ok = r.ok();
  if (r.ok()) {
    out.raw = r.value().ToString();
    out.canon = Canon(r.value());
  } else {
    out.st = r.status();
  }
  return out;
}

/// Warning identity the cross-system comparison uses: (source, status code).
/// "recovery" (drained once, durable primary only) and "plan_cache"
/// (cache-state dependent by nature) are excluded.
std::vector<std::pair<std::string, std::string>> WarnKeys(
    const std::vector<SourceWarning>& ws) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const SourceWarning& w : ws) {
    if (w.source == "recovery" || w.source == "plan_cache") continue;
    out.emplace_back(w.source,
                     std::to_string(static_cast<int>(w.status.code())));
  }
  return out;
}

RunOut RunAnswer(IntegrationSystem* sys, const std::string& sql, bool multiset,
                 std::shared_ptr<const CatalogSnapshot> snap) {
  RunOut out;
  AnswerOptions options;
  options.multiset = multiset;
  QueryContext qc(options.guards);
  qc.PinSnapshot(std::move(snap));
  Result<AnswerResult> r = sys->AnswerGuarded(sql, options, &qc);
  out.ok = r.ok();
  if (r.ok()) {
    out.raw = r.value().table.ToString();
    out.canon = Canon(r.value().table);
    out.warns = WarnKeys(r.value().warnings);
    out.num_warnings = r.value().warnings.size();
    out.cached = r.value().plan_cached;
    if (r.value().observer != nullptr) {
      for (const char* name : kAnswerCounters) {
        out.counters.push_back(r.value().observer->metrics.Value(name));
      }
    }
  } else {
    out.st = r.status();
  }
  return out;
}

std::string Describe(const RunOut& o) {
  if (!o.ok) return "status{" + o.st.ToString() + "}";
  return o.canon;
}

/// `sql` with every literal replaced by another value of its type: ints
/// shift by 17 (mod 40, the generator's range, so a bound may cross the
/// `hi` source's 25) and labels rotate through the pool. Nullopt when the
/// query has no literal.
std::optional<std::string> Rebind(const std::string& sql) {
  Result<std::unique_ptr<SelectStmt>> parsed = Parser::ParseSelect(sql);
  if (!parsed.ok()) return std::nullopt;
  QueryShape shape = ShapeStatement(*parsed.value());
  std::vector<Value>& values = shape.fingerprint.literals;
  if (shape.tagged == nullptr || values.empty()) return std::nullopt;
  for (Value& v : values) {
    if (v.kind() == TypeKind::kInt) {
      v = Value::Int((v.as_int() + 17) % 40);
    } else if (v.kind() == TypeKind::kString) {
      const size_t n = sizeof(kLabelPool) / sizeof(kLabelPool[0]);
      for (size_t i = 0; i < n; ++i) {
        if (v.as_string() == kLabelPool[i]) {
          v = Value::String(kLabelPool[(i + 1) % n]);
          break;
        }
      }
    }
  }
  SubstituteLiteralSlots(shape.tagged.get(), values);
  return shape.tagged->ToString();
}

/// Every warning byte for byte: source, code and message.
std::string WarningText(const std::vector<SourceWarning>& ws) {
  std::string out;
  for (const SourceWarning& w : ws) {
    out += w.source + ": " + w.status.ToString() + "\n";
  }
  return out;
}

/// A fresh catalog holding a copy of every database and table of `snap`,
/// all at its first version.
Result<std::unique_ptr<Catalog>> CopyCatalog(const CatalogSnapshot& snap) {
  auto copy = std::make_unique<Catalog>();
  auto fill = [&](CatalogTxn& txn) {
    for (const std::string& name : snap.DatabaseNames()) {
      const Database* from = snap.GetDatabase(name).value();
      Database* to = txn.GetOrCreateDatabase(name);
      for (const std::string& rel : from->TableNames()) {
        to->PutTable(rel, *from->GetTable(rel).value());
      }
    }
    return Status::OK();
  };
  DV_RETURN_IF_ERROR(copy->Mutate(fill).status());
  return copy;
}

/// The commit arm: on a copy of the scenario's catalog, answer `sql`, commit
/// a rows-only change to I::base0 and answer again. The warm answer (8
/// threads, planned before the commit) must equal a cold one (1 thread,
/// empty cache) at the new snapshot in bytes, row order, warnings and
/// EXPLAIN. Sources register twice: unfenced, so the commit changes no
/// plan input, and fenced as the primary fences them (fresh there = fresh
/// here), so the commit fences every fresh source the plan visited.
std::optional<std::string> CheckAcrossCommit(Runtime& rt,
                                             const std::string& sql,
                                             bool multiset, FuzzReport* rep) {
  std::shared_ptr<const CatalogSnapshot> snap = rt.catalog->Snapshot();
  Result<const Table*> base0 = snap->ResolveTable("I", "base0");
  if (!base0.ok() || base0.value()->num_rows() == 0) return std::nullopt;
  Row added = base0.value()->row(0);
  for (Value& v : added) {
    if (v.kind() == TypeKind::kInt) v = Value::Int(v.as_int() + 1);
  }
  AnswerOptions options;
  options.multiset = multiset;
  for (const bool fenced : {false, true}) {
    Result<std::unique_ptr<Catalog>> copy = CopyCatalog(*snap);
    if (!copy.ok()) {
      return "commit: copying the catalog: " + copy.status().ToString();
    }
    Catalog* catalog = copy.value().get();
    IntegrationOptions o1, o8;
    o1.exec = MakeExec(1);
    o8.exec = MakeExec(8);
    IntegrationSystem warm(catalog, "I", o8);
    IntegrationSystem cold(catalog, "I", o1);
    const uint64_t copied = catalog->version();
    for (const auto& source : rt.a8->sources()) {
      const std::string def = source->stmt().ToString();
      // A definition DDL broke no longer registers: the arm needs the
      // primary's whole source universe.
      if (!warm.RegisterSource(def).ok() || !cold.RegisterSource(def).ok()) {
        return std::nullopt;
      }
      if (!fenced || !source->fenced()) continue;
      for (IntegrationSystem* sys : {&warm, &cold}) {
        ViewDefinition* twin = sys->sources().back().get();
        twin->set_fenced(true);
        twin->set_materialization(source->materialization());
        if (!source->IsStaleAgainst(*snap)) {
          twin->AdvanceMaterializedVersion(copied);
        }
      }
    }
    (void)RunAnswer(&warm, sql, multiset, catalog->Snapshot());
    const uint64_t epoch = catalog->Snapshot()->schema_epoch();
    auto append = [&](CatalogTxn& txn) -> Status {
      DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase("I"));
      DV_ASSIGN_OR_RETURN(Table * t, db->GetMutableTable("base0"));
      return t->AppendRow(added);
    };
    Status committed = catalog->Mutate(append).status();
    const std::string arm =
        std::string(fenced ? "commit/fenced" : "commit/unfenced") + ": ";
    if (!committed.ok()) return arm + committed.ToString();
    std::shared_ptr<const CatalogSnapshot> next = catalog->Snapshot();
    if (next->schema_epoch() != epoch) {
      return arm + "a rows-only commit moved the schema epoch";
    }
    auto answer_at_next = [&](IntegrationSystem* sys) {
      QueryContext qc(options.guards);
      qc.PinSnapshot(next);
      return sys->AnswerGuarded(sql, options, &qc);
    };
    Result<AnswerResult> got = answer_at_next(&warm);
    Result<AnswerResult> want = answer_at_next(&cold);
    if (rep != nullptr) {
      ++rep->checks;
      ++rep->commit_checks;
      if (got.ok() && got.value().plan_cached) ++rep->commit_hits;
    }
    if (got.ok() != want.ok() ||
        (!got.ok() && got.status().ToString() != want.status().ToString())) {
      return arm + "warm " +
             (got.ok() ? "ok" : got.status().ToString()) + " vs cold " +
             (want.ok() ? "ok" : want.status().ToString());
    }
    if (!got.ok()) continue;
    if (got.value().table.ToString() != want.value().table.ToString()) {
      return arm + "bytes or row order diverge from the cold answer\n" +
             got.value().table.ToString() + "--- cold ---\n" +
             want.value().table.ToString();
    }
    if (WarningText(got.value().warnings) !=
        WarningText(want.value().warnings)) {
      return arm + "warnings diverge from the cold answer\n" +
             WarningText(got.value().warnings) + "--- cold ---\n" +
             WarningText(want.value().warnings);
    }
    cold.ClearPlanCache();
    Result<std::string> got_explain = warm.ExplainOptimized(sql, options);
    Result<std::string> want_explain = cold.ExplainOptimized(sql, options);
    if (got_explain.ok() != want_explain.ok() ||
        (got_explain.ok() && got_explain.value() != want_explain.value())) {
      return arm + "EXPLAIN diverges from the cold twin's";
    }
  }
  return std::nullopt;
}

/// The candidate arm: each source of the primary alone on a fresh twin over
/// the same catalog, its fence synced as SyncFences syncs it. Where the
/// source is usable, its rewriting (Rewrite returns one even where the
/// costed choice would answer from the direct plan on I) must answer the
/// reference's set, or its bag under multiset: Thm. 5.2/5.4 make every
/// candidate of the costed choice answer the same.
std::optional<std::string> CheckEachCandidate(Runtime& rt,
                                              const std::string& sql,
                                              bool multiset, FuzzReport* rep) {
  std::shared_ptr<const CatalogSnapshot> snap = rt.catalog->Snapshot();
  QueryContext ref_qc;
  ref_qc.PinSnapshot(snap);
  Result<Table> ref = rt.ref->ExecuteSql(sql, &ref_qc);
  if (!ref.ok()) return std::nullopt;
  auto canon = [&](const Table& t) {
    return multiset ? Canon(t) : SetCanon(t);
  };
  const std::string want = canon(ref.value());
  IntegrationOptions serial;
  serial.exec = MakeExec(1);
  for (const auto& source : rt.a8->sources()) {
    IntegrationSystem alone(rt.catalog.get(), "I", serial);
    if (!alone.RegisterSource(source->stmt().ToString()).ok()) continue;
    SyncFence(*source, alone.sources()[0].get());
    Result<TranslationResult> rewriting = alone.Rewrite(sql, multiset);
    if (!rewriting.ok()) continue;  // Not usable, or fenced off.
    QueryContext qc;
    qc.PinSnapshot(snap);
    Result<Table> got =
        alone.engine()->Execute(rewriting.value().query.get(), &qc);
    if (rep != nullptr) {
      ++rep->checks;
      ++rep->candidate_checks;
    }
    const std::string arm = "candidate " + source->DisplayName() + ": ";
    if (!got.ok()) {
      return arm + got.status().ToString() + " where the reference answers";
    }
    if (canon(got.value()) != want) {
      return arm + "rewriting answer diverges from direct\n" +
             canon(got.value()) + "--- reference ---\n" + want;
    }
  }
  return std::nullopt;
}

/// Runs one (sql, multiset) through every strategy and compares. Returns the
/// first violation ("<strategy>: <what diverged>"), or nullopt when all
/// six executions agree. `rep` is null during minimization replays.
std::optional<std::string> CheckQuery(Runtime& rt, const std::string& sql,
                                      bool multiset, FuzzReport* rep) {
  if (FailPoints::AnyArmed()) {
    Status s = FailPoints::Check("fuzz.oracle", sql);
    if (!s.ok()) {
      return std::optional<std::string>("oracle.injected: " + s.ToString());
    }
  }
  auto snap = rt.catalog->Snapshot();
  RunOut ref = RunDirect(rt.ref.get(), sql, snap);

  auto count = [&] {
    if (rep != nullptr) ++rep->checks;
  };

  // The 8-thread engine must reproduce the serial reference byte for byte.
  {
    RunOut o = RunDirect(rt.dc8.get(), sql, snap);
    count();
    if (o.ok != ref.ok) {
      return std::string("direct/t8: ok=") + (o.ok ? "1" : "0") +
             " but reference " + Describe(ref);
    }
    if (o.ok && o.raw != ref.raw) {
      return "direct/t8: bytes diverge from the serial reference";
    }
    if (!o.ok && o.st.code() != ref.st.code()) {
      return "direct/t8: " + Describe(o) + " vs reference " + Describe(ref);
    }
  }

  // The Sec. 6 optimizer over the same sources and indexes: its cost-based
  // plan must reproduce the reference rows (sorted — join order is its
  // choice).
  {
    Optimizer opt(rt.catalog.get(), rt.a8->integration_db());
    for (const auto& source : rt.a8->sources()) opt.RegisterView(source);
    for (const auto& index : rt.a8->indexes()) opt.RegisterIndex(index);
    Result<OptimizedPlan> plan = opt.Plan(sql);
    if (!plan.ok() && plan.status().code() == StatusCode::kUnsupported) {
      if (rep != nullptr) ++rep->optimizer_refusals;
    } else {
      count();
      if (rep != nullptr) ++rep->optimizer_checks;
      Result<Table> r =
          plan.ok() ? opt.Execute(plan.value()) : Result<Table>(plan.status());
      RunOut o;
      o.ok = r.ok();
      if (r.ok()) {
        o.canon = Canon(r.value());
      } else {
        o.st = r.status();
      }
      if (o.ok != ref.ok || (!o.ok && o.st.code() != ref.st.code())) {
        return "optimizer: " + Describe(o) + " vs reference " + Describe(ref);
      }
      if (o.ok && o.canon != ref.canon) {
        return "optimizer: plan rows diverge from direct\n" + o.canon +
               "--- reference ---\n" + ref.canon + "--- plan ---\n" +
               plan.value().Describe();
      }
    }
  }

  const std::pair<const char*, IntegrationSystem*> answers[] = {
      {"answer/t1", rt.a1.get()},
      {"answer/t8", rt.a8.get()},
  };
  std::vector<RunOut> outs;
  for (const auto& [name, sys] : answers) {
    RunOut o = RunAnswer(sys, sql, multiset, snap);
    count();
    if (rep != nullptr) {
      rep->warnings_seen += static_cast<int>(o.num_warnings);
    }
    if (o.ok != ref.ok) {
      return std::string(name) + ": " + Describe(o) + " vs reference " +
             Describe(ref);
    }
    if (o.ok && o.canon != ref.canon) {
      return std::string(name) + ": rewriting answer diverges from direct\n" +
             o.canon + "--- reference ---\n" + ref.canon;
    }
    if (!o.ok && o.st.code() != ref.st.code()) {
      return std::string(name) + ": " + Describe(o) + " vs reference " +
             Describe(ref);
    }
    outs.push_back(std::move(o));
  }

  // The plan-cache hit path: a repeat on the 8-thread system must reproduce
  // the first answer byte-for-byte (warnings excluded — recovery warnings
  // drain once by design).
  RunOut again = RunAnswer(rt.a8.get(), sql, multiset, snap);
  count();
  if (again.ok != outs[1].ok ||
      (again.ok && again.raw != outs[1].raw) ||
      (!again.ok && again.st.code() != outs[1].st.code())) {
    return std::string("answer/t8-repeat: cached plan diverges");
  }

  // Warm vs cold on each system: with the plan cache emptied, the first
  // answer builds its executable plan and the second runs the cached one.
  // They must agree in bytes and row order, warnings and the per-answer
  // grounding and row counters.
  for (const auto& [name, sys] : answers) {
    sys->ClearPlanCache();
    RunOut cold = RunAnswer(sys, sql, multiset, snap);
    RunOut warm = RunAnswer(sys, sql, multiset, snap);
    count();
    if (rep != nullptr) ++rep->warm_cold_checks;
    const std::string arm = std::string(name) + "/warm-vs-cold: ";
    if (cold.ok != warm.ok || (!cold.ok && cold.st.code() != warm.st.code())) {
      return arm + Describe(warm) + " vs cold " + Describe(cold);
    }
    if (!cold.ok) continue;
    // The second answer is a hit unless the first dropped its entry (a
    // rewriting whose materialization vanished falls back to the direct
    // plan uncached); either way the answers must agree.
    if (cold.cached) return arm + "expected a miss after clearing the cache";
    if (warm.raw != cold.raw) return arm + "bytes or row order diverge";
    if (warm.warns != cold.warns) return arm + "warnings diverge";
    if (warm.counters != cold.counters) {
      std::string detail;
      for (size_t i = 0; i < warm.counters.size() && i < cold.counters.size();
           ++i) {
        detail += std::string(" ") + kAnswerCounters[i] + "=" +
                  std::to_string(cold.counters[i]) + "/" +
                  std::to_string(warm.counters[i]);
      }
      return arm + "counters diverge (cold/warm):" + detail;
    }
  }

  // Shape arm: answer the query, then the same shape with other literals
  // (Rebind). The second answer reuses the first's rewriting when its
  // literal guard holds and probes afresh when it fails; either way it and
  // its EXPLAIN must equal the cold twin's, byte for byte.
  if (std::optional<std::string> rebound = Rebind(sql)) {
    AnswerOptions options;
    options.multiset = multiset;
    IntegrationSystem* sys = rt.a1.get();
    rt.cold->ClearPlanCache();
    RunOut want = RunAnswer(rt.cold.get(), *rebound, multiset, snap);
    rt.cold->ClearPlanCache();
    Result<std::string> want_explain =
        rt.cold->ExplainOptimized(*rebound, options);

    sys->ClearPlanCache();
    (void)RunAnswer(sys, sql, multiset, snap);
    const PlanCacheStats before = sys->plan_cache_stats();
    RunOut got = RunAnswer(sys, *rebound, multiset, snap);
    const PlanCacheStats after = sys->plan_cache_stats();
    sys->ClearPlanCache();
    (void)RunAnswer(sys, sql, multiset, snap);
    Result<std::string> got_explain = sys->ExplainOptimized(*rebound, options);
    count();
    if (rep != nullptr) {
      rep->shape_checks +=
          static_cast<int>(after.shape_hits - before.shape_hits);
      rep->shape_fallbacks += static_cast<int>(after.shape_guard_failures -
                                               before.shape_guard_failures);
    }
    const std::string arm = "answer/t1-shape [" + *rebound + "]: ";
    if (got.ok != want.ok || (!got.ok && got.st.code() != want.st.code())) {
      return arm + Describe(got) + " vs cold " + Describe(want);
    }
    if (got.ok && (got.raw != want.raw || got.warns != want.warns)) {
      return arm + "answer diverges from the cold twin's\n" + got.raw +
             "--- cold ---\n" + want.raw;
    }
    if (got_explain.ok() != want_explain.ok() ||
        (got_explain.ok() && got_explain.value() != want_explain.value())) {
      return arm + "EXPLAIN diverges from the cold twin's\n" +
             (got_explain.ok() ? got_explain.value()
                               : got_explain.status().ToString()) +
             "--- cold ---\n" +
             (want_explain.ok() ? want_explain.value()
                                : want_explain.status().ToString());
    }
  }

  if (std::optional<std::string> fail =
          CheckEachCandidate(rt, sql, multiset, rep)) {
    return fail;
  }
  if (std::optional<std::string> fail =
          CheckAcrossCommit(rt, sql, multiset, rep)) {
    return fail;
  }

  if (outs[0].warns != outs[1].warns) {
    auto render = [](const RunOut& o) {
      std::string s;
      for (const auto& [src, code] : o.warns) {
        s += " (" + src + "," + code + ")";
      }
      return s.empty() ? std::string(" none") : s;
    };
    return std::string("warnings/divergence: t1") + render(outs[0]) +
           " vs t8" + render(outs[1]);
  }
  return std::nullopt;
}

// ---- Failure minimization + repro dump -------------------------------------

Status ApplyOps(Runtime* rt, const std::vector<DdlOp>& ops) {
  for (const DdlOp& op : ops) {
    (void)rt->evolver->Apply(op);  // Rejections are part of the stream.
    SyncTwins(rt);
  }
  return Status::OK();
}

/// Greedy delta-minimization of the attempted-op prefix, keeping the subset
/// that still violates the oracle for the failing query, then dumps a
/// self-contained repro file. Non-durable replay: the minimizer rebuilds the
/// scenario in memory (the failure either reproduces there or the dump
/// records the full prefix unminimized).
void MinimizeAndDump(const FuzzConfig& config, const ScenarioSpec& spec,
                     const std::vector<DdlOp>& attempted, const GenQuery& q,
                     int step, const std::string& failure, FuzzReport* rep) {
  if (config.repro_dir.empty()) return;

  auto fails = [&](const std::vector<DdlOp>& ops) {
    Runtime rt;
    if (!BuildRuntime(spec, "", true, &rt).ok()) return false;
    (void)ApplyOps(&rt, ops);
    return CheckQuery(rt, q.sql, q.multiset, nullptr).has_value();
  };

  std::vector<DdlOp> ops = attempted;
  bool reproduced = fails(ops);
  if (reproduced) {
    for (size_t i = 0; i < ops.size();) {
      std::vector<DdlOp> cand = ops;
      cand.erase(cand.begin() + static_cast<ptrdiff_t>(i));
      if (fails(cand)) {
        ops = std::move(cand);
      } else {
        ++i;
      }
    }
  }

  std::filesystem::create_directories(config.repro_dir);
  std::string path = config.repro_dir + "/dynview_fuzz_repro_" +
                     std::to_string(config.seed) + "_s" +
                     std::to_string(spec.index) + ".txt";
  std::ofstream f(path, std::ios::trunc);
  f << "# dynview fuzz repro\n"
    << "seed: " << config.seed << "\n"
    << "scenario: " << spec.index << "\n"
    << "step: " << step << "\n"
    << "reproduced_in_replay: " << (reproduced ? "yes" : "no") << "\n"
    << "failure: " << failure << "\n"
    << "query: " << q.sql << "\n"
    << "multiset: " << (q.multiset ? "true" : "false") << "\n\n"
    << "sources:\n";
  for (const std::string& def : spec.defs) f << "  " << def << "\n";
  f << "\nddl (minimized prefix, " << ops.size() << " of " << attempted.size()
    << " attempted):\n";
  for (const DdlOp& op : ops) f << "  " << op.ToString() << "\n";
  f << "\nbase relation I::base0:\n" << spec.base.ToString() << "\n";
  f.close();
  rep->repro_path = path;
}

}  // namespace

// ---- Config + report -------------------------------------------------------

FuzzConfig FuzzConfig::FromEnv(FuzzConfig base) {
  if (const char* iters = std::getenv("DYNVIEW_FUZZ_ITERS")) {
    int v = std::atoi(iters);
    if (v > 0) base.scenarios = v;
  }
  if (const char* seed = std::getenv("DYNVIEW_FUZZ_SEED")) {
    uint64_t v = std::strtoull(seed, nullptr, 10);
    if (v > 0) base.seed = v;
  }
  return base;
}

std::string FuzzReport::Summary() const {
  std::ostringstream os;
  os << "triples=" << triples << " checks=" << checks
     << " ddl_applied=" << ddl_applied << " ddl_rejected=" << ddl_rejected
     << " remats=" << remats << " left_stale=" << left_stale
     << " warnings=" << warnings_seen << " optimizer=" << optimizer_checks
     << " optimizer_refusals=" << optimizer_refusals
     << " warm_cold=" << warm_cold_checks << " shape=" << shape_checks
     << " shape_fallbacks=" << shape_fallbacks
     << " commit=" << commit_checks << " commit_hits=" << commit_hits
     << " candidates=" << candidate_checks
     << " crashes=" << crashes_replayed
     << " mismatches=" << mismatches << " kinds=[";
  bool first = true;
  for (const std::string& k : kinds_applied) {
    if (!first) os << ",";
    os << k;
    first = false;
  }
  os << "]";
  return os.str();
}

// ---- The fuzzer ------------------------------------------------------------

FuzzReport HeterogeneityFuzzer::Run() {
  FuzzReport rep;

  for (int sidx = 0; sidx < config_.scenarios; ++sidx) {
    ScenarioSpec spec = MakeSpec(config_.seed, sidx);
    std::mt19937_64 rng(spec.rng_seed);

    std::string durdir;
    if (config_.durable) {
      durdir = config_.durable_dir + "/s" + std::to_string(sidx);
      std::error_code ec;
      std::filesystem::remove_all(durdir, ec);
      std::filesystem::create_directories(durdir, ec);
    }

    Runtime rt;
    Status built = BuildRuntime(spec, durdir, /*fresh_data=*/true, &rt);
    if (!built.ok()) {
      ++rep.mismatches;
      if (rep.first_failure.empty()) {
        rep.first_failure = "scenario " + std::to_string(sidx) +
                            " setup: " + built.ToString();
      }
      continue;
    }

    std::vector<DdlOp> attempted;
    auto check_step = [&](int step) {
      for (const GenQuery& q :
           GenQueries(rng, *rt.catalog, spec.labels,
                      config_.queries_per_step)) {
        ++rep.triples;
        auto fail = CheckQuery(rt, q.sql, q.multiset, &rep);
        if (fail.has_value()) {
          ++rep.mismatches;
          if (rep.first_failure.empty()) {
            rep.first_failure = "scenario " + std::to_string(sidx) +
                                " step " + std::to_string(step) + " query [" +
                                q.sql + "]: " + *fail;
            MinimizeAndDump(config_, spec, attempted, q, step,
                            rep.first_failure, &rep);
          }
        }
      }
    };

    check_step(0);

    const int total_steps = 6 + config_.extra_steps;
    for (int k = 0; k < total_steps; ++k) {
      auto snap = rt.catalog->Snapshot();
      DdlOp op =
          k < 6 ? ScheduledOp(k, rng, *snap) : RandomOp(k, rng, *snap);
      attempted.push_back(op);
      Result<EvolutionResult> res = rt.evolver->Apply(op);
      if (res.ok()) {
        ++rep.ddl_applied;
        rep.kinds_applied.insert(DdlKindName(op.kind));
        rep.remats += static_cast<int>(res.value().rematerialized);
        rep.left_stale += static_cast<int>(res.value().left_stale);
        rep.warnings_seen += static_cast<int>(res.value().warnings.size());
      } else {
        ++rep.ddl_rejected;
      }
      SyncTwins(&rt);
      check_step(k + 1);

      // Crash mid-DDL-stream: kill the checkpoint so recovery must come
      // from snapshot + WAL replay, then rebuild and verify the replayed
      // head and answers match the pre-crash state exactly.
      if (config_.durable && k == 2) {
        uint64_t pre_version = rt.catalog->version();
        std::vector<GenQuery> probes =
            GenQueries(rng, *rt.catalog, spec.labels, 3);
        std::vector<std::string> expected;
        for (const GenQuery& p : probes) {
          RunOut o = RunDirect(rt.ref.get(), p.sql, rt.catalog->Snapshot());
          expected.push_back(Describe(o));
        }

        FailSpec kill;
        kill.mode = FailMode::kErrorAlways;
        FailPoints::Arm("snapshot.write", kill);
        rt.Reset();  // Destructors run; the final checkpoint fails.
        FailPoints::DisarmAll();

        Status recovered = BuildRuntime(spec, durdir, /*fresh_data=*/false,
                                        &rt);
        std::string crash_fail;
        if (!recovered.ok()) {
          crash_fail = "recovery failed: " + recovered.ToString();
        } else if (rt.catalog->version() != pre_version) {
          crash_fail = "replayed head " +
                       std::to_string(rt.catalog->version()) +
                       " != pre-crash head " + std::to_string(pre_version);
        } else {
          for (size_t i = 0; i < probes.size() && crash_fail.empty(); ++i) {
            RunOut direct = RunDirect(rt.ref.get(), probes[i].sql,
                                      rt.catalog->Snapshot());
            if (Describe(direct) != expected[i]) {
              crash_fail = "replayed direct answer diverges for [" +
                           probes[i].sql + "]";
            }
            RunOut ans = RunAnswer(rt.a8.get(), probes[i].sql,
                                   probes[i].multiset, rt.catalog->Snapshot());
            if (crash_fail.empty() && ans.ok &&
                Describe(ans) != expected[i]) {
              crash_fail = "replayed rewriting answer diverges for [" +
                           probes[i].sql + "]";
            }
          }
        }
        if (!crash_fail.empty()) {
          ++rep.mismatches;
          if (rep.first_failure.empty()) {
            rep.first_failure = "scenario " + std::to_string(sidx) +
                                " crash-replay: " + crash_fail;
          }
          break;  // Runtime state is unusable for this scenario.
        }
        ++rep.crashes_replayed;
      }
    }
  }
  return rep;
}

}  // namespace dynview
