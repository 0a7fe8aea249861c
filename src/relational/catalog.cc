#include "relational/catalog.h"

#include <utility>

#include "common/failpoint.h"
#include "common/str_util.h"

namespace dynview {

Status Database::AddTable(const std::string& rel_name, Table table) {
  std::string key = ToLower(rel_name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + rel_name + "' already exists in " +
                                 name_);
  }
  tables_.emplace(key,
                  Entry{rel_name, std::make_shared<Table>(std::move(table))});
  return Status::OK();
}

void Database::PutTable(const std::string& rel_name, Table table) {
  tables_[ToLower(rel_name)] =
      Entry{rel_name, std::make_shared<Table>(std::move(table))};
}

Status Database::DropTable(const std::string& rel_name) {
  std::string key = ToLower(rel_name);
  if (tables_.erase(key) == 0) {
    return Status::NotFound("table '" + rel_name + "' not found in " + name_);
  }
  return Status::OK();
}

bool Database::HasTable(const std::string& rel_name) const {
  return tables_.count(ToLower(rel_name)) > 0;
}

Result<const Table*> Database::GetTable(const std::string& rel_name) const {
  auto it = tables_.find(ToLower(rel_name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + rel_name + "' not found in database '" +
                            name_ + "'");
  }
  return it->second.table.get();
}

Result<Table*> Database::GetMutableTable(const std::string& rel_name) {
  auto it = tables_.find(ToLower(rel_name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + rel_name + "' not found in database '" +
                            name_ + "'");
  }
  std::shared_ptr<Table>& table = it->second.table;
  // Sole owner: nothing else (no published snapshot in particular) reaches
  // the table, so it is written in place. Inside a transaction every table
  // still shared with the base version counts at least two references,
  // because the base snapshot stays pinned for the whole transaction.
  if (table.use_count() != 1) table = std::make_shared<Table>(*table);
  return table.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, entry] : tables_) names.push_back(entry.name);
  return names;
}

bool Database::SameSchemaAs(const Database& other) const {
  if (name_ != other.name_ || tables_.size() != other.tables_.size()) {
    return false;
  }
  auto theirs = other.tables_.begin();
  for (const auto& [key, entry] : tables_) {
    const Entry& other_entry = theirs->second;
    if (key != theirs->first || entry.name != other_entry.name) return false;
    if (entry.table != other_entry.table &&
        entry.table->schema() != other_entry.table->schema()) {
      return false;
    }
    ++theirs;
  }
  return true;
}

// ---------------------------------------------------------------- Snapshot

void CatalogSnapshot::InheritSchemaEpoch(const CatalogSnapshot& base) {
  bool same = entries_.size() == base.entries_.size();
  auto theirs = base.entries_.begin();
  for (auto ours = entries_.begin(); same && ours != entries_.end();
       ++ours, ++theirs) {
    same = ours->first == theirs->first &&
           ours->second.name == theirs->second.name &&
           (ours->second.db == theirs->second.db ||
            ours->second.db->SameSchemaAs(*theirs->second.db));
  }
  schema_epoch_ = same ? base.schema_epoch_ : version_;
}

uint64_t CatalogSnapshot::DatabaseVersion(const std::string& db_name) const {
  auto it = entries_.find(ToLower(db_name));
  return it == entries_.end() ? 0 : it->second.version;
}

bool CatalogSnapshot::HasDatabase(const std::string& db_name) const {
  return entries_.count(ToLower(db_name)) > 0;
}

Result<const Database*> CatalogSnapshot::GetDatabase(
    const std::string& db_name) const {
  auto it = entries_.find(ToLower(db_name));
  if (it == entries_.end()) {
    return Status::NotFound("database '" + db_name + "' not found");
  }
  return it->second.db.get();
}

Result<const Table*> CatalogSnapshot::ResolveTable(
    const std::string& db_name, const std::string& rel_name) const {
  // Fault-injection point for source access: every engine scan and view
  // grounding resolves its base table here, so arming "catalog.resolve"
  // (match "db::rel") simulates that source being slow or unavailable.
  if (FailPoints::AnyArmed()) {  // Skip building the detail string when off.
    DV_RETURN_IF_ERROR(FailPoints::Check(
        "catalog.resolve", ToLower(db_name) + "::" + ToLower(rel_name)));
  }
  DV_ASSIGN_OR_RETURN(const Database* db, GetDatabase(db_name));
  return db->GetTable(rel_name);
}

std::vector<std::string> CatalogSnapshot::DatabaseNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) names.push_back(entry.name);
  return names;
}

// --------------------------------------------------------------------- Txn

CatalogTxn::CatalogTxn(const CatalogSnapshot& base)
    : entries_(base.entries_) {}

bool CatalogTxn::HasDatabase(const std::string& db_name) const {
  return entries_.count(ToLower(db_name)) > 0;
}

Result<const Database*> CatalogTxn::GetDatabase(
    const std::string& db_name) const {
  auto it = entries_.find(ToLower(db_name));
  if (it == entries_.end()) {
    return Status::NotFound("database '" + db_name + "' not found");
  }
  return it->second.db.get();
}

Result<const Table*> CatalogTxn::ResolveTable(
    const std::string& db_name, const std::string& rel_name) const {
  // No failpoint here: transaction-internal reads (read-your-writes) are
  // part of the mutation, whose injection point is `catalog.commit`.
  DV_ASSIGN_OR_RETURN(const Database* db, GetDatabase(db_name));
  return db->GetTable(rel_name);
}

std::vector<std::string> CatalogTxn::DatabaseNames() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) names.push_back(entry.name);
  return names;
}

Database* CatalogTxn::Own(const std::string& key) {
  auto owned = owned_.find(key);
  if (owned != owned_.end()) return owned->second.get();
  auto it = entries_.find(key);
  auto clone = std::make_shared<Database>(*it->second.db);
  it->second.db = clone;
  owned_[key] = clone;
  touched_.insert(key);
  return clone.get();
}

Result<Database*> CatalogTxn::CreateDatabase(const std::string& db_name) {
  std::string key = ToLower(db_name);
  if (entries_.count(key) > 0) {
    return Status::AlreadyExists("database '" + db_name + "' already exists");
  }
  auto db = std::make_shared<Database>(db_name);
  entries_[key] = CatalogSnapshot::Entry{db_name, db, 0};
  owned_[key] = db;
  touched_.insert(key);
  return db.get();
}

Database* CatalogTxn::GetOrCreateDatabase(const std::string& db_name) {
  std::string key = ToLower(db_name);
  if (entries_.count(key) == 0) {
    return CreateDatabase(db_name).value();
  }
  return Own(key);
}

Result<Database*> CatalogTxn::GetMutableDatabase(const std::string& db_name) {
  std::string key = ToLower(db_name);
  if (entries_.count(key) == 0) {
    return Status::NotFound("database '" + db_name + "' not found");
  }
  return Own(key);
}

Status CatalogTxn::DropDatabase(const std::string& db_name) {
  std::string key = ToLower(db_name);
  if (entries_.erase(key) == 0) {
    return Status::NotFound("database '" + db_name + "' not found");
  }
  owned_.erase(key);
  touched_.insert(key);
  return Status::OK();
}

std::string CatalogTxn::TouchedDetail() const {
  std::string detail;
  for (const std::string& key : touched_) {
    if (!detail.empty()) detail += ",";
    detail += key;
  }
  return detail;
}

std::shared_ptr<const CatalogSnapshot> CatalogTxn::Build(
    const CatalogSnapshot& base, const Catalog* origin) const {
  const uint64_t version = base.version() + 1;
  auto snap = std::make_shared<CatalogSnapshot>();
  snap->entries_ = entries_;
  for (const std::string& key : touched_) {
    auto it = snap->entries_.find(key);
    if (it != snap->entries_.end()) it->second.version = version;
  }
  snap->version_ = version;
  snap->origin_ = origin;
  snap->InheritSchemaEpoch(base);
  return snap;
}

// ----------------------------------------------------------------- Catalog

Catalog::CommitScope::CommitScope(Catalog* cat)
    : retired_(cat->retired_.get()) {
  std::lock_guard<std::mutex> lock(retired_->mu);
  retired_->committing = true;
}

Catalog::CommitScope::~CommitScope() {
  std::vector<std::shared_ptr<const CatalogSnapshot>> released;
  std::lock_guard<std::mutex> lock(retired_->mu);
  retired_->committing = false;
  released.swap(retired_->versions);
}

void Catalog::Publish(std::shared_ptr<const CatalogSnapshot> next) {
  const CatalogSnapshot* raw = next.get();
  std::shared_ptr<const CatalogSnapshot> handle(
      raw, [retired = retired_, owner = std::move(next)](
               const CatalogSnapshot*) mutable {
        std::unique_lock<std::mutex> lock(retired->mu);
        if (retired->committing) retired->versions.push_back(std::move(owner));
        lock.unlock();
        owner.reset();  // No commit is running: free it here.
      });
  std::lock_guard<std::mutex> lock(head_mu_);
  head_ = std::move(handle);
}

Catalog::Catalog() {
  auto empty = std::make_shared<CatalogSnapshot>();
  empty->origin_ = this;
  Publish(std::move(empty));
}

Result<uint64_t> Catalog::Mutate(
    const std::function<Status(CatalogTxn&)>& fn) {
  return Mutate(fn, "txn");
}

Result<uint64_t> Catalog::Mutate(
    const std::function<Status(CatalogTxn&)>& fn, const std::string& tag,
    const std::function<void(uint64_t)>& before_publish) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  CommitScope scope(this);
  std::shared_ptr<const CatalogSnapshot> base = Snapshot();
  CatalogTxn txn(*base);
  DV_RETURN_IF_ERROR(fn(txn));
  if (txn.touched_.empty()) return base->version();  // Read-only transaction.
  uint64_t next = base->version() + 1;
  // Fault-injection point for the commit itself: an injected error aborts
  // the publish, so a chaos run exercises "mutation failed, readers keep the
  // old version" — commit-or-nothing must hold under injection too.
  if (FailPoints::AnyArmed()) {
    DV_RETURN_IF_ERROR(
        FailPoints::Check("catalog.commit", txn.TouchedDetail()));
  }
  // Assemble the new version before taking the head lock: readers are only
  // ever excluded for the duration of one pointer swap.
  std::shared_ptr<const CatalogSnapshot> built = txn.Build(*base, this);
  if (sink_ != nullptr) {
    // Durability before visibility: the sink (WAL) must acknowledge the
    // commit — append + fsync — before the head pointer swaps. Its error
    // aborts the commit; readers keep the old version.
    DV_RETURN_IF_ERROR(sink_->OnCommit(*base, *built, tag));
  }
  if (before_publish) before_publish(next);
  Publish(std::move(built));
  return next;
}

void Catalog::SetCommitSink(CatalogCommitSink* sink) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  sink_ = sink;
}

Status Catalog::WithWriterPaused(
    const std::function<Status(const CatalogSnapshot&)>& fn) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const CatalogSnapshot> snap = Snapshot();
  return fn(*snap);
}

Status Catalog::InstallRecoveredSnapshot(
    uint64_t version, std::vector<RecoveredDatabase> databases) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const CatalogSnapshot> cur = Snapshot();
  if (cur->version() != 0 || cur->num_databases() != 0) {
    return Status::InvalidArgument(
        "recovery requires an untouched catalog (version 0, no databases)");
  }
  auto snap = std::make_shared<CatalogSnapshot>();
  for (RecoveredDatabase& rd : databases) {
    std::string key = ToLower(rd.name);
    snap->entries_[key] = CatalogSnapshot::Entry{
        rd.name, std::make_shared<Database>(std::move(rd.db)), rd.version};
  }
  snap->version_ = version;
  snap->schema_epoch_ = version;
  snap->origin_ = this;
  Publish(std::move(snap));
  return Status::OK();
}

namespace {

Status ApplyTableChange(TableChange& change, Database* db) {
  switch (change.op) {
    case TableChange::Op::kDrop:
      return db->DropTable(change.rel);
    case TableChange::Op::kPut:
      db->PutTable(change.rel, std::move(change.table));
      return Status::OK();
    case TableChange::Op::kSplice: {
      // Splices a clone and puts it back under the record's name, which
      // carries the case the relation was last written with.
      DV_ASSIGN_OR_RETURN(const Table* current, db->GetTable(change.rel));
      Table spliced = *current;
      DV_RETURN_IF_ERROR(spliced.Splice(change.at, change.removed,
                                        std::move(change.inserted)));
      db->PutTable(change.rel, std::move(spliced));
      return Status::OK();
    }
  }
  return Status::ParseError("unknown table change op " +
                            std::to_string(static_cast<int>(change.op)));
}

}  // namespace

Status Catalog::ApplyRecoveredCommit(uint64_t version,
                                     std::vector<DatabaseChange> changes) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::shared_ptr<const CatalogSnapshot> base = Snapshot();
  // Splice positions and updates mean something only against the version
  // the record was written from. A gap arises when the newest snapshot is
  // unreadable and recovery falls back to its predecessor while the log
  // holds the records written after the newest one.
  if (version != base->version() + 1) {
    return Status::ParseError(
        "replayed commit version " + std::to_string(version) +
        " does not follow head " + std::to_string(base->version()) +
        ": the commits in between are missing (was a newer snapshot "
        "skipped?)");
  }
  auto snap = std::make_shared<CatalogSnapshot>();
  snap->entries_ = base->entries_;
  for (DatabaseChange& change : changes) {
    std::string key = ToLower(change.name);
    auto it = snap->entries_.find(key);
    if (change.op == DatabaseChange::Op::kDrop) {
      if (it == snap->entries_.end()) {
        return Status::ParseError("replayed commit drops missing database '" +
                                  change.name + "'");
      }
      snap->entries_.erase(it);
      continue;
    }
    std::shared_ptr<Database> db;
    if (change.op == DatabaseChange::Op::kCreate) {
      db = std::make_shared<Database>(change.name);
    } else if (it != snap->entries_.end()) {
      db = std::make_shared<Database>(*it->second.db);  // Shares the tables.
    } else {
      return Status::ParseError("replayed commit updates missing database '" +
                                change.name + "'");
    }
    for (TableChange& table : change.tables) {
      Status st = ApplyTableChange(table, db.get());
      if (!st.ok()) {
        return Status::ParseError("replayed commit on " + change.name +
                                  "::" + table.rel + ": " + st.message());
      }
    }
    snap->entries_[key] = CatalogSnapshot::Entry{db->name(), db, version};
  }
  snap->version_ = version;
  snap->origin_ = this;
  snap->InheritSchemaEpoch(*base);
  Publish(std::move(snap));
  return Status::OK();
}

Status Catalog::CreateDatabase(const std::string& db_name) {
  return Mutate([&](CatalogTxn& txn) {
           return txn.CreateDatabase(db_name).status();
         })
      .status();
}

Status Catalog::EnsureDatabase(const std::string& db_name) {
  return Mutate([&](CatalogTxn& txn) {
           txn.GetOrCreateDatabase(db_name);
           return Status::OK();
         })
      .status();
}

Status Catalog::AddTable(const std::string& db_name,
                         const std::string& rel_name, Table table) {
  return Mutate([&](CatalogTxn& txn) {
           return txn.GetOrCreateDatabase(db_name)->AddTable(
               rel_name, std::move(table));
         })
      .status();
}

Status Catalog::PutTable(const std::string& db_name,
                         const std::string& rel_name, Table table) {
  return Mutate([&](CatalogTxn& txn) {
           txn.GetOrCreateDatabase(db_name)->PutTable(rel_name,
                                                      std::move(table));
           return Status::OK();
         })
      .status();
}

Status Catalog::DropTable(const std::string& db_name,
                          const std::string& rel_name) {
  return Mutate([&](CatalogTxn& txn) -> Status {
           DV_ASSIGN_OR_RETURN(Database * db, txn.GetMutableDatabase(db_name));
           return db->DropTable(rel_name);
         })
      .status();
}

Status Catalog::DropDatabase(const std::string& db_name) {
  return Mutate([&](CatalogTxn& txn) { return txn.DropDatabase(db_name); })
      .status();
}

bool Catalog::HasDatabase(const std::string& db_name) const {
  return Snapshot()->HasDatabase(db_name);
}

Result<const Database*> Catalog::GetDatabase(const std::string& db_name) const {
  // The returned pointer refers into the current version; it stays valid
  // until a later commit touches this database (databases are shared across
  // versions, not copied per commit). Concurrent readers pin Snapshot().
  return Snapshot()->GetDatabase(db_name);
}

Result<const Table*> Catalog::ResolveTable(const std::string& db_name,
                                           const std::string& rel_name) const {
  return Snapshot()->ResolveTable(db_name, rel_name);
}

std::vector<std::string> Catalog::DatabaseNames() const {
  return Snapshot()->DatabaseNames();
}

size_t Catalog::num_databases() const { return Snapshot()->num_databases(); }

}  // namespace dynview
