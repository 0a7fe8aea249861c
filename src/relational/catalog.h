#ifndef DYNVIEW_RELATIONAL_CATALOG_H_
#define DYNVIEW_RELATIONAL_CATALOG_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/table.h"

namespace dynview {

class Catalog;
struct RecoveryReport;  // storage/durable_catalog.h

/// A named database: an ordered map of relation name → table. Relation names
/// are schema labels that SchemaSQL relation variables (`db -> R`) range
/// over, so enumeration order must be deterministic (we keep names sorted).
///
/// Tables are refcounted and shared by every copy of a Database, so copying
/// one copies a map of pointers, not rows. A copy clones a table the first
/// time it asks for mutable access to it while the table is still shared
/// (copy-on-write per table): a table reachable from a published snapshot is
/// never written, and the untouched tables of a copy keep their
/// `const Table*`. A Database object is only ever mutated inside a CatalogTxn
/// (where the transaction owns a private copy); everywhere else it is reached
/// through a `const Database*` and is immutable.
class Database {
 public:
  Database() = default;
  explicit Database(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds `table` under `rel_name`; fails if it already exists.
  Status AddTable(const std::string& rel_name, Table table);

  /// Replaces or creates `rel_name` (taking `rel_name`'s case).
  void PutTable(const std::string& rel_name, Table table);

  /// Removes `rel_name`; fails if absent.
  Status DropTable(const std::string& rel_name);

  bool HasTable(const std::string& rel_name) const;
  Result<const Table*> GetTable(const std::string& rel_name) const;

  /// Mutable access to `rel_name`, cloning it first when another Database
  /// still shares it. Do not copy this Database while holding the pointer.
  Result<Table*> GetMutableTable(const std::string& rel_name);

  /// Relation names in sorted order — the range of a relation variable.
  std::vector<std::string> TableNames() const;

  /// True when both hold the same relations under the same names (case
  /// included) with the same schemas, whatever their rows. A table the two
  /// share is not compared.
  bool SameSchemaAs(const Database& other) const;

  size_t num_tables() const { return tables_.size(); }

 private:
  struct Entry {
    std::string name;              // Original-case relation name.
    std::shared_ptr<Table> table;  // Shared with copies until written.
  };

  std::string name_;
  std::map<std::string, Entry> tables_;  // Keyed by lowercase name.
};

/// Read-only view of a federation of databases. Both the live `Catalog`
/// (which always reads its current version) and an immutable
/// `CatalogSnapshot` (one pinned version) implement it, so every component
/// that only *reads* schema/data — binding, normalization, usability,
/// grounding enumeration, statistics — works identically against either.
class CatalogReader {
 public:
  virtual ~CatalogReader() = default;

  virtual bool HasDatabase(const std::string& db_name) const = 0;
  virtual Result<const Database*> GetDatabase(
      const std::string& db_name) const = 0;

  /// Resolves `db.rel`; fails with NotFound naming the missing piece.
  virtual Result<const Table*> ResolveTable(
      const std::string& db_name, const std::string& rel_name) const = 0;

  /// Database names in sorted order — the range of a database variable.
  virtual std::vector<std::string> DatabaseNames() const = 0;

  virtual size_t num_databases() const = 0;
};

/// One immutable, refcounted version of the catalog (MVCC-lite). A snapshot
/// is obtained from `Catalog::Snapshot()` (a head-pointer copy) and pinned
/// for the duration of a query, so every read the query performs — grounding
/// enumeration, operator scans, optimizer statistics, view materialization
/// input — observes one consistent version even while writers commit new
/// ones concurrently. Databases and their tables are shared (refcounted)
/// across versions; a commit clones only the tables it touched (and the
/// pointer maps of their databases).
class CatalogSnapshot final : public CatalogReader {
 public:
  /// Monotonic catalog version this snapshot represents (0 = empty seed).
  uint64_t version() const { return version_; }

  /// The version of the last commit that created or dropped a database or
  /// table, changed the case of one's name, or changed a table's schema.
  /// Two snapshots of one catalog with the same epoch differ in rows only,
  /// so whatever is derived from names and schemas alone (a query plan)
  /// holds at both.
  uint64_t schema_epoch() const { return schema_epoch_; }

  /// The Catalog this snapshot was taken from. Components holding several
  /// catalogs (sub-engines over scratch catalogs) use it to decide whether a
  /// pinned snapshot applies to them.
  const Catalog* origin() const { return origin_; }

  /// The catalog version that last modified `db_name` (0 when the database
  /// does not exist in this snapshot). This is the fence derived state is
  /// checked against: a materialization built at version v is stale iff some
  /// database it reads from has DatabaseVersion > v.
  uint64_t DatabaseVersion(const std::string& db_name) const;

  bool HasDatabase(const std::string& db_name) const override;
  Result<const Database*> GetDatabase(
      const std::string& db_name) const override;
  Result<const Table*> ResolveTable(const std::string& db_name,
                                    const std::string& rel_name) const override;
  std::vector<std::string> DatabaseNames() const override;
  size_t num_databases() const override { return entries_.size(); }

 private:
  friend class Catalog;
  friend class CatalogTxn;

  struct Entry {
    std::string name;                    // Original-case database name.
    std::shared_ptr<const Database> db;  // Shared across versions until touched.
    uint64_t version = 0;                // Catalog version of last modification.
  };

  /// Sets schema_epoch_ from `base`, the version this one was derived
  /// from: its epoch when the two differ in rows only, else version_. Only
  /// databases and tables whose pointers differ are compared.
  void InheritSchemaEpoch(const CatalogSnapshot& base);

  // Keyed by lowercase database name.
  std::map<std::string, Entry> entries_;
  uint64_t version_ = 0;
  uint64_t schema_epoch_ = 0;
  const Catalog* origin_ = nullptr;
};

/// A pending catalog mutation: a copy-on-write overlay over the version the
/// writer observed at `Catalog::Mutate` entry. Reads see this transaction's
/// own writes (read-your-writes); a database's table map is copied the
/// first time the transaction asks for mutable access to it, and a table is
/// cloned the first time it is written (Database). Nothing is visible to
/// concurrent readers until `Mutate` publishes the commit atomically —
/// a failed transaction publishes nothing.
class CatalogTxn {
 public:
  CatalogTxn(const CatalogTxn&) = delete;
  CatalogTxn& operator=(const CatalogTxn&) = delete;

  bool HasDatabase(const std::string& db_name) const;
  Result<const Database*> GetDatabase(const std::string& db_name) const;
  Result<const Table*> ResolveTable(const std::string& db_name,
                                    const std::string& rel_name) const;
  std::vector<std::string> DatabaseNames() const;

  /// Creates an empty database; fails if the name is taken.
  Result<Database*> CreateDatabase(const std::string& db_name);

  /// Returns a mutable database, creating it if needed.
  Database* GetOrCreateDatabase(const std::string& db_name);

  Result<Database*> GetMutableDatabase(const std::string& db_name);

  /// Removes the database; fails with NotFound if absent.
  Status DropDatabase(const std::string& db_name);

 private:
  friend class Catalog;

  explicit CatalogTxn(const CatalogSnapshot& base);

  /// Lowercase keys of every database this transaction created, cloned for
  /// write, or dropped — comma-joined, for the `catalog.commit` failpoint
  /// detail and per-database version bumps.
  std::string TouchedDetail() const;

  /// The next version after `base`, the snapshot this transaction read.
  std::shared_ptr<const CatalogSnapshot> Build(const CatalogSnapshot& base,
                                               const Catalog* origin) const;

  /// Copies the base database under `key` for write — its table map, not
  /// its rows (no-op when already owned by this transaction).
  Database* Own(const std::string& key);

  std::map<std::string, CatalogSnapshot::Entry> entries_;
  // Private copies this transaction may mutate, aliased by entries_.
  std::map<std::string, std::shared_ptr<Database>> owned_;
  std::set<std::string> touched_;
};

/// Observer of committed catalog transactions (the WAL hook). Attached via
/// `Catalog::SetCommitSink`; `OnCommit` runs under the writer mutex AFTER
/// the next snapshot is assembled but BEFORE it publishes. Returning an
/// error aborts the whole commit — nothing becomes visible — which is what
/// makes the sink's append+fsync the commit point: a record is durable
/// before any reader can observe the version it describes, and a version no
/// reader ever observed may at worst exist as a durable-but-unacknowledged
/// WAL record (recovery treats it as committed; see storage/wal.h).
class CatalogCommitSink {
 public:
  virtual ~CatalogCommitSink() = default;

  /// `base` is the head the transaction started from and `next` the
  /// snapshot about to publish (always version `base.version() + 1`). A
  /// database or table changed iff its pointer differs between them or it
  /// is present in only one of them. `tag` labels the mutation's origin
  /// ("txn" by default); it is persisted verbatim and handed back during
  /// replay, letting higher layers re-attach semantics (e.g. maintainer
  /// fence advances) to physical records.
  virtual Status OnCommit(const CatalogSnapshot& base,
                          const CatalogSnapshot& next,
                          const std::string& tag) = 0;
};

/// One database of a recovered snapshot: original-case name, the catalog
/// version that last modified it, and its full contents.
struct RecoveredDatabase {
  std::string name;
  uint64_t version = 0;
  Database db;
};

/// One table-level change of a replayed commit (storage/wal.h).
struct TableChange {
  enum class Op : uint8_t {
    kDrop = 1,    // Remove `rel`.
    kPut = 2,     // Replace or create `rel` with `table`.
    kSplice = 3,  // Replace rows [at, at + removed) of `rel` by `inserted`.
  };
  Op op = Op::kDrop;
  std::string rel;  // Original-case relation name.
  Table table;
  uint64_t at = 0;
  uint64_t removed = 0;
  std::vector<Row> inserted;
};

/// One database-level change of a replayed commit. Every database the
/// commit touched gets one; its catalog version becomes the commit's.
struct DatabaseChange {
  enum class Op : uint8_t {
    kCreate = 1,  // (Re)create `name` empty, then apply `tables`.
    kDrop = 2,    // Remove `name`.
    kUpdate = 3,  // Apply `tables` to the existing `name`.
  };
  Op op = Op::kUpdate;
  std::string name;  // Original-case database name.
  std::vector<TableChange> tables;
};

/// A federation of databases (Fig. 6 of the paper): the range of SchemaSQL
/// database variables (`-> D`).
///
/// Concurrency model (MVCC-lite): the catalog's contents live in an
/// immutable CatalogSnapshot published through a head pointer whose only
/// critical section is the pointer copy/swap itself (a few instructions; a
/// plain mutex rather than std::atomic<shared_ptr>, whose libstdc++
/// implementation reads its payload after a relaxed spinlock release and is
/// flagged by TSan). Readers call `Snapshot()` and read that version for as
/// long as they hold the refcount; writers serialize on a single writer
/// mutex, build the next version copy-on-write inside a CatalogTxn OUTSIDE
/// the head lock, and publish with one pointer swap — so mutations never
/// block readers behind transaction work and readers never observe a torn
/// mix of versions. The inherited CatalogReader methods read the *current*
/// version; the `const Database*` they return stays valid until a later
/// commit touches that database, and a `const Table*` until a later commit
/// writes, replaces or drops that table (the other tables of a touched
/// database keep their pointers). That is always safe single-threaded,
/// while concurrent readers must pin a snapshot.
///
/// Reclamation: a version is freed where its last reference drops, except
/// while a Mutate is running: then it is queued and the writer frees the
/// queue as that Mutate ends (committed or not). A reader finishing with a
/// version therefore never frees its rows while the writer allocates the
/// next version's copies, which made the two contend on the allocator that
/// owns them, and no released version outlives the commit it was released
/// during. A snapshot that outlives its Catalog is freed where it drops.
class Catalog final : public CatalogReader {
 public:
  Catalog();
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// The current version — a refcount bump under the head lock, whose
  /// writer-side hold time is one pointer swap (never transaction work).
  std::shared_ptr<const CatalogSnapshot> Snapshot() const {
    std::lock_guard<std::mutex> lock(head_mu_);
    return head_;
  }

  /// Current catalog version number.
  uint64_t version() const { return Snapshot()->version(); }

  /// Runs `fn` on a copy-on-write transaction over the current version and,
  /// if it returns OK, publishes the result as the next version, returning
  /// its number. On error nothing is published (commit-or-nothing). Writers
  /// serialize; readers are never blocked. A transaction that touched
  /// nothing publishes nothing and returns the current version.
  ///
  /// Failpoint: `catalog.commit` fires between `fn` succeeding and the
  /// publish, with the comma-joined lowercase names of the touched databases
  /// as the match detail — an injected error aborts the whole commit.
  Result<uint64_t> Mutate(const std::function<Status(CatalogTxn&)>& fn);

  /// Like Mutate, with `tag` labeling the mutation for the commit sink (the
  /// WAL persists it and hands it back at replay). The no-tag overload uses
  /// "txn".
  ///
  /// `before_publish`, when given, runs with the new version's number after
  /// the sink acknowledged the commit and before any reader can pin it.
  /// Derived state that a commit makes current (a materialization's fence)
  /// is updated there, so no reader sees the new version without it. It
  /// does not run when the commit fails or touches nothing.
  Result<uint64_t> Mutate(
      const std::function<Status(CatalogTxn&)>& fn, const std::string& tag,
      const std::function<void(uint64_t)>& before_publish = nullptr);

  /// Attaches (or clears, with nullptr) the durability hook. The sink is
  /// invoked for every subsequent commit, under the writer mutex, before
  /// publish; its error aborts the commit. The sink must outlive the catalog
  /// or be detached first.
  void SetCommitSink(CatalogCommitSink* sink);

  /// Runs `fn` over the current snapshot while HOLDING the writer mutex, so
  /// no commit can append to the WAL or publish concurrently. This is the
  /// checkpoint's consistency device: the snapshot written to disk and the
  /// WAL truncation that follows see the same frozen history (without it, a
  /// commit could slip its record into the WAL after the snapshot was taken
  /// and lose it to the truncate). Keep `fn` short; writers block meanwhile.
  Status WithWriterPaused(
      const std::function<Status(const CatalogSnapshot&)>& fn);

  // --- Recovery (storage/durable_catalog.cc) -----------------------------
  // These bypass the commit sink and failpoints: they reconstruct history
  // that already committed, they do not create new history.

  /// Installs a recovered snapshot wholesale as version `version`. The
  /// catalog must be untouched (version 0, no databases).
  Status InstallRecoveredSnapshot(uint64_t version,
                                  std::vector<RecoveredDatabase> databases);

  /// Re-applies one replayed WAL commit: each change names a database and
  /// the tables to drop, put or splice in it. Only the tables named are
  /// cloned; the rest stay shared with the previous head. A commit record
  /// is a delta against the version before it, so `version` must be exactly
  /// the head's successor: a gap (records missing in between) fails with
  /// ParseError, as does a change that does not fit the head (missing
  /// database or table, splice out of range, wrong arity). A failure
  /// publishes nothing.
  Status ApplyRecoveredCommit(uint64_t version,
                              std::vector<DatabaseChange> changes);

  /// Restores this catalog from `dir` (newest valid snapshot + WAL replay,
  /// tolerating a torn tail — truncate, warn, never crash — and refusing a
  /// checksummed record it cannot read; see storage/wal.h). Defined in
  /// storage/durable_catalog.cc; see RecoveryReport there for what recovery
  /// observed. The catalog must be untouched. Standalone recovery ignores
  /// integration-layer records (IntegrationSystem::OpenDurable replays
  /// those) and does not attach a WAL: later mutations are NOT persisted.
  Status Recover(const std::string& dir, RecoveryReport* report = nullptr);

  // Convenience single-op mutations (each is one Mutate transaction).

  /// Creates an empty database; fails if the name is taken.
  Status CreateDatabase(const std::string& db_name);

  /// Ensures the database exists.
  Status EnsureDatabase(const std::string& db_name);

  /// Adds `table` under `db_name.rel_name` (creating the database if
  /// needed); fails if the table already exists.
  Status AddTable(const std::string& db_name, const std::string& rel_name,
                  Table table);

  /// Replaces or creates `db_name.rel_name` (creating the database if
  /// needed).
  Status PutTable(const std::string& db_name, const std::string& rel_name,
                  Table table);

  /// Removes `db_name.rel_name`; fails if absent.
  Status DropTable(const std::string& db_name, const std::string& rel_name);

  /// Removes the database; fails if absent.
  Status DropDatabase(const std::string& db_name);

  // CatalogReader over the current version.
  bool HasDatabase(const std::string& db_name) const override;
  Result<const Database*> GetDatabase(
      const std::string& db_name) const override;
  Result<const Table*> ResolveTable(const std::string& db_name,
                                    const std::string& rel_name) const override;
  std::vector<std::string> DatabaseNames() const override;
  size_t num_databases() const override;

 private:
  /// Versions whose last reference dropped during a Mutate, awaiting its
  /// end. Shared with every published version's deleter, so it outlives
  /// the catalog.
  struct Retired {
    std::mutex mu;
    bool committing = false;
    std::vector<std::shared_ptr<const CatalogSnapshot>> versions;
  };

  /// Marks a Mutate as running for its lifetime; the destructor frees the
  /// versions released meanwhile.
  class CommitScope {
   public:
    explicit CommitScope(Catalog* cat);
    ~CommitScope();
    CommitScope(const CommitScope&) = delete;
    CommitScope& operator=(const CommitScope&) = delete;

   private:
    Retired* retired_;
  };

  /// Publishes `next` as the new head (one pointer swap under head_mu_),
  /// handed out through a reference whose release frees it, or queues it
  /// on `retired_` while a Mutate runs.
  void Publish(std::shared_ptr<const CatalogSnapshot> next);

  mutable std::mutex writer_mu_;  // Serializes Mutate; readers never take it.
  mutable std::mutex head_mu_;    // Guards head_ for the copy/swap only.
  std::shared_ptr<const CatalogSnapshot> head_;
  CatalogCommitSink* sink_ = nullptr;  // Guarded by writer_mu_.
  std::shared_ptr<Retired> retired_ = std::make_shared<Retired>();
};

}  // namespace dynview

#endif  // DYNVIEW_RELATIONAL_CATALOG_H_
