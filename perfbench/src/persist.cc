#include "persist.h"

#include <filesystem>
#include <system_error>

#include "observe/metrics.h"
#include "storage/codec.h"
#include "storage/snapshot.h"

namespace perfbench {

namespace fs = std::filesystem;
using dynview::Row;
using dynview::Status;
using dynview::Table;

namespace {

Table OneRow(const dynview::Catalog& catalog, const Row& row) {
  Table t(catalog.ResolveTable("I", "stock").value()->schema());
  t.AppendRowUnchecked(row);
  return t;
}

Digest DigestOf(const dynview::Catalog& catalog, const std::string& db,
                const std::string& rel) {
  auto table = catalog.ResolveTable(db, rel);
  return table.ok() ? DigestTable(*table.value()) : Digest{};
}

}  // namespace

DeltaWriter::DeltaWriter(Federation* fed, const StockData* data,
                         std::string dir, Federation* twin)
    : fed_(fed), data_(data), dir_(std::move(dir)), twin_(twin) {}

Status DeltaWriter::Init() {
  DV_ASSIGN_OR_RETURN(dynview::ViewMaintainer m,
                      fed_->system->CreateMaintainer(fed_->s2_index, "s2"));
  maintainer_.emplace(std::move(m));
  if (twin_ != nullptr) {
    DV_ASSIGN_OR_RETURN(dynview::ViewMaintainer t,
                        twin_->system->CreateMaintainer(twin_->s2_index, "s2"));
    twin_maintainer_.emplace(std::move(t));
  }
  base_version_ = fed_->catalog->version();
  interval_wal_start_ = WalBytes();
  return Status::OK();
}

uint64_t DeltaWriter::WalBytes() const {
  const dynview::MetricsRegistry* m = fed_->system->storage_metrics();
  return m != nullptr ? m->Value(dynview::counters::kStorageWalBytes) : 0;
}

Status DeltaWriter::Apply(bool insert, const Row& row) {
  std::vector<Row> delta = {row};
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  Clock::time_point t0 = Clock::now();
  Status st = insert ? maintainer_->ApplyInserts(delta)
                     : maintainer_->ApplyDeletes(delta);
  Clock::time_point t1 = Clock::now();
  DV_RETURN_IF_ERROR(st);
  ++commits_;
  ++interval_commits_;
  dynview::ByteWriter user;
  dynview::EncodeStandaloneTable(OneRow(*fed_->catalog, row), &user);
  interval_user_bytes_ += user.size();
  if (insert) insert_us_.push_back(MicrosBetween(t0, t1));
  if (traced) {
    uint64_t req = tracer_->NewRequest();
    uint64_t root =
        tracer_->Record(insert ? "writer.insert" : "writer.delete", req, 0, t0, t1);
    if (insert) {
      // The WAL re-encodes every database a commit touches: I and s2.
      std::shared_ptr<const dynview::CatalogSnapshot> snap =
          fed_->catalog->Snapshot();
      double us = 0;
      Timed(tracer_, "storage.encode", req, root, &us, [&] {
        size_t bytes = 0;
        for (const char* db : {"I", "s2"}) {
          dynview::ByteWriter w;
          dynview::EncodeDatabasePayload(*snap->GetDatabase(db).value(), &w);
          bytes += w.size();
        }
        return bytes;
      });
      encode_us_.push_back(us);
    }
    if (twin_maintainer_.has_value()) {
      double us = 0;
      Status twin_st = Timed(tracer_, "schemasql.delta", req, root, &us, [&] {
        return insert ? twin_maintainer_->ApplyInserts(delta)
                      : twin_maintainer_->ApplyDeletes(delta);
      });
      DV_RETURN_IF_ERROR(twin_st);
      if (insert) delta_us_.push_back(us);
    }
  }
  if (on_schedule_ && interval_commits_ >= kCheckpointEvery) {
    DV_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::OK();
}

Status DeltaWriter::Checkpoint() {
  Clock::time_point t0 = Clock::now();
  DV_RETURN_IF_ERROR(fed_->system->Checkpoint());
  Clock::time_point t1 = Clock::now();
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Record("storage.checkpoint", tracer_->NewRequest(), 0, t0, t1);
    checkpoint_us_.push_back(MicrosBetween(t0, t1));
  }
  const uint64_t wal_now = WalBytes();
  if (interval_commits_ == kCheckpointEvery) {
    std::error_code ec;
    const uintmax_t snap_bytes = fs::file_size(
        dir_ + "/" + dynview::SnapshotFileName(fed_->catalog->version()), ec);
    if (ec) return Status::Internal("snapshot size: " + ec.message());
    amp_wal_bytes_ += wal_now - interval_wal_start_;
    amp_store_bytes_ += wal_now - interval_wal_start_ + snap_bytes;
    amp_user_bytes_ += interval_user_bytes_;
    amp_commits_ += interval_commits_;
  }
  interval_commits_ = 0;
  interval_user_bytes_ = 0;
  interval_wal_start_ = wal_now;
  return Status::OK();
}

Status DeltaWriter::Step() {
  Row row = DeltaRow(*data_, next_row_++);
  DV_RETURN_IF_ERROR(Apply(true, row));
  return Apply(false, row);
}

void DeltaWriter::Rebase() {
  base_version_ = fed_->catalog->version();
  base_row_ = next_row_;
}

std::optional<Row> DeltaWriter::InFlightRow(uint64_t version) const {
  const uint64_t k = version - base_version_;
  if (k % 2 == 0) return std::nullopt;
  return DeltaRow(*data_, base_row_ + (k - 1) / 2);
}

double DeltaWriter::WriteAmp() const {
  return amp_user_bytes_ == 0 ? 0
                              : static_cast<double>(amp_store_bytes_) /
                                    static_cast<double>(amp_user_bytes_);
}

double DeltaWriter::WalBytesPerCommit() const {
  return amp_commits_ == 0 ? 0
                           : static_cast<double>(amp_wal_bytes_) /
                                 static_cast<double>(amp_commits_);
}

HeadState CaptureHead(const dynview::Catalog& catalog,
                      const std::string& company) {
  HeadState head;
  head.version = catalog.version();
  head.base = DigestOf(catalog, "I", "stock");
  head.materialized = DigestOf(catalog, "s2", company);
  head.company = company;
  return head;
}

bool CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  if (!fs::create_directories(to, ec)) return false;
  for (const fs::directory_entry& e : fs::directory_iterator(from, ec)) {
    if (!e.is_regular_file()) continue;
    fs::copy_file(e.path(), fs::path(to) / e.path().filename(), ec);
    if (ec) return false;
  }
  return !ec;
}

bool RestartMatches(const std::string& dir, size_t num_threads,
                    const HeadState& want, uint64_t records, double* seconds,
                    std::string* error) {
  dynview::Catalog catalog;
  dynview::IntegrationOptions options;
  options.exec.num_threads = num_threads;
  dynview::IntegrationSystem system(&catalog, "I", options);
  Clock::time_point t0 = Clock::now();
  Status st = system.OpenDurable(dir);
  *seconds = SecondsSince(t0);
  if (!st.ok()) {
    *error = "OpenDurable: " + st.ToString();
    return false;
  }
  const dynview::RecoveryReport& report = system.recovery_report();
  HeadState got = CaptureHead(catalog, want.company);
  if (report.replayed_records != records) {
    *error = "replayed " + std::to_string(report.replayed_records) +
             " WAL records, want " + std::to_string(records);
  } else if (got.version != want.version) {
    *error = "recovered head version " + std::to_string(got.version) +
             ", want " + std::to_string(want.version);
  } else if (got.base != want.base || got.materialized != want.materialized) {
    *error = "recovered rows differ from the pre-restart head";
  } else {
    return true;
  }
  return false;
}

dynview::Result<HeadState> BuildCrashImage(DeltaWriter* writer,
                                           const std::string& image,
                                           int pairs) {
  DV_RETURN_IF_ERROR(writer->Checkpoint());
  writer->set_checkpoint_on_schedule(false);
  Status st;
  for (int i = 0; i < pairs && st.ok(); ++i) st = writer->Step();
  const Row last = DeltaRow(*writer->data_, writer->next_row_++);
  if (st.ok()) st = writer->Apply(true, last);
  writer->set_checkpoint_on_schedule(true);
  DV_RETURN_IF_ERROR(st);
  HeadState head = CaptureHead(*writer->fed_->catalog, last[0].as_string());
  if (!CopyDir(writer->dir_, image)) {
    return Status::Internal("cannot copy " + writer->dir_ + " to " + image);
  }
  DV_RETURN_IF_ERROR(writer->Apply(false, last));
  writer->Rebase();
  return head;
}

StorageBench::StorageBench(Federation* fed, const StockData* data,
                           std::string durable_dir, std::string scratch,
                           size_t num_threads, Federation* twin)
    : writer_(fed, data, std::move(durable_dir), twin),
      scratch_(std::move(scratch)),
      num_threads_(num_threads) {}

Status StorageBench::Prepare(int replay_pairs) {
  DV_RETURN_IF_ERROR(writer_.Init());
  records_ = 2 * static_cast<uint64_t>(replay_pairs) + 1;
  DV_ASSIGN_OR_RETURN(head_,
                      BuildCrashImage(&writer_, scratch_ + "/crash-image",
                                      replay_pairs));
  round_first_insert_ = writer_.insert_us().size();
  return Status::OK();
}

void StorageBench::EndRound() {
  const std::vector<double>& inserts = writer_.insert_us();
  if (inserts.size() > round_first_insert_) {
    commit_p50_us_.push_back(Median(std::vector<double>(
        inserts.begin() + static_cast<std::ptrdiff_t>(round_first_insert_),
        inserts.end())));
  }
  round_first_insert_ = inserts.size();
  const std::string copy = scratch_ + "/restart";
  ++attempted_;
  double seconds = 0;
  std::string error = "cannot copy the crash image";
  if (CopyDir(scratch_ + "/crash-image", copy) &&
      RestartMatches(copy, num_threads_, head_, records_, &seconds, &error)) {
    restart_s_.push_back(seconds);
  } else {
    ++failed_;
    if (errors_.size() < 3) errors_.push_back(error);
  }
  std::error_code ec;
  fs::remove_all(copy, ec);
}

dynview::Status PrepareStorage(const StockData& data, const FederationSpec& spec,
                               const std::string& dir, bool trace,
                               int replay_pairs,
                               std::optional<Federation>* durable,
                               std::optional<Federation>* delta_twin,
                               std::optional<StorageBench>* storage) {
  if (trace) {
    DV_ASSIGN_OR_RETURN(Federation twin, BuildFederation(data, spec));
    delta_twin->emplace(std::move(twin));
  }
  DV_ASSIGN_OR_RETURN(Federation fed, BuildFederation(data, spec));
  durable->emplace(std::move(fed));
  const std::string path = dir + "/durable";
  DV_RETURN_IF_ERROR((*durable)->system->OpenDurable(path));
  storage->emplace(&**durable, &data, path, dir, spec.num_threads,
                   delta_twin->has_value() ? &**delta_twin : nullptr);
  return (*storage)->Prepare(replay_pairs);
}

void ReportRun(const Options& opt, const RoundSeries& untraced,
               const RoundSeries& traced, const std::vector<double>& setup_s,
               const StorageBench& storage, const Tracer& tracer,
               RunResult* result) {
  const DeltaWriter& writer = storage.writer();
  const double recovery_s = QuietLow(storage.restart_s());
  if (opt.trace) {
    result->Set("schemasql.delta_us", Median(writer.delta_us()), "us");
    result->Set("storage.encode_us", Median(writer.encode_us()), "us");
    result->Set("storage.wal_bytes_per_commit", writer.WalBytesPerCommit(),
                "bytes");
    result->Set("storage.checkpoint_ms", Median(writer.checkpoint_us()) / 1e3,
                "ms");
    result->Set("storage.replay_records_per_s",
                recovery_s > 0
                    ? static_cast<double>(storage.records()) / recovery_s
                    : 0,
                "1/s");
    result->Set("trace.overhead_p50_ms",
                traced.QuietP50Ms() - untraced.QuietP50Ms(), "ms");
    if (!opt.trace_file.empty() && !tracer.WriteJsonLines(opt.trace_file)) {
      result->Note("cannot write " + opt.trace_file);
    }
  } else {
    untraced.Report(result);
    result->Set("setup_s", QuietLow(setup_s), "s");
    result->Set("peak_rss_mb", PeakRssMb(), "MB");
    result->Set("commit_p50_ms", QuietLow(storage.commit_p50_us()) / 1e3, "ms");
    result->Set("write_amp", writer.WriteAmp(), "ratio");
    result->Set("recovery_s", recovery_s, "s");
  }
  result->attempted += writer.commits() + storage.attempted();
  result->failed += storage.failed();
  result->Note("commits: " + std::to_string(writer.commits()) + " (" +
               std::to_string(writer.insert_us().size()) +
               " timed inserts); restarts: " +
               std::to_string(storage.restart_s().size()) + " replaying " +
               std::to_string(storage.records()) + " WAL records each");
  for (const std::string& e : storage.errors()) result->Note("restart: " + e);
}

}  // namespace perfbench
