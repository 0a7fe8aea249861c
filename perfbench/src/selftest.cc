// Negative tests of the benchmark's own checks: a planted fault must
// register as a failure, and the untouched original must pass the same
// check (so a check that rejects everything fails too).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "bench_util.h"
#include "federation.h"
#include "persist.h"
#include "workloads.h"

namespace perfbench {

namespace {

bool Expect(bool cond, const char* what) {
  std::fprintf(stderr, "selftest: %-58s %s\n", what, cond ? "ok" : "FAILED");
  return cond;
}

/// A copy of `t` with the last cell of row `row` replaced by `v`.
dynview::Table WithCell(const dynview::Table& t, size_t row, dynview::Value v) {
  dynview::Table out(t.schema());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    dynview::Row r = t.row(i);
    if (i == row) r.back() = v;
    out.AppendRowUnchecked(std::move(r));
  }
  return out;
}

/// Rewrites the WAL in `dir` without its last record. Records are framed as
/// u32 length, u32 CRC, payload (little-endian).
bool DropLastWalRecord(const std::string& dir) {
  const std::string path = dir + "/wal.log";
  std::ifstream in(path, std::ios::binary);
  std::string wal((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  size_t pos = 0, last = std::string::npos;
  while (pos + 8 <= wal.size()) {
    uint32_t len = 0;
    for (int b = 3; b >= 0; --b) {
      len = (len << 8) | static_cast<unsigned char>(wal[pos + b]);
    }
    if (pos + 8 + len > wal.size()) return false;
    last = pos;
    pos += 8 + len;
  }
  if (last == std::string::npos || pos != wal.size()) return false;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(wal.data(), static_cast<std::streamsize>(last));
  return static_cast<bool>(out);
}

int CorruptedAnswer(const Options& opt) {
  int failures = 0;
  const StockData data = GenerateStock(opt.seed, 5, 10);
  const std::string sql =
      "select C, P from I::stock T, T.company C, T.price P where P > " +
      std::to_string(PriceAtRank(data, 0.5));
  Reference ref(data);
  auto fed = BuildFederation(data, FederationSpec{2, false, 1});
  dynview::AnswerOptions multiset;
  multiset.multiset = true;
  auto answer = fed.ok() ? fed.value().system->AnswerGuarded(sql, multiset)
                         : dynview::Result<dynview::AnswerResult>(fed.status());
  auto direct = ref.Evaluate(sql);
  if (!Expect(answer.ok() && direct.ok() && answer.value().table.num_rows() > 1,
              "federation answers the probe query")) {
    return 1;
  }
  const Digest want = DigestTable(direct.value());
  const dynview::Table& got = answer.value().table;
  failures += !Expect(DigestTable(got) == want, "true answer matches the reference");
  const int64_t price = got.row(0).back().as_int();
  failures += !Expect(
      DigestTable(WithCell(got, 0, dynview::Value::Int(price + 1))) != want,
      "answer with one corrupted cell is a failure");
  dynview::Table short_table(got.schema());
  for (size_t i = 1; i < got.num_rows(); ++i) {
    short_table.AppendRowUnchecked(got.row(i));
  }
  failures += !Expect(DigestTable(short_table) != want,
                      "answer missing one row is a failure");
  return failures;
}

int DroppedCommit(const Options& opt) {
  int failures = 0;
  RunDir dir(opt);
  const StockData data = GenerateStock(opt.seed, 5, 10);
  auto built = BuildFederation(data, FederationSpec{0, true, 1});
  const std::string durable = dir.path() + "/durable";
  dynview::Status st =
      built.ok() ? built.value().system->OpenDurable(durable) : built.status();
  if (!Expect(st.ok(), "durable federation opens")) return 1;
  Federation fed = std::move(built).value();
  DeltaWriter writer(&fed, &data, durable, nullptr);
  st = writer.Init();
  const std::string image = dir.path() + "/image";
  auto head = st.ok() ? BuildCrashImage(&writer, image, 3)
                      : dynview::Result<HeadState>(st);
  if (!Expect(head.ok(), "crash image written")) return 1;
  const uint64_t records = 7;
  double seconds = 0;
  std::string error;
  const std::string intact = dir.path() + "/intact";
  failures += !Expect(CopyDir(image, intact) &&
                          RestartMatches(intact, 1, head.value(), records,
                                         &seconds, &error),
                      "restart from the intact WAL matches the head");
  const std::string dropped = dir.path() + "/dropped";
  const bool planted = CopyDir(image, dropped) && DropLastWalRecord(dropped);
  failures += !Expect(planted, "last WAL commit dropped");
  failures += !Expect(planted && !RestartMatches(dropped, 1, head.value(), records,
                                                 &seconds, &error),
                      "restart from a WAL missing a commit is a failure");
  std::fprintf(stderr, "selftest: (the check reported: %s)\n", error.c_str());
  return failures;
}

}  // namespace

int RunSelfTest(const Options& options) {
  return CorruptedAnswer(options) + DroppedCommit(options);
}

}  // namespace perfbench
