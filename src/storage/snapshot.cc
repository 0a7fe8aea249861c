#include "storage/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "storage/codec.h"

namespace dynview {

namespace {

constexpr char kMagic[4] = {'D', 'V', 'S', 'N'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint8_t kSectionDatabase = 1;
constexpr uint8_t kSectionExtra = 2;

std::string Errno(const std::string& op, const std::string& path) {
  return op + " " + path + ": " + std::strerror(errno);
}

void AppendSection(const std::string& payload, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(payload.size()));
  w->U32(Crc32(payload.data(), payload.size()));
  w->Raw(payload.data(), payload.size());
}

Status FsyncDirOf(const std::string& path) {
  std::string dir = ".";
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::Internal(Errno("open dir", dir));
  Status st = Status::OK();
  if (::fsync(fd) != 0) st = Status::Internal(Errno("fsync dir", dir));
  ::close(fd);
  return st;
}

}  // namespace

SnapshotData CaptureSnapshot(const CatalogSnapshot& snap) {
  SnapshotData data;
  data.catalog_version = snap.version();
  for (const std::string& name : snap.DatabaseNames()) {
    data.databases.push_back(RecoveredDatabase{
        name, snap.DatabaseVersion(name), *snap.GetDatabase(name).value()});
  }
  return data;
}

std::string SnapshotFileName(uint64_t version) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "snapshot-%020llu.dvsnap",
                static_cast<unsigned long long>(version));
  return buf;
}

void EncodeSnapshotImage(const SnapshotData& data, std::string* out) {
  ByteWriter w;
  w.Raw(kMagic, sizeof(kMagic));
  w.U32(kFormatVersion);
  w.U64(data.catalog_version);
  w.U32(static_cast<uint32_t>(data.databases.size() + data.extras.size()));
  w.U32(Crc32(w.buffer().data(), w.size()));
  for (const RecoveredDatabase& rd : data.databases) {
    ByteWriter section;
    section.U8(kSectionDatabase);
    section.U64(rd.version);
    EncodeDatabasePayload(rd.db, &section);
    AppendSection(section.buffer(), &w);
  }
  for (const auto& [kind, payload] : data.extras) {
    ByteWriter section;
    section.U8(kSectionExtra);
    section.Str(kind);
    section.Str(payload);
    AppendSection(section.buffer(), &w);
  }
  *out = w.Take();
}

Status WriteSnapshotFile(const SnapshotData& data, const std::string& path) {
  for (const RecoveredDatabase& rd : data.databases) {
    for (const std::string& rel : rd.db.TableNames()) {
      DV_RETURN_IF_ERROR(
          CheckStorable(*rd.db.GetTable(rel).value(), rd.name + "::" + rel));
    }
  }
  std::string image;
  EncodeSnapshotImage(data, &image);

  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::Internal(Errno("open", tmp));
  size_t off = 0;
  while (off < image.size()) {
    ssize_t n = ::write(fd, image.data() + off, image.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::Internal(Errno("write", tmp));
      ::close(fd);
      return st;
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status st = Status::Internal(Errno("fsync", tmp));
    ::close(fd);
    return st;
  }
  ::close(fd);

  // Crash window under test: the tmp image is durable but not yet visible.
  // An injected failure here leaves only `<path>.tmp`, which recovery
  // ignores — exactly a kill between checkpoint write and rename.
  DV_RETURN_IF_ERROR(FailPoints::Check("snapshot.write", path));

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal(Errno("rename", tmp + " -> " + path));
  }
  return FsyncDirOf(path);
}

Result<SnapshotData> ReadSnapshotFile(const std::string& path) {
  DV_RETURN_IF_ERROR(FailPoints::Check("snapshot.load", path));

  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(Errno("open", path));
    return Status::Internal(Errno("open", path));
  }
  std::string image;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::Internal(Errno("read", path));
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    image.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t header_len = 4 + 4 + 8 + 4;
  if (image.size() < header_len + 4 ||
      std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("snapshot " + path +
                              ": missing or malformed DVSN header");
  }
  ByteReader header(image.data() + 4, header_len);
  uint32_t format = 0;
  uint32_t section_count = 0;
  SnapshotData data;
  DV_RETURN_IF_ERROR(header.U32(&format));
  DV_RETURN_IF_ERROR(header.U64(&data.catalog_version));
  DV_RETURN_IF_ERROR(header.U32(&section_count));
  if (format != kFormatVersion) {
    return Status::ParseError("snapshot " + path + ": format version " +
                              std::to_string(format) + " not supported");
  }
  ByteReader crc_reader(image.data() + header_len, 4);
  uint32_t header_crc = 0;
  DV_RETURN_IF_ERROR(crc_reader.U32(&header_crc));
  if (header_crc != Crc32(image.data(), header_len)) {
    return Status::ParseError("snapshot " + path + ": header CRC mismatch");
  }
  size_t pos = header_len + 4;
  for (uint32_t i = 0; i < section_count; ++i) {
    ByteReader frame(image.data() + pos, image.size() - pos);
    uint32_t len = 0;
    uint32_t crc = 0;
    DV_RETURN_IF_ERROR(frame.U32(&len));
    DV_RETURN_IF_ERROR(frame.U32(&crc));
    if (frame.remaining() < len) {
      return Status::ParseError("snapshot " + path + ": section " +
                                std::to_string(i) + " truncated");
    }
    const char* payload = image.data() + pos + 8;
    if (crc != Crc32(payload, static_cast<size_t>(len))) {
      return Status::ParseError("snapshot " + path + ": section " +
                                std::to_string(i) + " CRC mismatch");
    }
    ByteReader section(payload, len);
    uint8_t type = 0;
    DV_RETURN_IF_ERROR(section.U8(&type));
    if (type == kSectionDatabase) {
      RecoveredDatabase rd;
      DV_RETURN_IF_ERROR(section.U64(&rd.version));
      DV_ASSIGN_OR_RETURN(rd.db, DecodeDatabasePayload(&section));
      rd.name = rd.db.name();
      data.databases.push_back(std::move(rd));
    } else if (type == kSectionExtra) {
      std::string kind;
      std::string payload_str;
      DV_RETURN_IF_ERROR(section.Str(&kind));
      DV_RETURN_IF_ERROR(section.Str(&payload_str));
      data.extras.emplace_back(std::move(kind), std::move(payload_str));
    } else {
      return Status::ParseError("snapshot " + path +
                                ": unknown section type " +
                                std::to_string(type));
    }
    pos += 8 + len;
  }
  return data;
}

std::vector<std::pair<uint64_t, std::string>> ListSnapshotFiles(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  const std::string prefix = "snapshot-";
  const std::string suffix = ".dvsnap";
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.emplace_back(std::strtoull(digits.c_str(), nullptr, 10), name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

}  // namespace dynview
