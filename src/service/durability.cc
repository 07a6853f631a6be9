#include "service/durability.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace setdisc {

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

namespace {

struct Crc32Table {
  uint32_t t[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  static const Crc32Table table;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (char ch : data) {
    c = table.t[(c ^ static_cast<uint8_t>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void AppendRecord(std::string* out, std::string_view payload) {
  ByteWriter w(out);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutU32(Crc32(payload));
  w.PutBytes(payload);
}

RecordScan ScanRecords(std::string_view data,
                       const std::function<void(std::string_view)>& fn,
                       size_t max_payload) {
  RecordScan scan;
  size_t pos = 0;
  while (data.size() - pos >= 8) {
    ByteReader r(data.substr(pos, 8));
    uint32_t len = 0, crc = 0;
    r.GetU32(&len);
    r.GetU32(&crc);
    if (len > max_payload || data.size() - pos - 8 < len) break;
    std::string_view payload = data.substr(pos + 8, len);
    if (Crc32(payload) != crc) break;
    fn(payload);
    pos += 8 + len;
    ++scan.records;
    scan.valid_bytes = pos;
  }
  scan.torn_tail = pos < data.size();
  return scan;
}

// ---------------------------------------------------------------------------
// POSIX StoreFs
// ---------------------------------------------------------------------------

namespace {

class PosixWritableFile final : public WritableFile {
 public:
  explicit PosixWritableFile(int fd) : fd_(fd) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    size_t done = 0;
    while (done < data.size()) {
      ssize_t n = ::write(fd_, data.data() + done, data.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("append: ") + std::strerror(errno));
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::IoError(std::string("fsync: ") + std::strerror(errno));
    }
    return Status::OK();
  }

 private:
  int fd_;
};

class PosixStoreFs final : public StoreFs {
 public:
  Result<std::string> ReadFile(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Status::IoError(ErrnoMessage("open", path));
    std::string out;
    char buf[1 << 16];
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        Status s = Status::IoError(ErrnoMessage("read", path));
        ::close(fd);
        return s;
      }
      if (n == 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
    return out;
  }

  Result<std::unique_ptr<WritableFile>> OpenAppendable(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                    0644);
    if (fd < 0) return Status::IoError(ErrnoMessage("open", path));
    return std::unique_ptr<WritableFile>(new PosixWritableFile(fd));
  }

  Status WriteFileAtomic(const std::string& path, std::string_view data,
                         bool sync) override {
    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) return Status::IoError(ErrnoMessage("open", tmp));
    {
      PosixWritableFile file(fd);  // owns fd; closes on scope exit
      Status s = file.Append(data);
      if (s.ok() && sync) s = file.Sync();
      if (!s.ok()) {
        ::unlink(tmp.c_str());
        return s;
      }
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      Status s = Status::IoError(ErrnoMessage("rename", tmp));
      ::unlink(tmp.c_str());
      return s;
    }
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IoError(ErrnoMessage("unlink", path));
    }
    return Status::OK();
  }

  Status Truncate(const std::string& path) override {
    if (::truncate(path.c_str(), 0) != 0 && errno != ENOENT) {
      return Status::IoError(ErrnoMessage("truncate", path));
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status CreateDir(const std::string& path) override {
    // mkdir -p semantics: a spill dir handed to --spill-dir (or a bench
    // scratch dir) may name a path whose parents don't exist yet.
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) {
      return Status::IoError("mkdir " + path + ": " + ec.message());
    }
    return Status::OK();
  }
};

}  // namespace

StoreFs* StoreFs::Real() {
  static PosixStoreFs* fs = new PosixStoreFs();
  return fs;
}

// ---------------------------------------------------------------------------
// FaultFs
// ---------------------------------------------------------------------------

class FaultFs::FaultyFile final : public WritableFile {
 public:
  FaultyFile(FaultFs* owner, std::unique_ptr<WritableFile> base)
      : owner_(owner), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    const uint64_t ordinal =
        owner_->appends_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (owner_->crash_hook_ != nullptr && !owner_->crash_hook_(ordinal)) {
      return Status::IoError("fault injection: crash point");
    }
    // Byte budget: write the part that "fits the disk", then fail — the
    // torn-record shape a real ENOSPC leaves behind.
    int64_t budget = owner_->append_budget_.load(std::memory_order_relaxed);
    if (budget >= 0) {
      const int64_t take =
          std::min<int64_t>(budget, static_cast<int64_t>(data.size()));
      owner_->append_budget_.store(budget - take, std::memory_order_relaxed);
      if (static_cast<size_t>(take) < data.size()) {
        if (take > 0) {
          Status s = base_->Append(data.substr(0, static_cast<size_t>(take)));
          if (!s.ok()) return s;
          owner_->appended_bytes_.fetch_add(static_cast<uint64_t>(take),
                                            std::memory_order_relaxed);
        }
        return Status::IoError("fault injection: no space left");
      }
    }
    Status s = base_->Append(data);
    if (s.ok()) {
      owner_->appended_bytes_.fetch_add(data.size(),
                                        std::memory_order_relaxed);
    }
    return s;
  }

  Status Sync() override {
    owner_->syncs_.fetch_add(1, std::memory_order_relaxed);
    if (owner_->fail_sync_.load(std::memory_order_relaxed)) {
      return Status::IoError("fault injection: fsync failed");
    }
    return base_->Sync();
  }

 private:
  FaultFs* owner_;
  std::unique_ptr<WritableFile> base_;
};

Result<std::string> FaultFs::ReadFile(const std::string& path) {
  if (fail_read_.load(std::memory_order_relaxed)) {
    return Status::IoError("fault injection: read failed");
  }
  return base_->ReadFile(path);
}

Result<std::unique_ptr<WritableFile>> FaultFs::OpenAppendable(
    const std::string& path) {
  Result<std::unique_ptr<WritableFile>> base = base_->OpenAppendable(path);
  if (!base.ok()) return base;
  return std::unique_ptr<WritableFile>(
      new FaultyFile(this, std::move(base.value())));
}

Status FaultFs::WriteFileAtomic(const std::string& path, std::string_view data,
                                bool sync) {
  if (fail_atomic_write_.load(std::memory_order_relaxed)) {
    return Status::IoError("fault injection: atomic write failed");
  }
  return base_->WriteFileAtomic(path, data, sync);
}

Status FaultFs::Remove(const std::string& path) { return base_->Remove(path); }

Status FaultFs::Truncate(const std::string& path) {
  return base_->Truncate(path);
}

bool FaultFs::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultFs::CreateDir(const std::string& path) {
  return base_->CreateDir(path);
}

}  // namespace setdisc
