#pragma once

/// \file durability.h
/// Foundations of the durability tier: a tiny injectable filesystem seam
/// (StoreFs), its fault-injecting test double (FaultFs), and the CRC-framed
/// record format the SessionStore builds its write-ahead log and checkpoint
/// files from.
///
/// Why a seam at all: the store's correctness claims are about what survives
/// *partial* I/O — a write() cut short by ENOSPC, an fsync that fails, a
/// process killed between two appends. Real filesystems produce those states
/// rarely and non-deterministically; FaultFs produces them on demand (short
/// writes at an exact byte budget, failing syncs, failing renames), so
/// tests/session_store_test.cc can walk every torn-tail shape instead of
/// hoping to hit one.
///
/// Record framing. Both store files are sequences of
///
///   offset 0  uint32  payload length in bytes
///   offset 4  uint32  CRC-32 (IEEE, reflected) of the payload
///   offset 8  payload[length]
///
/// all little-endian, matching the net/protocol.h conventions. A reader
/// accepts the longest prefix of intact records and stops at the first
/// truncated or CRC-failing one — a torn tail is the expected shape of a
/// crash mid-append, not corruption worth refusing the whole file over.
///
/// ByteWriter / ByteReader restate the PayloadWriter / PayloadReader
/// little-endian encoding conventions from net/protocol.h. They are
/// deliberately a separate pair: protocol.h includes the service layer
/// (SessionView), so the service layer including it back would be a cycle.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace setdisc {

// ---------------------------------------------------------------------------
// Little-endian encoding primitives (net/protocol.h conventions)
// ---------------------------------------------------------------------------

/// Appends little-endian primitives to a byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) {
    PutU8(static_cast<uint8_t>(v));
    PutU8(static_cast<uint8_t>(v >> 8));
  }
  void PutU32(uint32_t v) {
    PutU16(static_cast<uint16_t>(v));
    PutU16(static_cast<uint16_t>(v >> 16));
  }
  void PutU64(uint64_t v) {
    PutU32(static_cast<uint32_t>(v));
    PutU32(static_cast<uint32_t>(v >> 32));
  }
  void PutBytes(std::string_view bytes) { out_->append(bytes); }
  /// u16 length prefix + bytes (lengths past 64 KiB are a caller bug).
  void PutString(std::string_view s) {
    PutU16(static_cast<uint16_t>(s.size()));
    PutBytes(s);
  }

 private:
  std::string* out_;
};

/// Bounds-checked little-endian reads; any out-of-bounds read trips ok()
/// permanently, so decoding truncated input is safe and branch-light.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (!Ensure(1)) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU16(uint16_t* v) {
    uint8_t lo, hi;
    if (!GetU8(&lo) || !GetU8(&hi)) return false;
    *v = static_cast<uint16_t>(lo | (uint16_t{hi} << 8));
    return true;
  }
  bool GetU32(uint32_t* v) {
    uint16_t lo, hi;
    if (!GetU16(&lo) || !GetU16(&hi)) return false;
    *v = lo | (uint32_t{hi} << 16);
    return true;
  }
  bool GetU64(uint64_t* v) {
    uint32_t lo, hi;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *v = lo | (uint64_t{hi} << 32);
    return true;
  }
  bool GetBytes(size_t n, std::string_view* out) {
    if (!Ensure(n)) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  bool GetString(std::string* out) {
    uint16_t len = 0;
    std::string_view bytes;
    if (!GetU16(&len) || !GetBytes(len, &bytes)) return false;
    out->assign(bytes);
    return true;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool Exhausted() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Ensure(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// CRC-framed records
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial, reflected), the classic table-driven form.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

/// Frames `payload` as one record ([u32 len][u32 crc][payload]) onto `out`.
void AppendRecord(std::string* out, std::string_view payload);

/// Outcome of scanning a record file (see ScanRecords).
struct RecordScan {
  size_t records = 0;      ///< intact records delivered to the callback
  size_t valid_bytes = 0;  ///< bytes of the intact prefix
  bool torn_tail = false;  ///< bytes remained after the last intact record
};

/// Walks the intact record prefix of `data`, invoking `fn` per payload, and
/// stops at the first truncated or CRC-failing record. A record whose length
/// field exceeds `max_payload` also stops the scan (a garbage length must
/// not drive a huge substr).
RecordScan ScanRecords(std::string_view data,
                       const std::function<void(std::string_view)>& fn,
                       size_t max_payload = size_t{1} << 26);

// ---------------------------------------------------------------------------
// Filesystem seam
// ---------------------------------------------------------------------------

/// An open append-only file (the write-ahead log holds one across appends so
/// group-committed batches don't pay an open/close per flush).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  virtual Status Sync() = 0;
};

/// The few filesystem operations the durability tier needs, virtual so tests
/// inject faults. Implementations must be safe for concurrent use from
/// multiple threads on distinct files; the store serializes per-file access
/// itself.
class StoreFs {
 public:
  virtual ~StoreFs() = default;

  /// Reads a whole file; IoError when it cannot be opened.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;

  /// Opens (creating if needed) a file for appending.
  virtual Result<std::unique_ptr<WritableFile>> OpenAppendable(
      const std::string& path) = 0;

  /// Writes `data` to `path` atomically: a temp file in the same directory,
  /// optionally fsynced, then rename(2)d over the target — readers see the
  /// old bytes or the new bytes, never a mix.
  virtual Status WriteFileAtomic(const std::string& path, std::string_view data,
                                 bool sync) = 0;

  virtual Status Remove(const std::string& path) = 0;
  virtual Status Truncate(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status CreateDir(const std::string& path) = 0;

  /// The process-wide POSIX implementation. Never null, never freed.
  static StoreFs* Real();
};

/// Fault-injecting StoreFs decorator. All knobs are atomics so a test can
/// flip them while the store runs on another thread; byte budgets are shared
/// across every file opened through this instance.
class FaultFs : public StoreFs {
 public:
  explicit FaultFs(StoreFs* base = nullptr)
      : base_(base != nullptr ? base : StoreFs::Real()) {}

  /// After `n` more appended bytes (across all files), appends write only
  /// what remains of the budget — a genuinely torn record — and then fail
  /// like ENOSPC. Negative disables (the default).
  void FailAppendsAfterBytes(int64_t n) {
    append_budget_.store(n, std::memory_order_relaxed);
  }

  /// Every Sync() fails while set.
  void set_fail_sync(bool fail) {
    fail_sync_.store(fail, std::memory_order_relaxed);
  }

  /// Every WriteFileAtomic() fails (before the rename) while set.
  void set_fail_atomic_write(bool fail) {
    fail_atomic_write_.store(fail, std::memory_order_relaxed);
  }

  /// Every ReadFile() fails while set.
  void set_fail_read(bool fail) {
    fail_read_.store(fail, std::memory_order_relaxed);
  }

  /// Crash-point hook: invoked before every append with the running append
  /// ordinal (1-based); returning false makes the append fail having written
  /// nothing — "the process died here". nullptr disables.
  void set_crash_hook(std::function<bool(uint64_t)> hook) {
    crash_hook_ = std::move(hook);
  }

  uint64_t appends() const { return appends_.load(std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  uint64_t appended_bytes() const {
    return appended_bytes_.load(std::memory_order_relaxed);
  }

  Result<std::string> ReadFile(const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenAppendable(
      const std::string& path) override;
  Status WriteFileAtomic(const std::string& path, std::string_view data,
                         bool sync) override;
  Status Remove(const std::string& path) override;
  Status Truncate(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status CreateDir(const std::string& path) override;

 private:
  class FaultyFile;

  StoreFs* base_;
  std::atomic<int64_t> append_budget_{-1};
  std::atomic<bool> fail_sync_{false};
  std::atomic<bool> fail_atomic_write_{false};
  std::atomic<bool> fail_read_{false};
  std::function<bool(uint64_t)> crash_hook_;
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> appended_bytes_{0};
};

}  // namespace setdisc
