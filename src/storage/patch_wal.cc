#include "storage/patch_wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/trace.h"
#include "core/binary_io.h"
#include "core/serialization.h"
#include "core/wire_frame.h"

namespace hdmap {

namespace {

// "WALR" little-endian.
constexpr uint32_t kRecordMagic = 0x524c4157u;
// magic + payload_len + crc + version_hint.
constexpr size_t kRecordHeaderSize = 20;

}  // namespace

PatchWal::PatchWal(Options options) : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    appends_ = options_.metrics->GetCounter("wal.appends");
    append_failures_ = options_.metrics->GetCounter("wal.append_failures");
    replay_skipped_ = options_.metrics->GetCounter("wal.replay_skipped");
    resets_ = options_.metrics->GetCounter("wal.resets");
    batches_ = options_.metrics->GetCounter("wal.fsync_batches");
    bytes_gauge_ = options_.metrics->GetGauge("wal.size_bytes");
    lat_append_ = options_.metrics->GetLatency("wal.append");
  }
}

PatchWal::~PatchWal() {
  if (fd_ >= 0) ::close(fd_);
}

Status PatchWal::EnsureOpen() {
  if (fd_ >= 0) return Status::Ok();
  if (options_.path.empty()) {
    return Status::FailedPrecondition("PatchWal has no path");
  }
  std::error_code ec;
  std::filesystem::path parent =
      std::filesystem::path(options_.path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  fd_ = ::open(options_.path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd_ < 0) {
    return Status::Internal("open " + options_.path + ": " +
                            std::strerror(errno));
  }
  return Status::Ok();
}

std::string PatchWal::EncodeRecord(const MapPatch& patch,
                                   uint64_t version_hint) const {
  std::string payload = SerializePatch(patch);  // Already framed.
  // The CRC covers version_hint || payload, split across buffers.
  BufferWriter hint_bytes;
  hint_bytes.WriteU64(version_hint);
  uint32_t crc = Crc32(hint_bytes.buffer());
  crc = Crc32(payload, crc);
  BufferWriter record;
  record.WriteU32(kRecordMagic);
  record.WriteU32(static_cast<uint32_t>(payload.size()));
  record.WriteU32(crc);
  record.WriteU64(version_hint);
  std::string bytes = record.Release();
  bytes.append(payload);

  std::string corrupted;
  if (options_.fault_injector != nullptr &&
      options_.fault_injector->MaybeCorrupt(kAppendFaultSite, bytes,
                                            &corrupted)) {
    // A corrupted record still acks: it models bytes mangled on their
    // way to disk, which replay must detect and skip.
    bytes = std::move(corrupted);
  }
  return bytes;
}

Status PatchWal::WriteBatch(const std::string& batch) {
  // Batch boundary to roll back to: a failed write (ENOSPC/EIO midway)
  // or fsync must not leave partial records for later successful
  // appends to land after — replay would lose its alignment at the torn
  // bytes and discard every record behind them.
  off_t batch_start = ::lseek(fd_, 0, SEEK_END);
  auto fail = [&](const char* op) {
    Status err = Status::Internal(std::string(op) + " " + options_.path +
                                  ": " + std::strerror(errno));
    if (batch_start >= 0) (void)::ftruncate(fd_, batch_start);
    return err;
  };
  size_t off = 0;
  while (off < batch.size()) {
    ssize_t n = ::write(fd_, batch.data() + off, batch.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("write");
    }
    off += static_cast<size_t>(n);
  }
  if (options_.fsync == FsyncMode::kAlways && ::fsync(fd_) != 0) {
    return fail("fsync");
  }
  return Status::Ok();
}

Status PatchWal::Append(const MapPatch& patch, uint64_t version_hint) {
  TraceSpan span("wal.append", lat_append_);
  Status result = [&]() -> Status {
    FaultInjector* faults = options_.fault_injector;
    if (faults != nullptr) {
      HDMAP_RETURN_IF_ERROR(faults->MaybeFail(kAppendFaultSite));
    }
    // Encoding (serialize + CRC) happens outside the commit lock: only
    // the memcpy onto the pending batch is serialized.
    std::string bytes = EncodeRecord(patch, version_hint);

    std::unique_lock<std::mutex> lock(commit_mu_);
    HDMAP_RETURN_IF_ERROR(EnsureOpen());  // Cheap after the first call.
    uint64_t ticket = next_ticket_++;
    pending_.append(bytes);
    // Group commit: whoever finds no flush running becomes the leader for
    // everything pending (their own record included); everyone else waits
    // for a leader to push completed_ticket_ past their ticket. One
    // write+fsync covers the whole batch.
    while (completed_ticket_ < ticket) {
      if (!flush_in_progress_) {
        flush_in_progress_ = true;
        std::string batch = std::move(pending_);
        pending_.clear();
        uint64_t batch_begin = taken_ticket_ + 1;
        uint64_t batch_end = next_ticket_ - 1;
        taken_ticket_ = batch_end;
        lock.unlock();
        Status flushed = WriteBatch(batch);
        lock.lock();
        completed_ticket_ = batch_end;
        if (!flushed.ok()) {
          // The whole batch was rolled back to its start boundary; every
          // record in it must fail its appender's ack.
          for (uint64_t t = batch_begin; t <= batch_end; ++t) {
            failed_.emplace(t, flushed);
          }
        } else {
          ++fsync_batches_;
          if (batches_ != nullptr) batches_->Increment();
        }
        flush_in_progress_ = false;
        commit_cv_.notify_all();
      } else {
        commit_cv_.wait(lock);
      }
    }
    auto it = failed_.find(ticket);
    if (it != failed_.end()) {
      Status err = it->second;
      failed_.erase(it);
      return err;
    }
    return Status::Ok();
  }();
  if (!result.ok()) {
    span.SetStatus(result.code());
    if (append_failures_ != nullptr) append_failures_->Increment();
    return result;
  }
  if (appends_ != nullptr) appends_->Increment();
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Set(static_cast<double>(SizeBytes()));
  }
  return Status::Ok();
}

uint64_t PatchWal::FsyncBatches() const {
  std::lock_guard<std::mutex> lock(commit_mu_);
  return fsync_batches_;
}

Result<PatchWal::ReplayResult> PatchWal::Replay() const {
  TraceSpan span("wal.replay");
  ReplayResult out;
  auto file = ReadFileRaw(options_.path);
  if (!file.ok()) {
    if (file.status().code() == StatusCode::kNotFound) return out;
    span.SetStatus(file.status().code());
    return file.status();
  }
  std::string buffer = std::move(file).value();
  if (options_.fault_injector != nullptr) {
    std::string corrupted;
    if (options_.fault_injector->MaybeCorrupt(kReplayFaultSite, buffer,
                                              &corrupted)) {
      buffer = std::move(corrupted);
    }
  }
  out.bytes_scanned = buffer.size();
  std::string_view data = buffer;
  size_t pos = 0;
  size_t skipped = 0;
  while (data.size() - pos >= kRecordHeaderSize) {
    BufferReader header(data.substr(pos, kRecordHeaderSize));
    uint32_t magic = header.ReadU32();
    uint32_t payload_len = header.ReadU32();
    uint32_t crc = header.ReadU32();
    uint64_t version_hint = header.ReadU64();
    if (magic != kRecordMagic) {
      // Unrecognizable bytes: a scribbled header gives no trustworthy
      // length to resync with, so the rest of the log is one torn tail.
      ++skipped;
      break;
    }
    if (payload_len > data.size() - pos - kRecordHeaderSize) {
      ++skipped;  // Torn tail: the append stopped mid-record.
      break;
    }
    // crc covers version_hint (8 bytes at header offset 12) + payload.
    std::string_view covered =
        data.substr(pos + 12, 8 + static_cast<size_t>(payload_len));
    if (Crc32(covered) != crc) {
      // Damaged but with a usable length: skip just this record.
      ++skipped;
      pos += kRecordHeaderSize + payload_len;
      continue;
    }
    std::string_view payload =
        data.substr(pos + kRecordHeaderSize, payload_len);
    auto patch = DeserializePatch(payload);
    if (!patch.ok()) {
      ++skipped;
      pos += kRecordHeaderSize + payload_len;
      continue;
    }
    out.records.push_back(
        ReplayedRecord{std::move(patch).value(), version_hint});
    pos += kRecordHeaderSize + payload_len;
  }
  if (pos < data.size() && data.size() - pos < kRecordHeaderSize) {
    ++skipped;  // Trailing fragment shorter than a header.
  }
  out.skipped_records = skipped;
  if (skipped > 0) span.SetStatus(StatusCode::kDataLoss);
  if (replay_skipped_ != nullptr) replay_skipped_->Increment(skipped);
  return out;
}

Status PatchWal::Rewrite(const std::vector<MapPatch>& patches,
                         uint64_t version_hint) {
  if (options_.path.empty()) {
    return Status::FailedPrecondition("PatchWal has no path");
  }
  FaultInjector* faults = options_.fault_injector;
  if (faults != nullptr) {
    HDMAP_RETURN_IF_ERROR(faults->MaybeFail(kAppendFaultSite));
  }
  std::string bytes;
  for (const MapPatch& patch : patches) {
    bytes.append(EncodeRecord(patch, version_hint));
  }

  // Temp-file + rename: the log flips from old content to new in one
  // atomic step, so a crash or failure anywhere below leaves the old
  // records untouched.
  std::error_code ec;
  std::filesystem::path parent =
      std::filesystem::path(options_.path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::string tmp = options_.path + ".tmp";
  Status written = WriteFileRaw(tmp, bytes, options_.fsync);
  if (!written.ok()) {
    std::filesystem::remove(tmp, ec);
    return written;
  }
  if (fd_ >= 0) {
    ::close(fd_);  // The next Append reopens the renamed-in file.
    fd_ = -1;
  }
  std::filesystem::rename(tmp, options_.path, ec);
  if (ec) {
    Status err =
        Status::Internal("rename " + tmp + ": " + ec.message());
    std::filesystem::remove(tmp, ec);
    return err;
  }
  if (!parent.empty()) {
    HDMAP_RETURN_IF_ERROR(FsyncDir(parent.string(), options_.fsync));
  }
  if (resets_ != nullptr) resets_->Increment();
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Set(static_cast<double>(bytes.size()));
  }
  return Status::Ok();
}

Status PatchWal::Archive() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  std::error_code ec;
  if (!std::filesystem::exists(options_.path, ec)) return Status::Ok();
  std::filesystem::rename(options_.path, options_.path + ".lost", ec);
  if (ec) {
    return Status::Internal("archive " + options_.path + ": " + ec.message());
  }
  std::filesystem::path parent =
      std::filesystem::path(options_.path).parent_path();
  if (!parent.empty()) {
    HDMAP_RETURN_IF_ERROR(FsyncDir(parent.string(), options_.fsync));
  }
  if (bytes_gauge_ != nullptr) bytes_gauge_->Set(0.0);
  return Status::Ok();
}

Status PatchWal::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  std::error_code ec;
  if (!std::filesystem::exists(options_.path, ec)) {
    if (bytes_gauge_ != nullptr) bytes_gauge_->Set(0.0);
    return Status::Ok();
  }
  // Truncate in place (an O_APPEND reopen continues at offset 0).
  int fd = ::open(options_.path.c_str(), O_WRONLY | O_TRUNC);
  if (fd < 0) {
    return Status::Internal("truncate " + options_.path + ": " +
                            std::strerror(errno));
  }
  if (options_.fsync == FsyncMode::kAlways && ::fsync(fd) != 0) {
    Status err = Status::Internal("fsync " + options_.path + ": " +
                                  std::strerror(errno));
    ::close(fd);
    return err;
  }
  ::close(fd);
  if (resets_ != nullptr) resets_->Increment();
  if (bytes_gauge_ != nullptr) bytes_gauge_->Set(0.0);
  return Status::Ok();
}

uint64_t PatchWal::SizeBytes() const {
  std::error_code ec;
  auto size = std::filesystem::file_size(options_.path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

}  // namespace hdmap
