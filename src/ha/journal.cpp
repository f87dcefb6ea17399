#include "ha/journal.h"

#include <fcntl.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "util/atomic_file.h"
#include "util/checksum.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define TIPSY_HA_HAVE_FSYNC 1
#endif

namespace tipsy::ha {
namespace {

constexpr char kJournalMagic[8] = {'T', 'I', 'P', 'S', 'Y', 'H', 'J', '1'};
constexpr char kManifestMagic[8] = {'T', 'I', 'P', 'S', 'Y', 'H', 'M', '1'};

std::string ErrnoMessage(const char* op, const std::string& path) {
  std::string msg(op);
  msg += " '";
  msg += path;
  msg += "': ";
  msg += std::strerror(errno);
  return msg;
}

util::Status SyncFile(std::FILE* file, const std::string& path) {
#ifdef TIPSY_HA_HAVE_FSYNC
  if (::fsync(::fileno(file)) != 0) {
    return util::Status::IoError(ErrnoMessage("fsync", path));
  }
#else
  (void)file;
  (void)path;
#endif
  return util::Status::Ok();
}

}  // namespace

std::string_view JournalMagic() {
  return std::string_view(kJournalMagic, sizeof(kJournalMagic));
}

std::string JournalManifestPath(std::string_view journal_path) {
  return std::string(journal_path) + ".manifest";
}

std::string EncodeJournalManifest(const JournalManifest& manifest) {
  std::ostringstream body;
  pipeline::PutVarint(body, manifest.base_seq);
  const std::string payload = body.str();
  const std::uint32_t crc = util::Crc32c::Of(payload);
  std::string out(kManifestMagic, sizeof(kManifestMagic));
  out += payload;
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((crc >> shift) & 0xffu));
  }
  return out;
}

util::StatusOr<JournalManifest> DecodeJournalManifest(
    std::string_view bytes) {
  if (bytes.size() < sizeof(kManifestMagic) + 1 + sizeof(std::uint32_t)) {
    return util::Status::Truncated("journal manifest shorter than its "
                                   "fixed layout");
  }
  if (std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) !=
      0) {
    if (std::memcmp(bytes.data(), kManifestMagic,
                    sizeof(kManifestMagic) - 1) == 0) {
      return util::Status::VersionMismatch(
          "unsupported journal manifest version byte");
    }
    return util::Status::Corrupt("bad journal manifest magic");
  }
  const std::string_view payload =
      bytes.substr(sizeof(kManifestMagic),
                   bytes.size() - sizeof(kManifestMagic) -
                       sizeof(std::uint32_t));
  const std::string_view crc_bytes = bytes.substr(bytes.size() - 4);
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(
                  static_cast<unsigned char>(crc_bytes[i]))
              << (8 * i);
  }
  if (util::Crc32c::Of(payload) != stored) {
    return util::Status::Corrupt("journal manifest checksum mismatch");
  }
  std::size_t pos = 0;
  const auto base = pipeline::GetVarint(payload, pos);
  if (!base || pos != payload.size()) {
    return util::Status::Corrupt("journal manifest payload is malformed");
  }
  JournalManifest manifest;
  manifest.base_seq = *base;
  return manifest;
}

std::string EncodeJournalRecord(const JournalRecord& record) {
  std::ostringstream payload;
  pipeline::PutVarint(payload, static_cast<std::uint64_t>(record.kind));
  pipeline::PutVarint(payload, record.seq);
  pipeline::EncodeRowsVerbatim(payload, record.rows);
  std::ostringstream frame;
  pipeline::WriteV2Frame(frame, record.hour, record.rows.size(),
                         payload.str());
  return frame.str();
}

namespace {

util::StatusOr<JournalRecord> DecodeJournalPayload(util::HourIndex hour,
                                                   std::uint64_t count,
                                                   std::string_view payload) {
  JournalRecord record;
  record.hour = hour;
  std::size_t pos = 0;
  const auto kind = pipeline::GetVarint(payload, pos);
  const auto seq = pipeline::GetVarint(payload, pos);
  if (!kind || !seq || *kind > 1) {
    return util::Status::Corrupt("journal record header is malformed");
  }
  record.kind = static_cast<JournalRecordKind>(*kind);
  record.seq = *seq;
  if (record.kind == JournalRecordKind::kHeartbeat && count != 0) {
    return util::Status::Corrupt("heartbeat record carries rows");
  }
  if (!pipeline::DecodeRowsVerbatim(payload, pos, count, record.rows) ||
      pos != payload.size()) {
    return util::Status::Corrupt("journal record " +
                                 std::to_string(record.seq) +
                                 " payload is malformed");
  }
  return record;
}

}  // namespace

util::StatusOr<JournalRecord> DecodeJournalFrame(
    const pipeline::V2Frame& frame) {
  return DecodeJournalPayload(frame.hour, frame.count, frame.payload);
}

util::StatusOr<JournalRecord> DecodeJournalFrame(
    const pipeline::V2FrameHeader& header, std::string_view payload) {
  return DecodeJournalPayload(header.hour, header.count, payload);
}

util::StatusOr<JournalRecovery> RecoverJournalBytes(std::string_view bytes) {
  JournalRecovery recovery;
  if (bytes.size() < sizeof(kJournalMagic)) {
    // A crash during the initial create: nothing durable was promised
    // yet, so the stub is torn and the journal restarts from scratch.
    recovery.torn_bytes = bytes.size();
    if (!bytes.empty()) {
      recovery.tail_status =
          util::Status::Truncated("journal shorter than its magic");
    }
    return recovery;
  }
  if (std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    if (std::memcmp(bytes.data(), kJournalMagic,
                    sizeof(kJournalMagic) - 1) == 0) {
      return util::Status::VersionMismatch(
          "unsupported journal format version byte");
    }
    return util::Status::Corrupt("bad journal magic");
  }
  recovery.verified_bytes = sizeof(kJournalMagic);
  std::istringstream in(std::string(bytes.substr(sizeof(kJournalMagic))));
  while (in.peek() != std::char_traits<char>::eof()) {
    auto frame = pipeline::ReadV2Frame(in);
    if (!frame.ok()) {
      recovery.tail_status = frame.status();
      break;
    }
    auto record = DecodeJournalFrame(*frame);
    if (!record.ok()) {
      recovery.tail_status = record.status();
      break;
    }
    if (recovery.records.empty()) {
      // The first record's seq is the file's compacted base; Open()
      // checks it against the manifest.
      recovery.base_seq = record->seq;
    } else if (record->seq !=
               recovery.base_seq + recovery.records.size()) {
      // Sequence numbers are contiguous from the base by construction; a
      // gap means records were lost or spliced — stop at the verified
      // prefix.
      recovery.tail_status = util::Status::Corrupt(
          "journal sequence gap: record " +
          std::to_string(recovery.base_seq + recovery.records.size()) +
          " carries seq " + std::to_string(record->seq));
      break;
    }
    recovery.records.push_back(*std::move(record));
    recovery.verified_bytes =
        sizeof(kJournalMagic) + static_cast<std::size_t>(in.tellg());
  }
  recovery.torn_bytes = bytes.size() - recovery.verified_bytes;
  return recovery;
}

std::uint64_t JournalProgress::WaitForAdvance(std::uint64_t seen,
                                              int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mu_);
  advanced_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return durable_next_seq_.load(std::memory_order_relaxed) != seen;
  });
  return durable_next_seq();
}

void JournalProgress::Publish(std::uint64_t durable_next_seq,
                              std::uint64_t base_seq) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    durable_next_seq_.store(durable_next_seq, std::memory_order_release);
    base_seq_.store(base_seq, std::memory_order_release);
  }
  advanced_.notify_all();
}

namespace {

// pread until `size` bytes landed or the file ended; returns the count.
util::StatusOr<std::size_t> ReadAt(int fd, char* data, std::size_t size,
                                   std::uint64_t offset,
                                   const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, data + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      return util::Status::IoError(ErrnoMessage("read", path));
    }
  }
  return done;
}

}  // namespace

JournalTailReader::~JournalTailReader() {
  if (fd_ >= 0) ::close(fd_);
}

util::Status JournalTailReader::Follow() {
  struct stat named {};
  if (::stat(path_.c_str(), &named) != 0) {
    return util::Status::IoError(ErrnoMessage("stat", path_));
  }
  if (fd_ >= 0 && static_cast<std::uint64_t>(named.st_dev) == dev_ &&
      static_cast<std::uint64_t>(named.st_ino) == ino_) {
    return util::Status::Ok();
  }
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return util::Status::IoError(ErrnoMessage("open", path_));
  // Identity comes from the descriptor, not the earlier stat: another
  // rename may have landed in between.
  struct stat opened {};
  if (::fstat(fd, &opened) != 0) {
    const util::Status status =
        util::Status::IoError(ErrnoMessage("fstat", path_));
    ::close(fd);
    return status;
  }
  char magic[sizeof(kJournalMagic)];
  auto got = ReadAt(fd, magic, sizeof(magic), 0, path_);
  if (!got.ok() || *got != sizeof(magic) ||
      std::memcmp(magic, kJournalMagic, sizeof(magic)) != 0) {
    ::close(fd);
    if (!got.ok()) return got.status();
    // Journal files are only ever created whole (magic included) by an
    // atomic write, so a short or foreign opening is damage.
    return util::Status::Corrupt("'" + path_ +
                                 "' does not open with the journal magic");
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  dev_ = static_cast<std::uint64_t>(opened.st_dev);
  ino_ = static_cast<std::uint64_t>(opened.st_ino);
  offset_ = sizeof(kJournalMagic);
  offset_seq_known_ = false;
  return util::Status::Ok();
}

util::StatusOr<std::uint64_t> JournalTailReader::ReadFrom(
    std::uint64_t cursor, std::string& out) {
  if (auto status = Follow(); !status.ok()) return status;
  if (offset_seq_known_ && offset_seq_ > cursor) {
    // Asked for a seq the walk already passed: walk again from the start.
    offset_ = sizeof(kJournalMagic);
    offset_seq_known_ = false;
  }
  struct stat now {};
  if (::fstat(fd_, &now) != 0) {
    return util::Status::IoError(ErrnoMessage("fstat", path_));
  }
  const auto size = static_cast<std::uint64_t>(now.st_size);
  std::uint64_t frames = 0;
  while (offset_ < size) {
    // The header plus the payload's leading varints (kind, seq).
    header_.resize(static_cast<std::size_t>(std::min<std::uint64_t>(
        pipeline::kMaxV2FrameHeaderBytes + 20, size - offset_)));
    auto got = ReadAt(fd_, header_.data(), header_.size(), offset_, path_);
    if (!got.ok()) return got.status();
    header_.resize(*got);
    auto header = pipeline::ParseV2FrameHeader(header_);
    if (!header.ok()) {
      if (header.status().code() == util::StatusCode::kTruncated) break;
      return header.status();
    }
    const std::uint64_t frame_bytes =
        header->header_bytes + header->payload_size;
    if (frame_bytes > size - offset_) break;  // an append still in flight
    std::size_t pos = header->header_bytes;
    const auto kind = pipeline::GetVarint(header_, pos);
    const auto seq = kind ? pipeline::GetVarint(header_, pos) : std::nullopt;
    if (!seq || pos > frame_bytes) {
      return util::Status::Corrupt("journal frame at byte " +
                                   std::to_string(offset_) +
                                   " has a malformed record header");
    }
    if (offset_seq_known_ && *seq != offset_seq_) {
      return util::Status::Corrupt(
          "journal sequence gap: expected seq " +
          std::to_string(offset_seq_) + ", got " + std::to_string(*seq));
    }
    if (*seq > cursor) {
      // The file's first record is past the cursor: compaction dropped it.
      return util::Status::NoData("journal no longer holds seq " +
                                  std::to_string(cursor) + " (starts at " +
                                  std::to_string(*seq) + ")");
    }
    if (*seq == cursor) {
      const std::size_t at = out.size();
      out.resize(at + static_cast<std::size_t>(frame_bytes));
      auto frame = ReadAt(fd_, out.data() + at,
                          static_cast<std::size_t>(frame_bytes), offset_,
                          path_);
      if (!frame.ok() || *frame != frame_bytes ||
          !pipeline::V2FramePayloadVerifies(
              *header, std::string_view(out).substr(
                           at + header->header_bytes,
                           static_cast<std::size_t>(header->payload_size)))) {
        out.resize(at);
        if (!frame.ok()) return frame.status();
        return util::Status::Corrupt("journal record " +
                                     std::to_string(*seq) +
                                     " failed its checksum");
      }
      ++cursor;
      ++frames;
    }
    // Frames below the cursor are stepped over by their headers alone.
    offset_ += frame_bytes;
    offset_seq_ = *seq + 1;
    offset_seq_known_ = true;
  }
  return frames;
}

util::StatusOr<Journal> Journal::Open(std::string path, bool fsync_appends) {
  Journal journal;
  journal.path_ = std::move(path);
  journal.fsync_appends_ = fsync_appends;

  // The manifest authenticates the compacted base. Missing is fine (base
  // 0, the pre-compaction layout); a damaged manifest is a typed error —
  // it is written atomically, so damage is bit rot, and guessing a base
  // would turn silent record loss into a "successful" open.
  bool has_manifest = false;
  JournalManifest manifest;
  if (auto manifest_bytes =
          util::ReadFileToString(JournalManifestPath(journal.path_));
      manifest_bytes.ok()) {
    auto decoded = DecodeJournalManifest(*manifest_bytes);
    if (!decoded.ok()) return decoded.status();
    manifest = *decoded;
    has_manifest = true;
  }

  auto bytes = util::ReadFileToString(journal.path_);
  if (bytes.ok()) {
    auto recovery = RecoverJournalBytes(*bytes);
    if (!recovery.ok()) return recovery.status();
    journal.recovered_ = *std::move(recovery);
  }
  // Missing file (first open) falls through with an empty recovery.

  auto& recovered = journal.recovered_;
  if (!has_manifest) {
    if (!recovered.records.empty() && recovered.base_seq != 0) {
      return util::Status::Corrupt(
          "journal begins at seq " + std::to_string(recovered.base_seq) +
          " but no compaction manifest authenticates the base");
    }
    recovered.base_seq = 0;
  } else if (recovered.records.empty()) {
    recovered.base_seq = manifest.base_seq;
  } else if (recovered.base_seq > manifest.base_seq) {
    return util::Status::Corrupt(
        "journal begins at seq " + std::to_string(recovered.base_seq) +
        " past the manifest base " + std::to_string(manifest.base_seq) +
        ": records were lost");
  } else if (recovered.base_seq < manifest.base_seq) {
    // Torn compaction: the manifest advanced but the crash landed before
    // the journal rewrite. Complete the truncation to the verified state
    // — everything below the manifest base is covered by the snapshot the
    // compaction followed.
    std::vector<JournalRecord> kept;
    for (auto& record : recovered.records) {
      if (record.seq >= manifest.base_seq) {
        kept.push_back(std::move(record));
      }
    }
    std::string rebuilt(kJournalMagic, sizeof(kJournalMagic));
    for (const auto& record : kept) {
      rebuilt += EncodeJournalRecord(record);
    }
    if (auto status = util::WriteFileAtomic(journal.path_, rebuilt);
        !status.ok()) {
      return status;
    }
    recovered.records = std::move(kept);
    recovered.base_seq = manifest.base_seq;
    recovered.verified_bytes = rebuilt.size();
    recovered.torn_bytes = 0;  // the rewrite dropped any torn tail too
    journal.compaction_resumed_ = true;
  }

  if (journal.recovered_.verified_bytes < sizeof(kJournalMagic)) {
    // New journal (or torn initial create): write the magic atomically so
    // a crash here leaves either nothing or a valid empty journal.
    if (auto status = util::WriteFileAtomic(
            journal.path_,
            std::string_view(kJournalMagic, sizeof(kJournalMagic)));
        !status.ok()) {
      return status;
    }
    journal.recovered_.verified_bytes = sizeof(kJournalMagic);
  } else if (journal.recovered_.torn_bytes > 0) {
    // Truncate the torn tail on disk so appends land on verified bytes.
#ifdef TIPSY_HA_HAVE_FSYNC
    if (::truncate(journal.path_.c_str(),
                   static_cast<off_t>(journal.recovered_.verified_bytes)) !=
        0) {
      return util::Status::IoError(
          ErrnoMessage("truncate torn tail of", journal.path_));
    }
#else
    auto intact = util::ReadFileToString(journal.path_);
    if (!intact.ok()) return intact.status();
    intact->resize(journal.recovered_.verified_bytes);
    if (auto status = util::WriteFileAtomic(journal.path_, *intact);
        !status.ok()) {
      return status;
    }
#endif
  }

  journal.file_ = std::fopen(journal.path_.c_str(), "ab");
  if (journal.file_ == nullptr) {
    return util::Status::IoError(
        ErrnoMessage("open-for-append", journal.path_));
  }
  journal.base_seq_ = journal.recovered_.base_seq;
  journal.next_seq_ = journal.recovered_.records.empty()
                          ? journal.recovered_.base_seq
                          : journal.recovered_.records.back().seq + 1;
  journal.progress_->Publish(journal.next_seq_, journal.base_seq_);
  return journal;
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)),
      fsync_appends_(other.fsync_appends_),
      file_(other.file_),
      recovered_(std::move(other.recovered_)),
      next_seq_(other.next_seq_),
      base_seq_(other.base_seq_),
      compaction_resumed_(other.compaction_resumed_),
      progress_(std::move(other.progress_)),
      appends_(other.appends_),
      append_bytes_(other.append_bytes_),
      compactions_(other.compactions_),
      compacted_records_(other.compacted_records_) {
  other.file_ = nullptr;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    path_ = std::move(other.path_);
    fsync_appends_ = other.fsync_appends_;
    file_ = other.file_;
    recovered_ = std::move(other.recovered_);
    next_seq_ = other.next_seq_;
    base_seq_ = other.base_seq_;
    compaction_resumed_ = other.compaction_resumed_;
    progress_ = std::move(other.progress_);
    appends_ = other.appends_;
    append_bytes_ = other.append_bytes_;
    compactions_ = other.compactions_;
    compacted_records_ = other.compacted_records_;
    other.file_ = nullptr;
  }
  return *this;
}

Journal::~Journal() {
  if (file_ != nullptr) std::fclose(file_);
}

util::StatusOr<std::uint64_t> Journal::Append(
    JournalRecordKind kind, util::HourIndex hour,
    std::span<const pipeline::AggRow> rows) {
  return AppendImpl(kind, hour, rows, /*sync=*/true);
}

util::StatusOr<std::uint64_t> Journal::AppendBuffered(
    JournalRecordKind kind, util::HourIndex hour,
    std::span<const pipeline::AggRow> rows) {
  return AppendImpl(kind, hour, rows, /*sync=*/false);
}

util::StatusOr<std::uint64_t> Journal::AppendImpl(
    JournalRecordKind kind, util::HourIndex hour,
    std::span<const pipeline::AggRow> rows, bool sync) {
  if (file_ == nullptr) {
    return util::Status::InvalidArgument("journal is not open");
  }
  JournalRecord record;
  record.seq = next_seq_;
  record.kind = kind;
  record.hour = hour;
  record.rows.assign(rows.begin(), rows.end());
  const std::string frame = EncodeJournalRecord(record);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0) {
    return util::Status::IoError(ErrnoMessage("append to", path_));
  }
  if (sync && fsync_appends_) {
    if (auto status = SyncFile(file_, path_); !status.ok()) return status;
  }
  appends_.Increment();
  append_bytes_.Increment(frame.size());
  const std::uint64_t seq = next_seq_++;
  if (sync) progress_->Publish(next_seq_, base_seq_);
  return seq;
}

util::Status Journal::Sync() {
  if (file_ == nullptr) {
    return util::Status::InvalidArgument("journal is not open");
  }
  if (fsync_appends_) {
    if (auto status = SyncFile(file_, path_); !status.ok()) return status;
  }
  progress_->Publish(next_seq_, base_seq_);
  return util::Status::Ok();
}

util::Status Journal::Compact(std::uint64_t through_seq) {
  if (file_ == nullptr) {
    return util::Status::InvalidArgument("journal is not open");
  }
  const std::uint64_t new_base = std::max(through_seq, base_seq_);
  if (new_base == base_seq_) return util::Status::Ok();

  // Re-read the file: recovered_ only holds the open-time prefix, not the
  // records appended since.
  auto bytes = util::ReadFileToString(path_);
  if (!bytes.ok()) return bytes.status();
  auto recovery = RecoverJournalBytes(*bytes);
  if (!recovery.ok()) return recovery.status();
  if (!recovery->tail_status.ok()) {
    // Every appended record was flushed; a damaged tail here means the
    // file changed under us. Refuse rather than compact unverified bytes.
    return recovery->tail_status;
  }

  std::string rebuilt(kJournalMagic, sizeof(kJournalMagic));
  std::uint64_t dropped = 0;
  for (const auto& record : recovery->records) {
    if (record.seq >= new_base) {
      rebuilt += EncodeJournalRecord(record);
    } else {
      ++dropped;
    }
  }

  // Manifest first: a crash after this point leaves the manifest ahead of
  // the file, which Open() reconciles by completing the truncation.
  if (auto status = util::WriteFileAtomic(
          JournalManifestPath(path_),
          EncodeJournalManifest({.base_seq = new_base}));
      !status.ok()) {
    return status;
  }

  // The rename swaps the inode out from under the append handle, so close
  // it across the rewrite.
  std::fclose(file_);
  file_ = nullptr;
  if (auto status = util::WriteFileAtomic(path_, rebuilt); !status.ok()) {
    // On-disk this is the torn-compaction state the next Open() repairs;
    // try to restore the append handle so the caller can keep journaling.
    file_ = std::fopen(path_.c_str(), "ab");
    return status;
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return util::Status::IoError(ErrnoMessage("reopen-for-append", path_));
  }

  base_seq_ = new_base;
  next_seq_ = std::max(next_seq_, new_base);
  progress_->Publish(next_seq_, base_seq_);
  compactions_.Increment();
  compacted_records_.Increment(dropped);
  return util::Status::Ok();
}

}  // namespace tipsy::ha
