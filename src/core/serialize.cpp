#include "core/serialize.h"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/atomic_file.h"
#include "util/checksum.h"

namespace tipsy::core {
namespace {

// The last byte is the format version; a matching 7-byte prefix with any
// other version byte is a typed kVersionMismatch.
constexpr char kModelMagic[8] = {'T', 'I', 'P', 'S', 'Y', 'H', 'M', '2'};
constexpr char kBundleMagic[8] = {'T', 'I', 'P', 'S', 'Y', 'S', 'V', '2'};

// Hostile-length guards: a flipped bit in a count/size field must fail
// cleanly instead of driving a multi-GB allocation.
constexpr std::uint64_t kMaxModelPayloadBytes = 1ULL << 31;  // 2 GiB
constexpr std::uint32_t kMaxLinksPerTuple = 1 << 20;
// Minimum encoded sizes, used to bound counts against available bytes.
constexpr std::uint64_t kTupleHeaderBytes = 8 + 8 + 8 + 2;
constexpr std::uint64_t kRankedEntryBytes = 4 + 8;

template <typename T>
void Put(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Bounds-checked cursor over an in-memory artifact.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  template <typename T>
  [[nodiscard]] bool Get(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  [[nodiscard]] bool GetBytes(std::string_view& out, std::size_t size) {
    if (remaining() < size) return false;
    out = data_.substr(pos_, size);
    pos_ += size;
    return true;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

void SerializeModelBody(const HistoricalModel& model, std::ostream& out) {
  Put(out, static_cast<std::uint8_t>(model.feature_set()));
  Put(out, static_cast<std::uint8_t>(model.weight_by_bytes() ? 1 : 0));
  Put(out, static_cast<std::uint32_t>(model.max_links_per_tuple()));
  const auto table = model.ExportTable();
  Put(out, static_cast<std::uint64_t>(table.size()));
  for (const auto& tuple : table) {
    Put(out, tuple.key.hi);
    Put(out, tuple.key.lo);
    Put(out, tuple.total_bytes);
    Put(out, static_cast<std::uint16_t>(tuple.ranked.size()));
    for (const auto& [link, bytes] : tuple.ranked) {
      Put(out, link.value());
      Put(out, bytes);
    }
  }
}

// Parses a verified frame's payload. Every count is validated against the
// bytes actually available before any allocation sized from it.
util::StatusOr<HistoricalModel> ParseModelBody(ByteReader& reader) {
  std::uint8_t feature_set_raw = 0;
  std::uint8_t weighted = 0;
  std::uint32_t max_links = 0;
  std::uint64_t tuple_count = 0;
  if (!reader.Get(feature_set_raw) || !reader.Get(weighted) ||
      !reader.Get(max_links) || !reader.Get(tuple_count)) {
    return util::Status::Truncated("model header ends early");
  }
  if (feature_set_raw > 2) {
    return util::Status::Corrupt("unknown feature set id " +
                                 std::to_string(feature_set_raw));
  }
  if (max_links == 0 || max_links > kMaxLinksPerTuple) {
    return util::Status::Corrupt("implausible max_links_per_tuple " +
                                 std::to_string(max_links));
  }
  if (tuple_count > reader.remaining() / kTupleHeaderBytes) {
    return util::Status::Corrupt(
        "tuple count " + std::to_string(tuple_count) +
        " exceeds remaining payload (" + std::to_string(reader.remaining()) +
        " bytes)");
  }
  std::vector<HistoricalModel::TupleExport> table;
  table.reserve(tuple_count);
  for (std::uint64_t t = 0; t < tuple_count; ++t) {
    HistoricalModel::TupleExport tuple;
    std::uint16_t ranked_count = 0;
    if (!reader.Get(tuple.key.hi) || !reader.Get(tuple.key.lo) ||
        !reader.Get(tuple.total_bytes) || !reader.Get(ranked_count)) {
      return util::Status::Truncated("tuple " + std::to_string(t) +
                                     " ends early");
    }
    if (ranked_count > reader.remaining() / kRankedEntryBytes) {
      return util::Status::Corrupt(
          "ranked count " + std::to_string(ranked_count) + " of tuple " +
          std::to_string(t) + " exceeds remaining payload");
    }
    tuple.ranked.reserve(ranked_count);
    for (std::uint16_t r = 0; r < ranked_count; ++r) {
      std::uint32_t link = 0;
      double bytes = 0.0;
      if (!reader.Get(link) || !reader.Get(bytes)) {
        return util::Status::Truncated("ranked entries of tuple " +
                                       std::to_string(t) + " end early");
      }
      tuple.ranked.emplace_back(util::LinkId{link}, bytes);
    }
    table.push_back(std::move(tuple));
  }
  return HistoricalModel::FromExport(
      static_cast<FeatureSet>(feature_set_raw), max_links, weighted != 0,
      table);
}

// One model from the cursor: magic, then a length+CRC frame.
util::StatusOr<HistoricalModel> ReadModelFrame(ByteReader& reader) {
  char magic[8];
  if (!reader.Get(magic)) {
    return util::Status::Truncated("model magic ends early");
  }
  if (std::memcmp(magic, kModelMagic, sizeof(magic)) != 0) {
    if (std::memcmp(magic, kModelMagic, 7) == 0) {
      return util::Status::VersionMismatch(
          "unsupported model format version byte");
    }
    return util::Status::Corrupt("bad model magic");
  }
  std::uint64_t payload_size = 0;
  std::uint32_t crc = 0;
  if (!reader.Get(payload_size) || !reader.Get(crc)) {
    return util::Status::Truncated("model frame header ends early");
  }
  if (payload_size > kMaxModelPayloadBytes) {
    return util::Status::Corrupt("implausible model payload size " +
                                 std::to_string(payload_size));
  }
  std::string_view payload;
  if (!reader.GetBytes(payload, payload_size)) {
    return util::Status::Truncated(
        "model payload ends early (" + std::to_string(payload_size) +
        " declared, " + std::to_string(reader.remaining()) + " available)");
  }
  if (util::Crc32c::Of(payload) != crc) {
    return util::Status::Corrupt("model payload checksum mismatch");
  }
  ByteReader payload_reader(payload);
  auto model = ParseModelBody(payload_reader);
  if (model.ok() && payload_reader.remaining() != 0) {
    return util::Status::Corrupt(
        std::to_string(payload_reader.remaining()) +
        " trailing bytes in model payload");
  }
  return model;
}

std::string DrainStream(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

void SaveModel(const HistoricalModel& model, std::ostream& out) {
  std::ostringstream body;
  SerializeModelBody(model, body);
  const std::string payload = body.str();
  out.write(kModelMagic, sizeof(kModelMagic));
  Put(out, static_cast<std::uint64_t>(payload.size()));
  Put(out, util::Crc32c::Of(payload));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

util::StatusOr<HistoricalModel> LoadModel(std::istream& in) {
  const std::string bytes = DrainStream(in);
  ByteReader reader(bytes);
  return ReadModelFrame(reader);
}

void SaveService(const TipsyService& service, std::ostream& out) {
  out.write(kBundleMagic, sizeof(kBundleMagic));
  for (auto fs : {FeatureSet::kA, FeatureSet::kAP, FeatureSet::kAL}) {
    SaveModel(service.hist(fs), out);
  }
}

util::StatusOr<std::unique_ptr<TipsyService>> LoadService(
    std::istream& in, const wan::Wan* wan,
    const geo::MetroCatalogue* metros, TipsyConfig config) {
  const std::string bytes = DrainStream(in);
  ByteReader reader(bytes);
  char magic[8];
  if (!reader.Get(magic)) {
    return util::Status::Truncated("bundle magic ends early");
  }
  if (std::memcmp(magic, kBundleMagic, sizeof(magic)) != 0) {
    if (std::memcmp(magic, kBundleMagic, 7) == 0) {
      return util::Status::VersionMismatch(
          "unsupported bundle format version byte");
    }
    return util::Status::Corrupt("bad bundle magic");
  }
  // Each member model carries its own magic and checksummed frame.
  constexpr FeatureSet kExpected[3] = {FeatureSet::kA, FeatureSet::kAP,
                                       FeatureSet::kAL};
  constexpr const char* kSection[3] = {"A", "AP", "AL"};
  std::vector<HistoricalModel> models;
  for (int i = 0; i < 3; ++i) {
    auto model = ReadModelFrame(reader);
    if (!model.ok()) {
      return util::Status(model.status().code(),
                          std::string("bundle section ") + kSection[i] +
                              ": " + model.status().message());
    }
    if (model->feature_set() != kExpected[i]) {
      return util::Status::Corrupt(std::string("bundle section ") +
                                   kSection[i] +
                                   " holds the wrong feature set");
    }
    models.push_back(std::move(*model));
  }
  if (reader.remaining() != 0) {
    return util::Status::Corrupt(std::to_string(reader.remaining()) +
                                 " trailing bytes after bundle");
  }
  return TipsyService::FromTrainedModels(wan, metros, config,
                                         std::move(models[0]),
                                         std::move(models[1]),
                                         std::move(models[2]));
}

util::Status SaveServiceToFile(const TipsyService& service,
                               const std::string& path) {
  std::ostringstream buffer;
  SaveService(service, buffer);
  return util::WriteFileAtomic(path, buffer.str());
}

util::StatusOr<std::unique_ptr<TipsyService>> LoadServiceFromFile(
    const std::string& path, const wan::Wan* wan,
    const geo::MetroCatalogue* metros, TipsyConfig config) {
  auto bytes = util::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  std::istringstream in(*std::move(bytes));
  return LoadService(in, wan, metros, config);
}

}  // namespace tipsy::core
