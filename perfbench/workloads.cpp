// The three workloads: cms_point, cms_bulk and ingest_day.
//
// Every workload runs the same deployment (Fleet) and reports the same
// end-to-end metrics; they differ in which traffic dominates:
//  * cms_point  — closed loop, 2 predict connections, 1-flow predicts with
//    one excluded link (a 1-candidate what-if every 32nd request). Fixed
//    per-RPC cost dominates.
//  * cms_bulk   — closed loop, 1 connection alternating a 256-flow predict
//    with a 64-candidate what-if sweep over one hour of rows. Payload work
//    dominates.
//  * ingest_day — a collector sends 21 days lock-step (21 day boundaries,
//    window trim at day 14) while a standby ships and an open-loop reader
//    alternates 16-flow predicts and 8-candidate what-ifs.
// The cms workloads measure the ingest metrics on their warm-up feed (3
// days, lock-step, standby attached); ingest_day measures the predict and
// what-if metrics on its open-loop reader, timed from each request's
// scheduled send time.
#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <random>
#include <set>

#include "perfbench.h"
#include "util/checksum.h"

namespace perfbench {
namespace {

constexpr int kWarmupHours = 3 * util::kHoursPerDay + 1;
constexpr int kIngestHours = 21 * util::kHoursPerDay + 1;
constexpr int kSetupRepeats = 5;
// The ingest_day reader: requests per second, and connections it may
// have in flight. The rate stays below what the daemon sustains while
// ingest holds the replica lock, so the backlog does not grow.
constexpr double kReaderRatePerS = 100.0;
constexpr std::size_t kReaderConnections = 8;

using Prediction = core::TipsyService::ShiftPrediction;
using Reports = std::vector<cms::WhatIfReport>;

bool SamePrediction(const Prediction& a, const Prediction& b) {
  if (a.unpredicted_bytes != b.unpredicted_bytes ||
      a.shifted.size() != b.shifted.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.shifted.size(); ++i) {
    if (a.shifted[i].first != b.shifted[i].first ||
        a.shifted[i].second != b.shifted[i].second) {
      return false;
    }
  }
  return true;
}

bool SameReports(const Reports& a, const Reports& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.candidate_index != y.candidate_index || x.link != y.link ||
        x.matched_bytes != y.matched_bytes ||
        x.moved_bytes != y.moved_bytes ||
        x.unpredicted_bytes != y.unpredicted_bytes || x.safe != y.safe ||
        x.spills.size() != y.spills.size()) {
      return false;
    }
    for (std::size_t s = 0; s < x.spills.size(); ++s) {
      if (x.spills[s].link != y.spills[s].link ||
          x.spills[s].bytes != y.spills[s].bytes ||
          x.spills[s].projected_utilization !=
              y.spills[s].projected_utilization ||
          x.spills[s].over_headroom != y.spills[s].over_headroom) {
        return false;
      }
    }
  }
  return true;
}

std::vector<double> LinkLoads(const World& world,
                              std::span<const pipeline::AggRow> rows) {
  std::vector<double> loads(world.wan().link_count(), 0.0);
  for (const auto& row : rows) {
    loads[row.link.value()] += static_cast<double>(row.bytes);
  }
  return loads;
}

// Links with traffic, busiest first (ties by id).
std::vector<util::LinkId> BusiestLinks(const std::vector<double>& loads) {
  std::vector<util::LinkId> links;
  for (std::uint32_t i = 0; i < loads.size(); ++i) {
    if (loads[i] > 0.0) links.push_back(util::LinkId{i});
  }
  std::stable_sort(links.begin(), links.end(),
                   [&](util::LinkId a, util::LinkId b) {
                     return loads[a.value()] > loads[b.value()];
                   });
  return links;
}

// A what-if over one hour of rows: drains plus per-prefix withdrawals on
// the busiest links, in load order, up to `max_candidates`.
net::WhatIfRequest MakeWhatIf(const World& world,
                              const std::vector<pipeline::AggRow>& rows,
                              std::size_t max_candidates) {
  net::WhatIfRequest request;
  request.rows = rows;
  request.link_loads = LinkLoads(world, rows);
  for (const auto link : BusiestLinks(request.link_loads)) {
    if (request.candidates.size() >= max_candidates) break;
    request.candidates.push_back({link, {}});
    std::vector<util::PrefixId> prefixes;
    for (const auto& row : rows) {
      if (row.link == link &&
          std::find(prefixes.begin(), prefixes.end(), row.dest_prefix) ==
              prefixes.end()) {
        prefixes.push_back(row.dest_prefix);
      }
    }
    for (const auto prefix : prefixes) {
      if (request.candidates.size() >= max_candidates) break;
      request.candidates.push_back({link, {prefix}});
    }
  }
  return request;
}

// The exclusion mask exactly as the daemon builds it from a request.
core::ExclusionMask MaskOf(const net::PredictRequest& request) {
  core::ExclusionMask mask;
  if (!request.excluded.empty()) {
    mask.resize(request.excluded.back().value() + 1, false);
    for (const auto link : request.excluded) {
      if (link.value() < mask.size()) mask[link.value()] = true;
    }
  }
  return mask;
}

Prediction ReferencePredict(const core::TipsyService* service,
                            const net::PredictRequest& request) {
  if (service == nullptr) {
    Prediction none;
    for (const auto& flow : request.flows) {
      none.unpredicted_bytes += flow.bytes;
    }
    return none;
  }
  return service->PredictShift(request.flows, MaskOf(request));
}

Reports ReferenceSweep(const World& world, const core::TipsyService* service,
                       const net::WhatIfRequest& request) {
  if (service == nullptr) return {};
  cms::WhatIfOptions options;
  if (request.prediction_k > 0) options.prediction_k = request.prediction_k;
  if (request.safety_headroom > 0.0) {
    options.safety_headroom = request.safety_headroom;
  }
  return cms::WhatIfSimulator(&world.wan(), service, options)
      .Sweep(request.rows, request.link_loads, request.candidates);
}

struct Pools {
  std::vector<net::PredictRequest> predicts;
  std::vector<net::WhatIfRequest> whatifs;
  // Fixed-model expectations (cms workloads); empty for ingest_day.
  std::vector<Prediction> predict_expected;
  std::vector<Reports> whatif_expected;
};

enum class OpKind : std::uint8_t { kPredict, kWhatIf };
struct Op {
  OpKind kind = OpKind::kPredict;
  std::size_t index = 0;
};

// One completed request, kept for deferred verification and replay.
struct OpRecord {
  Op op;
  std::uint64_t due_ns = 0;   // scheduled send time (open loop)
  std::uint64_t send_ns = 0;
  std::uint64_t done_ns = 0;
  bool ok = false;
  core::ModelHealth health = core::ModelHealth::kNone;
  Prediction prediction;
  Reports reports;
};

struct Sampled {
  Op op;
  SpanRecord span;
};

// One successful request, for the phase summary.
struct OpStat {
  std::uint64_t done_ns = 0;
  std::uint64_t latency_ns = 0;
  OpKind kind = OpKind::kPredict;
  std::uint32_t candidates = 0;
};

// Client-side tallies of one timed phase.
struct Tally {
  std::vector<OpStat> ops;  // successful requests
  PhaseCount predict;
  PhaseCount whatif;
  std::uint64_t reconnects = 0;
  std::vector<Sampled> sampled;
  double elapsed_s = 0.0;  // timed wall time
  void Merge(const Tally& other) {
    elapsed_s += other.elapsed_s;
    ops.insert(ops.end(), other.ops.begin(), other.ops.end());
    for (auto [into, from] : {std::pair{&predict, &other.predict},
                              std::pair{&whatif, &other.whatif}}) {
      into->sent += from->sent;
      into->ok += from->ok;
      into->failed += from->failed;
    }
    reconnects += other.reconnects;
    sampled.insert(sampled.end(), other.sampled.begin(),
                   other.sampled.end());
  }
};

// Sends one request and records its outcome (latency measured from
// `due_ns` by the caller).
void Execute(net::PredictClient& client, const Pools& pools, const Op& op,
             OpRecord& record) {
  record.op = op;
  record.send_ns = obs::NowNanos();
  if (op.kind == OpKind::kPredict) {
    auto response = client.Predict(pools.predicts[op.index]);
    record.done_ns = obs::NowNanos();
    record.ok = response.ok();
    if (response.ok()) {
      record.health = response->health;
      record.prediction = std::move(response->prediction);
    }
  } else {
    auto response = client.WhatIf(pools.whatifs[op.index]);
    record.done_ns = obs::NowNanos();
    record.ok = response.ok();
    if (response.ok()) {
      record.health = response->health;
      record.reports = std::move(response->reports);
    }
  }
}

// Counts the request into the tally: latency, status, and — when
// `checked` — verdict against the fixed expectation.
void Count(const Pools& pools, const OpRecord& record, bool checked,
           Tally& tally) {
  PhaseCount& count =
      record.op.kind == OpKind::kPredict ? tally.predict : tally.whatif;
  ++count.sent;
  bool good = record.ok;
  if (good && checked) {
    good = record.health == core::ModelHealth::kFresh &&
           (record.op.kind == OpKind::kPredict
                ? SamePrediction(record.prediction,
                                 pools.predict_expected[record.op.index])
                : SameReports(record.reports,
                              pools.whatif_expected[record.op.index]));
  }
  good ? ++count.ok : ++count.failed;
  if (!record.ok) return;
  tally.ops.push_back(
      {record.done_ns, record.done_ns - record.due_ns, record.op.kind,
       record.op.kind == OpKind::kWhatIf
           ? static_cast<std::uint32_t>(
                 pools.whatifs[record.op.index].candidates.size())
           : 0u});
}

// Request metrics of a timed phase, pooled over its segments (a
// set-up's or a cycle's share). The p99s are reported, not gated: on a
// shared host they did not repeat between runs of the same code.
struct RequestMetrics {
  double predict_p50_us = 0.0;
  double predict_p99_us = 0.0;
  double predict_rps = 0.0;
  double whatif_p50_ms = 0.0;
  double whatif_p99_ms = 0.0;
  double whatif_candidates_per_s = 0.0;  // per sweep, median over sweeps
  std::size_t predicts = 0;
  std::size_t whatifs = 0;
};

RequestMetrics Summarize(const std::vector<OpStat>& ops, double timed_s) {
  Sample predict_us;
  Sample whatif_ms;
  Sample candidates_per_s;
  for (const auto& op : ops) {
    const auto ns = static_cast<double>(op.latency_ns);
    if (op.kind == OpKind::kPredict) {
      predict_us.Add(ns / 1e3);
    } else {
      whatif_ms.Add(ns / 1e6);
      candidates_per_s.Add(static_cast<double>(op.candidates) / (ns / 1e9));
    }
  }
  RequestMetrics out;
  out.predicts = predict_us.n();
  out.whatifs = whatif_ms.n();
  out.predict_p50_us = predict_us.P(0.5);
  out.predict_p99_us = predict_us.P(0.99);
  out.predict_rps = static_cast<double>(predict_us.n()) / timed_s;
  out.whatif_p50_ms = whatif_ms.P(0.5);
  out.whatif_p99_ms = whatif_ms.P(0.99);
  out.whatif_candidates_per_s = candidates_per_s.P(0.5);
  return out;
}

SpanRecord RpcSpan(SpanLog* log, const OpRecord& record) {
  SpanRecord span;
  span.name = record.op.kind == OpKind::kPredict ? "rpc.predict"
                                                 : "rpc.whatif";
  span.start_ns = record.send_ns;
  span.end_ns = record.done_ns;
  span.id = log->NextId();
  span.request_id = span.id;
  return span;
}

// Closed loop: each connection sends its next request when the previous
// one completes, for `duration`. Every response is checked.
// Traced, every RPC gets a span and every `sample_every`-th request of
// each kind (predict, what-if) on a connection is kept for replay.
Tally RunClosedLoop(Fleet& fleet, const Pools& pools, int connections,
                    const std::function<Op(int, std::uint64_t)>& schedule,
                    std::chrono::milliseconds duration, SpanLog* log,
                    std::array<std::uint64_t, 2> sample_every) {
  std::vector<Tally> tallies(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      net::PredictClient client(fleet.PredictConfig());
      Tally& tally = tallies[static_cast<std::size_t>(c)];
      std::vector<SpanRecord> spans;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto deadline = start + duration;
      OpRecord record;
      std::array<std::uint64_t, 2> seen{0, 0};
      for (std::uint64_t k = 0; Clock::now() < deadline; ++k) {
        Execute(client, pools, schedule(c, k), record);
        record.due_ns = record.send_ns;
        Count(pools, record, /*checked=*/true, tally);
        if (log != nullptr) {
          const SpanRecord span = RpcSpan(log, record);
          spans.push_back(span);
          const auto kind = static_cast<std::size_t>(record.op.kind);
          if (seen[kind]++ % sample_every[kind] == 0) {
            tally.sampled.push_back({record.op, span});
          }
        }
      }
      tally.reconnects = client.reconnects();
      if (log != nullptr) log->AddAll(spans);
    });
  }
  while (ready.load() < connections) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  Tally total;
  for (const auto& tally : tallies) total.Merge(tally);
  total.elapsed_s = MsBetween(start, Clock::now()) / 1e3;
  return total;
}

// ------------------------------------------------------- traced replay

// Keeps the replayed CRC computations from being optimized away.
volatile std::uint32_t g_checksum_sink = 0;

// Per-layer observations gathered by the replays.
struct Layers {
  std::map<std::string, Sample> samples;  // by span name, nanoseconds
  Sample rpc_us;                          // sampled predict RPCs
  Sample allocs;                          // wire allocations per RPC
  Sample request_bytes;
  Sample response_bytes;
  Sample row_visits;
  std::uint64_t unique_tuples = 0;
  std::uint64_t flows = 0;
  Sample journal_bytes;
  Sample snapshot_bytes;
  void Add(const char* name, std::uint64_t ns) {
    samples[name].Add(static_cast<double>(ns));
  }
};

// Replays one sampled request through the public functions the daemon
// and client call, in their order, as child spans of the RPC span.
void ReplayRpc(const World& world, Fleet& fleet, const Pools& pools,
               const Sampled& sampled, SpanLog* log, Layers& layers,
               RunResult& result) {
  const bool predict = sampled.op.kind == OpKind::kPredict;
  const SpanRecord& rpc = sampled.span;
  std::uint64_t allocs = 0;

  AllocCountBegin();
  LayerTimer encode_request(log, rpc, "net.wire.encode_request");
  const std::string envelope =
      predict ? net::EncodeMessage(
                    net::MessageType::kPredictRequest,
                    net::EncodePredictRequest(pools.predicts[sampled.op.index]))
              : net::EncodeMessage(
                    net::MessageType::kWhatIfRequest,
                    net::EncodeWhatIfRequest(pools.whatifs[sampled.op.index]));
  allocs += AllocCountEnd();
  const std::uint64_t encode_request_ns = encode_request.Stop();

  LayerTimer crc(log, rpc, "util.crc32c");
  g_checksum_sink = util::Crc32c::Of(envelope);
  const std::uint64_t crc_ns = crc.Stop();

  AllocCountBegin();
  LayerTimer decode_request(log, rpc, "net.wire.decode_request");
  std::size_t pos = 0;
  auto message = net::DecodeMessage(envelope, pos);
  std::optional<net::PredictRequest> predict_request;
  std::optional<net::WhatIfRequest> whatif_request;
  if (message.ok()) {
    if (predict) {
      auto decoded = net::DecodePredictRequest(message->payload);
      if (decoded.ok()) predict_request = *std::move(decoded);
    } else {
      auto decoded = net::DecodeWhatIfRequest(message->payload);
      if (decoded.ok()) whatif_request = *std::move(decoded);
    }
  }
  allocs += AllocCountEnd();
  const std::uint64_t decode_request_ns = decode_request.Stop();
  if (!predict_request.has_value() && !whatif_request.has_value()) {
    result.Fail("replayed request did not decode");
    return;
  }

  LayerTimer acquire(log, rpc, "core.epoch.acquire");
  const auto service = fleet.daemon().epoch().Acquire();
  const std::uint64_t acquire_ns = acquire.Stop();

  std::string reply;
  std::uint64_t work_ns = 0;
  std::uint64_t encode_response_ns = 0;
  if (predict) {
    LayerTimer shift(log, rpc, "core.predict_shift");
    net::PredictResponse response;
    response.prediction = ReferencePredict(service.get(), *predict_request);
    work_ns = shift.Stop();
    response.health = core::ModelHealth::kFresh;
    AllocCountBegin();
    LayerTimer encode_response(log, rpc, "net.wire.encode_response");
    reply = net::EncodeMessage(net::MessageType::kPredictResponse,
                               net::EncodePredictResponse(response));
    allocs += AllocCountEnd();
    encode_response_ns = encode_response.Stop();
  } else {
    LayerTimer sweep(log, rpc, "cms.whatif.sweep");
    net::WhatIfResponse response;
    response.reports = ReferenceSweep(world, service.get(), *whatif_request);
    work_ns = sweep.Stop();
    AllocCountBegin();
    LayerTimer encode_response(log, rpc, "net.wire.encode_response");
    reply = net::EncodeMessage(net::MessageType::kWhatIfResponse,
                               net::EncodeWhatIfResponse(response));
    allocs += AllocCountEnd();
    encode_response_ns = encode_response.Stop();
  }

  AllocCountBegin();
  LayerTimer decode_response(log, rpc, "net.wire.decode_response");
  std::size_t reply_pos = 0;
  auto reply_message = net::DecodeMessage(reply, reply_pos);
  bool decoded_reply = false;
  if (reply_message.ok()) {
    decoded_reply =
        predict ? net::DecodePredictResponse(reply_message->payload).ok()
                : net::DecodeWhatIfResponse(reply_message->payload).ok();
  }
  allocs += AllocCountEnd();
  const std::uint64_t decode_response_ns = decode_response.Stop();
  if (!decoded_reply) result.Fail("replayed response did not decode");

  if (predict) {
    layers.Add("net.wire.encode_request", encode_request_ns);
    layers.Add("util.crc32c", crc_ns);
    layers.Add("net.wire.decode_request", decode_request_ns);
    layers.Add("core.epoch.acquire", acquire_ns);
    layers.Add("core.predict_shift", work_ns);
    layers.Add("net.wire.encode_response", encode_response_ns);
    layers.Add("net.wire.decode_response", decode_response_ns);
    layers.rpc_us.Add(static_cast<double>(rpc.end_ns - rpc.start_ns) / 1e3);
    layers.allocs.Add(static_cast<double>(allocs));
    layers.request_bytes.Add(static_cast<double>(envelope.size()));
    layers.response_bytes.Add(static_cast<double>(reply.size()));
    std::set<std::pair<std::uint64_t, std::uint64_t>> tuples;
    for (const auto& flow : predict_request->flows) {
      const auto key = core::MakeTupleKey(core::FeatureSet::kAL, flow.flow);
      tuples.insert({key.hi, key.lo});
    }
    layers.unique_tuples += tuples.size();
    layers.flows += predict_request->flows.size();
  } else {
    layers.Add("cms.whatif.sweep", work_ns);
    layers.row_visits.Add(static_cast<double>(
        whatif_request->rows.size() * whatif_request->candidates.size()));
  }
}

// Replays the hours of one feed on throwaway twins of the ingest layers, as
// child spans of each hour's SendHour span: the wire decode and CRC of the
// journal frame, a journal append with fsync, the replica's batched ingest
// (day-boundary snapshot and compaction split out as their own spans), the
// retrainer alone, and the standby's replay.
void ReplayIngest(const World& world, const std::string& dir,
                  const FeedStats& feed, int hours, std::uint32_t want_digest,
                  SpanLog* log, Layers& layers, RunResult& result) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  std::filesystem::create_directories(dir, error);
  auto journal = ha::Journal::Open(dir + "/layer.journal", true);
  auto primary_config = DaemonReplicaConfig(dir, "twin_primary");
  primary_config.snapshot_on_day_boundary = false;
  primary_config.compact_after_snapshot = false;
  auto primary = OpenReplica(world, primary_config);
  auto standby = OpenReplica(world, DaemonReplicaConfig(dir, "twin_standby"));
  if (!journal.ok() || !primary.ok() || !standby.ok()) {
    result.Fail("cannot open the ingest replay twins in " + dir);
    return;
  }
  core::DailyRetrainer retrainer(&world.wan(), &world.metros(), kWindowDays);

  for (int hour = 0; hour < hours; ++hour) {
    const auto& rows = world.hours[static_cast<std::size_t>(hour)];
    const auto index = static_cast<std::size_t>(hour);
    SpanRecord rpc;
    rpc.name = "rpc.send_hour";
    rpc.start_ns = Nanos(feed.sent_at[index]);
    rpc.end_ns = Nanos(feed.acked_at[index]);
    rpc.id = log->NextId();
    rpc.request_id = rpc.id;
    log->Add(rpc);

    ha::JournalRecord record;
    record.seq = static_cast<std::uint64_t>(hour);
    record.hour = hour;
    record.rows = rows;
    const std::string frame = ha::EncodeJournalRecord(record);
    layers.journal_bytes.Add(static_cast<double>(frame.size()));

    LayerTimer decode(log, rpc, "net.wire.journal_decode");
    net::JournalStreamDecoder decoder(record.seq, /*expect_magic=*/false);
    std::vector<ha::JournalRecord> decoded;
    const auto fed = decoder.Feed(frame, decoded);
    layers.Add("net.wire.journal_decode", decode.Stop());
    if (!fed.ok() || decoded.size() != 1) {
      result.Fail("journal frame of hour " + std::to_string(hour) +
                  " did not decode");
      return;
    }

    LayerTimer crc(log, rpc, "util.crc32c_journal");
    g_checksum_sink = util::Crc32c::Of(frame);
    layers.Add("util.crc32c_journal", crc.Stop());

    LayerTimer append(log, rpc, "ha.journal.append_fsync");
    const auto appended =
        journal->Append(ha::JournalRecordKind::kIngest, hour, rows);
    layers.Add("ha.journal.append_fsync", append.Stop());

    LayerTimer ingest(log, rpc, "ha.replica.ingest_batch");
    const auto ingested = primary->IngestBatch(decoded);
    layers.Add("ha.replica.ingest_batch", ingest.Stop());
    if (!appended.ok() || !ingested.ok()) {
      result.Fail("ingest replay failed at hour " + std::to_string(hour));
      return;
    }

    const bool boundary = hour > 0 && hour % util::kHoursPerDay == 0;
    if (boundary) {
      LayerTimer snapshot(log, rpc, "ha.replica.snapshot");
      const auto saved = primary->SnapshotNow();
      layers.Add("ha.replica.snapshot", snapshot.Stop());
      LayerTimer compact(log, rpc, "ha.journal.compact");
      const auto compacted = primary->CompactThroughSnapshot();
      layers.Add("ha.journal.compact", compact.Stop());
      if (!saved.ok() || !compacted.ok()) {
        result.Fail("snapshot replay failed at hour " + std::to_string(hour));
        return;
      }
      layers.snapshot_bytes.Add(static_cast<double>(
          std::filesystem::file_size(primary_config.snapshot_path, error)));
    }

    const char* retrain_span =
        boundary ? "core.retrainer.boundary" : "core.retrainer.hour";
    LayerTimer retrain(log, rpc, retrain_span);
    retrainer.Ingest(hour, rows);
    layers.Add(retrain_span, retrain.Stop());

    LayerTimer replay(log, rpc, "ha.replica.replay");
    const auto replayed = standby->Replay(decoded);
    layers.Add("ha.replica.replay", replay.Stop());
    if (!replayed.ok()) {
      result.Fail("standby replay failed at hour " + std::to_string(hour));
      return;
    }
  }
  if (ha::ReplicaStateDigest(*primary) != want_digest ||
      ha::ReplicaStateDigest(*standby) != want_digest) {
    result.Fail("ingest replay twins diverged from the daemon's replica");
  }
}

// Nanoseconds per ModelEpoch::Acquire with `threads` concurrent readers
// (median over rounds of the per-thread mean).
double AcquireNs(const core::ModelEpoch& epoch, int threads) {
  constexpr int kIters = 200000;
  Sample rounds;
  for (int round = 0; round < 5; ++round) {
    std::vector<double> per_thread(static_cast<std::size_t>(threads));
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        std::uint64_t live = 0;
        const std::uint64_t t0 = obs::NowNanos();
        for (int i = 0; i < kIters; ++i) live += epoch.Acquire() != nullptr;
        const std::uint64_t t1 = obs::NowNanos();
        per_thread[static_cast<std::size_t>(t)] =
            live == kIters ? static_cast<double>(t1 - t0) / kIters : 0.0;
      });
    }
    while (ready.load() < threads) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto& thread : pool) thread.join();
    double sum = 0.0;
    for (const double ns : per_thread) sum += ns;
    rounds.Add(sum / threads);
  }
  return rounds.P(0.5);
}

// ------------------------------------------------------ metric assembly

void Put(MetricMap& map, const std::string& name, double value,
         const std::string& unit, std::size_t samples) {
  map[name] = Metric{value, unit, samples};
}

// Ingest metrics pooled over several feeds (set-ups or cycles).
struct FeedMetrics {
  Sample hour_ack_ms;
  Sample boundary_ack_ms;
  Sample ship_lag_ms;
  double rows = 0.0;
  double feed_s = 0.0;  // summed SendHour wall time
  std::size_t feeds = 0;
  std::size_t hours = 0;
  std::uint64_t failed = 0;
  void Add(const FeedStats& feed) {
    hour_ack_ms.Append(feed.hour_ack_ms);
    boundary_ack_ms.Append(feed.boundary_ack_ms);
    ship_lag_ms.Append(feed.ship_lag_ms);
    for (std::size_t i = 0; i < feed.hour_ms.size(); ++i) {
      rows += feed.hour_rows[i];
      feed_s += feed.hour_ms[i] / 1e3;
    }
    ++feeds;
    hours += feed.hour_ms.size();
    failed += feed.failed;
  }
};

void PutEndToEnd(RunResult& result, const Sample& setup_s,
                 const RequestMetrics& requests, const FeedMetrics& feed) {
  auto& m = result.end_to_end;
  Put(m, "setup_s", setup_s.P(0.5), "s", setup_s.n());
  Put(m, "predict_p50_us", requests.predict_p50_us, "us", requests.predicts);
  Put(m, "predict_rps", requests.predict_rps, "1/s", requests.predicts);
  Put(m, "whatif_p50_ms", requests.whatif_p50_ms, "ms", requests.whatifs);
  Put(m, "whatif_candidates_per_s", requests.whatif_candidates_per_s, "1/s",
      requests.whatifs);
  Put(m, "ingest_rows_per_s", feed.rows / feed.feed_s, "1/s", feed.hours);
  Put(m, "hour_ack_p50_ms", feed.hour_ack_ms.P(0.5), "ms",
      feed.hour_ack_ms.n());
  Put(m, "boundary_ack_p50_ms", feed.boundary_ack_ms.P(0.5), "ms",
      feed.boundary_ack_ms.n());
  Put(m, "ship_lag_p50_ms", feed.ship_lag_ms.P(0.5), "ms",
      feed.ship_lag_ms.n());
  result.notes.push_back("ingest metrics pooled over " +
                         std::to_string(feed.feeds) + " feeds");
  result.notes.push_back(
      "ungated predict_p99_us " + std::to_string(requests.predict_p99_us) +
      " (n=" + std::to_string(requests.predicts) + ") whatif_p99_ms " +
      std::to_string(requests.whatif_p99_ms) +
      " (n=" + std::to_string(requests.whatifs) + ")");
}

void PutLayers(RunResult& result, const Layers& layers, Fleet& fleet,
               int clients, std::uint64_t hours_fed,
               std::uint64_t reconnects) {
  auto& m = result.per_layer;
  auto p50 = [&](const char* span, double scale) {
    const auto it = layers.samples.find(span);
    if (it == layers.samples.end()) return std::pair<double, std::size_t>{};
    return std::pair{it->second.P(0.5) / scale, it->second.n()};
  };
  struct Timed {
    const char* metric;
    const char* span;
    double scale;
    const char* unit;
  };
  const Timed timed[] = {
      {"net.wire.encode_request_us", "net.wire.encode_request", 1e3, "us"},
      {"net.wire.decode_request_us", "net.wire.decode_request", 1e3, "us"},
      {"net.wire.encode_response_us", "net.wire.encode_response", 1e3, "us"},
      {"net.wire.decode_response_us", "net.wire.decode_response", 1e3, "us"},
      {"net.wire.journal_decode_us", "net.wire.journal_decode", 1e3, "us"},
      {"util.crc32c_us", "util.crc32c", 1e3, "us"},
      {"util.crc32c_journal_us", "util.crc32c_journal", 1e3, "us"},
      {"core.predict_shift_us", "core.predict_shift", 1e3, "us"},
      {"cms.whatif.sweep_ms", "cms.whatif.sweep", 1e6, "ms"},
      {"ha.replica.ingest_batch_ms", "ha.replica.ingest_batch", 1e6, "ms"},
      {"ha.journal.append_fsync_ms", "ha.journal.append_fsync", 1e6, "ms"},
      {"core.retrainer.hour_us", "core.retrainer.hour", 1e3, "us"},
      {"core.retrainer.boundary_ms", "core.retrainer.boundary", 1e6, "ms"},
      {"ha.replica.snapshot_ms", "ha.replica.snapshot", 1e6, "ms"},
      {"ha.journal.compact_ms", "ha.journal.compact", 1e6, "ms"},
      {"ha.replica.replay_ms", "ha.replica.replay", 1e6, "ms"},
  };
  for (const auto& t : timed) {
    const auto [value, n] = p50(t.span, t.scale);
    Put(m, t.metric, value, t.unit, n);
  }

  // Residual: the sampled RPCs' p50 minus the sum of the replayed layers'
  // p50s (the envelope CRC is inside decode_request, so it is not added).
  const double rpc_p50 = layers.rpc_us.P(0.5);
  double layer_sum = 0.0;
  for (const char* span :
       {"net.wire.encode_request", "net.wire.decode_request",
        "core.epoch.acquire", "core.predict_shift",
        "net.wire.encode_response", "net.wire.decode_response"}) {
    layer_sum += p50(span, 1e3).first;
  }
  Put(m, "net.rpc_residual_us", rpc_p50 - layer_sum, "us",
      layers.rpc_us.n());
  const double floor_us = p50("core.predict_shift", 1e3).first;
  Put(m, "net.rpc_over_floor", floor_us > 0.0 ? rpc_p50 / floor_us : 0.0,
      "ratio", layers.rpc_us.n());
  Put(m, "net.wire.request_bytes", layers.request_bytes.P(0.5), "bytes",
      layers.request_bytes.n());
  Put(m, "net.wire.response_bytes", layers.response_bytes.P(0.5), "bytes",
      layers.response_bytes.n());
  Put(m, "net.wire.allocs_per_rpc", layers.allocs.Mean(), "count",
      layers.allocs.n());
  Put(m, "core.predict_shift.unique_tuple_share",
      layers.flows > 0 ? static_cast<double>(layers.unique_tuples) /
                             static_cast<double>(layers.flows)
                       : 0.0,
      "ratio", layers.flows);
  Put(m, "cms.whatif.row_visits", layers.row_visits.Mean(), "count",
      layers.row_visits.n());
  Put(m, "ha.journal.bytes_per_hour", layers.journal_bytes.Mean(), "bytes",
      layers.journal_bytes.n());
  Put(m, "ha.snapshot.bytes", layers.snapshot_bytes.P(0.5), "bytes",
      layers.snapshot_bytes.n());

  const auto& epoch = fleet.daemon().epoch();
  Put(m, "core.epoch.acquire_ns", AcquireNs(epoch, 1), "ns", 5);
  Put(m, "core.epoch.acquire_contended_ns", AcquireNs(epoch, clients), "ns",
      5);

  const double batches = fleet.RegistryValue("tipsyd_net_ingest_batches_total");
  Put(m, "net.daemon.ingest_batches_per_hour",
      hours_fed > 0 ? batches / static_cast<double>(hours_fed) : 0.0,
      "count", hours_fed);
  const double retrains = fleet.RegistryValue("tipsyd_replica_retrain_total");
  const double incremental =
      fleet.RegistryValue("tipsyd_replica_incremental_retrains_total");
  Put(m, "core.retrainer.full_rebuilds", retrains - incremental, "count",
      static_cast<std::size_t>(retrains));
  Put(m, "net.daemon.ship_frames_sent",
      fleet.RegistryValue("tipsyd_net_ship_frames_sent_total"), "count", 1);
  Put(m, "net.client.reconnects", static_cast<double>(reconnects), "count",
      1);
}

// Checks the client-side counts of the fleet's lifetime against the
// daemon's exported counters.
void CrossCheck(Fleet& fleet, std::uint64_t predicts, std::uint64_t whatifs,
                std::uint64_t hours, RunResult& result) {
  const struct {
    const char* metric;
    std::uint64_t client;
  } checks[] = {
      {"tipsyd_net_predict_requests_total", predicts},
      {"tipsyd_net_whatif_requests_total", whatifs},
      {"tipsyd_net_frames_applied_total", hours},
      {"tipsyd_net_ingest_batches_total", hours},
  };
  for (const auto& check : checks) {
    const double daemon = fleet.RegistryValue(check.metric);
    if (daemon != static_cast<double>(check.client)) {
      result.Fail(std::string("daemon counter ") + check.metric + " = " +
                  std::to_string(daemon) + " but clients sent " +
                  std::to_string(check.client));
    }
  }
  ++result.crosschecks;
}

void AddPhase(RunResult& result, const std::string& key,
              const PhaseCount& count) {
  PhaseCount& into = result.phases[key];
  into.sent += count.sent;
  into.ok += count.ok;
  into.failed += count.failed;
  result.attempted += count.sent;
  result.failed += count.failed;
}

std::string Dir(const Options& options, const std::string& name) {
  return options.workdir + "/" + name;
}

// Feeds `hours` into an in-process twin replica (same configuration as the
// daemon's, fsync off), calling `on_hour` after each hour.
util::StatusOr<ha::Replica> FeedTwin(
    const World& world, const std::string& dir, int hours,
    const std::function<void(int, const ha::Replica&)>& on_hour) {
  std::error_code error;
  std::filesystem::remove_all(dir, error);
  std::filesystem::create_directories(dir, error);
  auto config = DaemonReplicaConfig(dir, "twin");
  config.fsync_appends = false;
  auto twin = OpenReplica(world, config);
  if (!twin.ok()) return twin.status();
  for (int hour = 0; hour < hours; ++hour) {
    if (auto status =
            twin->Ingest(hour, world.hours[static_cast<std::size_t>(hour)]);
        !status.ok()) {
      return status;
    }
    if (on_hour) on_hour(hour, *twin);
  }
  return twin;
}

// ---------------------------------------------------------- cms workloads

Pools MakeCmsPools(const World& world, std::uint64_t seed, bool bulk) {
  Pools pools;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + (bulk ? 2 : 1));
  std::vector<const pipeline::AggRow*> window;
  for (int hour = 0; hour < kWarmupHours; ++hour) {
    for (const auto& row : world.hours[static_cast<std::size_t>(hour)]) {
      window.push_back(&row);
    }
  }
  auto pick = [&]() -> const pipeline::AggRow& {
    return *window[std::uniform_int_distribution<std::size_t>(
        0, window.size() - 1)(rng)];
  };
  if (!bulk) {
    // 1 flow, its own ingress link excluded; plus 1-candidate drains of a
    // busy link over that link's rows of a late warm-up hour.
    for (int i = 0; i < 4096; ++i) {
      const auto& row = pick();
      net::PredictRequest request;
      request.flows.push_back(QueryOf(row));
      request.excluded.push_back(row.link);
      pools.predicts.push_back(std::move(request));
    }
    for (int i = 0; i < 64; ++i) {
      const auto& rows =
          world.hours[static_cast<std::size_t>(kWarmupHours - 1 - i % 24)];
      net::WhatIfRequest request;
      request.link_loads = LinkLoads(world, rows);
      const auto busiest = BusiestLinks(request.link_loads);
      const auto link = busiest[static_cast<std::size_t>(i / 24) %
                                std::min<std::size_t>(busiest.size(), 8)];
      for (const auto& row : rows) {
        if (row.link == link && request.rows.size() < 64) {
          request.rows.push_back(row);
        }
      }
      request.candidates.push_back({link, {}});
      pools.whatifs.push_back(std::move(request));
    }
  } else {
    std::vector<pipeline::AggRow> all;
    for (const auto* row : window) all.push_back(*row);
    const auto busiest = BusiestLinks(LinkLoads(world, all));
    for (int i = 0; i < 64; ++i) {
      net::PredictRequest request;
      for (int f = 0; f < 256; ++f) request.flows.push_back(QueryOf(pick()));
      request.excluded.push_back(
          busiest[static_cast<std::size_t>(i) % std::min<std::size_t>(
                                                   busiest.size(), 4)]);
      pools.predicts.push_back(std::move(request));
    }
    for (int i = 0; i < 8; ++i) {
      pools.whatifs.push_back(MakeWhatIf(
          world, world.hours[static_cast<std::size_t>(kWarmupHours - 1 - i)],
          64));
    }
  }
  return pools;
}

void RunCms(const Options& options, const World& world, bool traced,
            SpanLog* log, RunResult& result) {
  const bool bulk = options.workload == "cms_bulk";
  Pools pools = MakeCmsPools(world, options.seed, bulk);

  // The twin replica answers every request locally: the reference the
  // daemon's responses must equal bit for bit.
  auto twin = FeedTwin(world, Dir(options, "twin"), kWarmupHours, nullptr);
  if (!twin.ok()) {
    result.Fail("twin replica: " + twin.status().ToString());
    return;
  }
  for (const auto& request : pools.predicts) {
    pools.predict_expected.push_back(
        ReferencePredict(twin->service(), request));
  }
  for (const auto& request : pools.whatifs) {
    pools.whatif_expected.push_back(
        ReferenceSweep(world, twin->service(), request));
  }
  const std::uint32_t twin_digest = ha::ReplicaStateDigest(*twin);

  const int connections = bulk ? 1 : 2;
  const auto predicts = pools.predicts.size();
  const auto whatifs = pools.whatifs.size();
  auto schedule = [&](int c, std::uint64_t k) -> Op {
    if (bulk) {
      return k % 2 == 0 ? Op{OpKind::kPredict, (k / 2) % predicts}
                        : Op{OpKind::kWhatIf, (k / 2) % whatifs};
    }
    if (k % 32 == 31) {
      return Op{OpKind::kWhatIf,
                (k / 32 * 2 + static_cast<std::uint64_t>(c)) % whatifs};
    }
    return Op{OpKind::kPredict,
              (k + static_cast<std::uint64_t>(c) * predicts / 2) % predicts};
  };
  const std::array<std::uint64_t, 2> sample_every =
      bulk ? std::array<std::uint64_t, 2>{8, 8}
           : std::array<std::uint64_t, 2>{256, 8};
  const auto segment = std::chrono::milliseconds(options.seconds * 1000) /
                       kSetupRepeats;

  // Segments spread the set-ups over the run: each sets up a fleet (open +
  // start + standby connected + lock-step warm-up feed until a predict is
  // stamped FRESH) and then runs its share of the timed phase on it.
  Sample setup_s;
  FeedMetrics feed;
  PhaseCount warm_hours;
  Tally probes;  // the FRESH probe ending each set-up
  Tally timed;
  Layers layers;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    Fleet fleet(world, Dir(options, "fleet" + std::to_string(repeat)));
    const auto t0 = Clock::now();
    if (auto started = fleet.Start(); !started.ok()) {
      result.Fail("fleet start: " + started.ToString());
      return;
    }
    FeedStats one;
    fleet.Feed(0, kWarmupHours, one);
    net::PredictClient probe(fleet.PredictConfig());
    OpRecord record;
    Execute(probe, pools, Op{OpKind::kPredict, 0}, record);
    const auto t1 = Clock::now();
    record.due_ns = record.send_ns;
    Count(pools, record, /*checked=*/true, probes);
    setup_s.Add(MsBetween(t0, t1) / 1e3);
    if (!fleet.FinishFeed(one)) {
      result.Fail("standby did not apply the warm-up feed within 10 s");
    }
    fleet.StopShipping();
    warm_hours.sent += one.hours;
    warm_hours.failed += one.failed;
    warm_hours.ok += one.hours - std::min(one.hours, one.failed);
    feed.Add(one);

    const Tally tally =
        RunClosedLoop(fleet, pools, connections, schedule, segment,
                      traced ? log : nullptr, sample_every);
    CrossCheck(fleet, 1 + tally.predict.sent, tally.whatif.sent,
               fleet.fed_records(), result);
    timed.Merge(tally);
    if (traced) {
      for (const auto& sampled : tally.sampled) {
        ReplayRpc(world, fleet, pools, sampled, log, layers, result);
      }
      if (repeat + 1 == kSetupRepeats) {
        ReplayIngest(world, Dir(options, "layers"), one, kWarmupHours,
                     twin_digest, log, layers, result);
        PutLayers(result, layers, fleet, connections, fleet.fed_records(),
                  timed.reconnects + fleet.client_reconnects());
      }
    }
    fleet.Stop();
    if (ha::ReplicaStateDigest(fleet.primary()) != twin_digest) {
      result.Fail("daemon replica diverged from the twin");
    }
    if (ha::ReplicaStateDigest(fleet.standby()) != twin_digest) {
      result.Fail("standby replica diverged from the twin");
    }
  }
  AddPhase(result, "warmup.hours", warm_hours);
  AddPhase(result, "warmup.predict_probe", probes.predict);
  AddPhase(result, "timed.predict", timed.predict);
  AddPhase(result, "timed.whatif", timed.whatif);
  PutEndToEnd(result, setup_s, Summarize(timed.ops, timed.elapsed_s), feed);
  result.notes.push_back("twin_digest " + std::to_string(twin_digest));
}

// -------------------------------------------------------- ingest_day

Pools MakeIngestPools(const World& world, std::uint64_t seed) {
  Pools pools;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  for (int i = 0; i < 256; ++i) {
    net::PredictRequest request;
    for (int f = 0; f < 16; ++f) {
      const auto& rows = world.hours[std::uniform_int_distribution<std::size_t>(
          0, world.hours.size() - 1)(rng)];
      request.flows.push_back(QueryOf(
          rows[std::uniform_int_distribution<std::size_t>(0, rows.size() - 1)(
              rng)]));
    }
    const auto& first = world.hours[0][static_cast<std::size_t>(i) %
                                       world.hours[0].size()];
    request.excluded.push_back(first.link);
    pools.predicts.push_back(std::move(request));
  }
  for (int i = 0; i < 16; ++i) {
    pools.whatifs.push_back(MakeWhatIf(
        world,
        world.hours[static_cast<std::size_t>((i + 1) * util::kHoursPerDay +
                                             12)],
        8));
  }
  return pools;
}

struct ReaderResult {
  std::vector<OpRecord> records;
  Tally tally;
};

// Open loop: request k is due at start + k/rate whatever happened to
// earlier ones. A pool of connections sends whatever is due, so one
// stalled request does not hold back the schedule; requests that find
// every connection busy wait in the queue, and their latency counts from
// the due time. Runs until `stop`, then drains the queue.
void ReadOpenLoop(Fleet& fleet, const Pools& pools, SpanLog* log,
                  const std::atomic<bool>& stop, ReaderResult& out) {
  struct Due {
    Op op;
    std::uint64_t due_ns = 0;
    bool sampled = false;
  };
  std::mutex mu;
  std::condition_variable ready;
  std::deque<Due> queue;
  bool done = false;

  std::vector<ReaderResult> parts(kReaderConnections);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kReaderConnections; ++w) {
    workers.emplace_back([&, w] {
      net::PredictClient client(fleet.PredictConfig());
      ReaderResult& part = parts[w];
      std::vector<SpanRecord> spans;
      for (;;) {
        Due next;
        {
          std::unique_lock<std::mutex> lock(mu);
          ready.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) break;
          next = queue.front();
          queue.pop_front();
        }
        OpRecord record;
        Execute(client, pools, next.op, record);
        record.due_ns = next.due_ns;
        Count(pools, record, /*checked=*/false, part.tally);
        if (log != nullptr) {
          const SpanRecord span = RpcSpan(log, record);
          spans.push_back(span);
          if (next.sampled) part.tally.sampled.push_back({next.op, span});
        }
        part.records.push_back(std::move(record));
      }
      part.tally.reconnects = client.reconnects();
      if (log != nullptr) log->AddAll(spans);
    });
  }

  const std::uint64_t start = obs::NowNanos();
  const double period_ns = 1e9 / kReaderRatePerS;
  for (std::uint64_t k = 0; !stop.load(std::memory_order_acquire); ++k) {
    const auto due = start + static_cast<std::uint64_t>(
                                 static_cast<double>(k) * period_ns);
    const std::uint64_t now = obs::NowNanos();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    // Predicts and what-ifs alternate; every other pair is replayed when
    // traced.
    const Op op = k % 2 == 1
                      ? Op{OpKind::kWhatIf, (k / 2) % pools.whatifs.size()}
                      : Op{OpKind::kPredict, (k / 2) % pools.predicts.size()};
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({op, due, k % 4 < 2});
    }
    ready.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  ready.notify_all();
  for (auto& worker : workers) worker.join();
  for (auto& part : parts) {
    out.tally.Merge(part.tally);
    for (auto& record : part.records) out.records.push_back(std::move(record));
  }
}

// The model that answered a request, from when it was sent and done
// relative to the day-boundary hours' send and ack times: 0 before the
// first boundary, b after boundary b, -1 when it straddles a boundary.
int ModelOf(const OpRecord& record, const FeedStats& feed) {
  const int days = static_cast<int>(feed.sent_at.size()) / util::kHoursPerDay;
  if (record.done_ns < Nanos(feed.sent_at[util::kHoursPerDay])) return 0;
  for (int b = 1; b <= days; ++b) {
    const auto hour = static_cast<std::size_t>(b * util::kHoursPerDay);
    const std::uint64_t lo = Nanos(feed.acked_at[hour]);
    const std::uint64_t hi =
        hour + util::kHoursPerDay < feed.sent_at.size()
            ? Nanos(feed.sent_at[hour + util::kHoursPerDay])
            : ~0ULL;
    if (record.send_ns >= lo && record.done_ns <= hi) return b;
  }
  return -1;
}

void RunIngestDay(const Options& options, const World& world, bool traced,
                  SpanLog* log, RunResult& result) {
  const Pools pools = MakeIngestPools(world, options.seed);
  const int days = kIngestHours / util::kHoursPerDay;

  Sample setup_s;
  FeedMetrics feed;
  Tally tally;
  double measured_s = 0.0;
  std::vector<std::uint32_t> digests;
  // Per cycle: its feed (for the model windows) and the reader's records.
  std::vector<std::pair<FeedStats, std::vector<OpRecord>>> cycles;
  std::uint64_t late_count = 0;
  Sample lateness_us;

  for (int cycle = 0; cycle == 0 || measured_s < options.seconds; ++cycle) {
    Fleet fleet(world, Dir(options, "fleet" + std::to_string(cycle)));
    const auto t0 = Clock::now();
    if (auto started = fleet.Start(); !started.ok()) {
      result.Fail("fleet start: " + started.ToString());
      return;
    }
    setup_s.Add(MsBetween(t0, Clock::now()) / 1e3);

    std::atomic<bool> stop{false};
    ReaderResult reader_result;
    std::thread reader([&] {
      ReadOpenLoop(fleet, pools, traced && cycle == 0 ? log : nullptr, stop,
                   reader_result);
    });

    FeedStats one;
    const auto feed_start = Clock::now();
    fleet.Feed(0, kIngestHours, one);
    measured_s += MsBetween(feed_start, Clock::now()) / 1e3;
    stop.store(true, std::memory_order_release);
    reader.join();
    if (!fleet.FinishFeed(one)) {
      result.Fail("standby did not apply the day feed within 10 s");
    }
    const Tally& reader_tally = reader_result.tally;
    std::vector<OpRecord>& records = reader_result.records;

    CrossCheck(fleet, reader_tally.predict.sent, reader_tally.whatif.sent,
               fleet.fed_records(), result);
    if (traced && cycle == 0) {
      Layers layers;
      for (const auto& sampled : reader_tally.sampled) {
        ReplayRpc(world, fleet, pools, sampled, log, layers, result);
      }
      fleet.Stop();
      const std::uint32_t digest = ha::ReplicaStateDigest(fleet.primary());
      ReplayIngest(world, Dir(options, "layers"), one, kIngestHours, digest,
                   log, layers, result);
      PutLayers(result, layers, fleet, 1, fleet.fed_records(),
                reader_tally.reconnects + fleet.client_reconnects());
    }
    fleet.Stop();
    digests.push_back(ha::ReplicaStateDigest(fleet.primary()));
    if (ha::ReplicaStateDigest(fleet.standby()) != digests.back()) {
      result.Fail("standby digest differs from the primary's (cycle " +
                  std::to_string(cycle) + ")");
    }

    for (const auto& record : records) {
      const double late = static_cast<double>(record.send_ns - record.due_ns);
      lateness_us.Add(late / 1e3);
      if (late > 1e6) ++late_count;
    }
    tally.Merge(reader_tally);
    feed.Add(one);
    cycles.emplace_back(std::move(one), std::move(records));
  }
  // Set-up is cheap here; repeat it so its median has several samples.
  while (setup_s.n() < kSetupRepeats) {
    Fleet fleet(world, Dir(options, "setup" + std::to_string(setup_s.n())));
    const auto t0 = Clock::now();
    if (auto started = fleet.Start(); !started.ok()) {
      result.Fail("fleet start: " + started.ToString());
      return;
    }
    setup_s.Add(MsBetween(t0, Clock::now()) / 1e3);
  }

  // Correctness: a twin fed the same 21 days gives, after each day
  // boundary, the model every response in that model's window must match.
  std::vector<std::vector<Prediction>> predict_ref(
      static_cast<std::size_t>(days) + 1);
  std::vector<std::vector<Reports>> whatif_ref(static_cast<std::size_t>(days) +
                                               1);
  auto fill = [&](int model, const core::TipsyService* service) {
    for (const auto& request : pools.predicts) {
      predict_ref[static_cast<std::size_t>(model)].push_back(
          ReferencePredict(service, request));
    }
    for (const auto& request : pools.whatifs) {
      whatif_ref[static_cast<std::size_t>(model)].push_back(
          ReferenceSweep(world, service, request));
    }
  };
  fill(0, nullptr);
  auto twin = FeedTwin(world, Dir(options, "twin"), kIngestHours,
                       [&](int hour, const ha::Replica& replica) {
                         if (hour > 0 && hour % util::kHoursPerDay == 0) {
                           fill(hour / util::kHoursPerDay, replica.service());
                         }
                       });
  if (!twin.ok()) {
    result.Fail("twin replica: " + twin.status().ToString());
    return;
  }
  for (const auto digest : digests) {
    if (digest != ha::ReplicaStateDigest(*twin)) {
      result.Fail("daemon replica diverged from the twin");
    }
  }
  std::uint64_t straddling = 0;
  PhaseCount predict_count = tally.predict;
  PhaseCount whatif_count = tally.whatif;
  for (const auto& [cycle_feed, records] : cycles) {
    const std::uint64_t first_ack =
        Nanos(cycle_feed.acked_at[util::kHoursPerDay]);
    for (const auto& record : records) {
      if (!record.ok) continue;  // already counted as failed
      const int model = ModelOf(record, cycle_feed);
      bool good = true;
      if (record.send_ns >= first_ack) {
        good = record.health == core::ModelHealth::kFresh;
      } else if (model == 0) {
        good = record.health == core::ModelHealth::kNone;
      }
      if (model < 0) {
        ++straddling;
      } else {
        const auto m = static_cast<std::size_t>(model);
        good = good && (record.op.kind == OpKind::kPredict
                            ? SamePrediction(record.prediction,
                                             predict_ref[m][record.op.index])
                            : SameReports(record.reports,
                                          whatif_ref[m][record.op.index]));
      }
      if (good) continue;
      PhaseCount& count =
          record.op.kind == OpKind::kPredict ? predict_count : whatif_count;
      --count.ok;
      ++count.failed;
    }
  }
  if (predict_count.failed + whatif_count.failed > 0) {
    result.Fail("reader responses failed or mismatched the twin: " +
                std::to_string(predict_count.failed + whatif_count.failed));
  }
  AddPhase(result, "timed.predict", predict_count);
  AddPhase(result, "timed.whatif", whatif_count);
  PhaseCount hours;
  hours.sent = static_cast<std::uint64_t>(kIngestHours) * cycles.size();
  hours.failed = feed.failed;
  hours.ok = hours.sent - std::min(hours.sent, feed.failed);
  AddPhase(result, "timed.hours", hours);

  PutEndToEnd(result, setup_s, Summarize(tally.ops, measured_s), feed);
  result.notes.push_back("reader rate_per_s " + std::to_string(kReaderRatePerS) +
                         " lateness_p50_us " + std::to_string(lateness_us.P(0.5)) +
                         " lateness_p99_us " + std::to_string(lateness_us.P(0.99)) +
                         " late_over_1ms " + std::to_string(late_count) +
                         " of " + std::to_string(lateness_us.n()));
  result.notes.push_back("reader responses straddling a model change "
                         "(health-checked only) " +
                         std::to_string(straddling));
  result.notes.push_back("cycles " + std::to_string(cycles.size()) +
                         " twin_digest " +
                         std::to_string(ha::ReplicaStateDigest(*twin)));
}

}  // namespace

int WorldHours(const std::string& workload) {
  return workload == "ingest_day" ? kIngestHours : kWarmupHours;
}

void RunWorkload(const Options& options, const World& world, bool traced,
                 SpanLog* spans, RunResult& result) {
  if (options.workload == "ingest_day") {
    RunIngestDay(options, world, traced, spans, result);
  } else {
    RunCms(options, world, traced, spans, result);
  }
}

}  // namespace perfbench
