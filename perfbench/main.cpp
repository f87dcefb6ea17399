// tipsy_perfbench: the loopback serving benchmark's program.
//
//   tipsy_perfbench --workload cms_point|cms_bulk|ingest_day --seed N
//                   --seconds S --trace 0|1 --workdir DIR --outdir DIR
//
// Prints a human-readable report (host calibration, per-phase request
// accounting, every metric with its sample count, tracing overhead) and,
// as its last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"} — the end-to-end metrics, or with --trace 1 the per-layer
// metrics. --trace 1 runs the workload twice, untraced then traced, and
// reports the difference of each end-to-end metric as tracing overhead.
// Also writes <outdir>/<workload>-seed<N>-trace<T>.json (the full report)
// and, when traced, <outdir>/<workload>-seed<N>.spans.jsonl.
// Exits 1 when any correctness check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "perfbench.h"
#include "util/parallel.h"

namespace {

using namespace perfbench;

struct Calibration {
  unsigned nproc = 0;
  std::size_t pool_threads = 0;
  std::vector<double> spin_efficiency;  // index t-1: t threads
};

// Aggregate throughput of a pure-ALU spin at t threads over t times the
// single-thread throughput.
Calibration Calibrate() {
  Calibration cal;
  cal.nproc = std::max(1u, std::thread::hardware_concurrency());
  cal.pool_threads = util::ParallelConfig::FromEnv().Resolve();
  constexpr std::uint64_t kIters = 50'000'000;
  auto spin = [](std::uint64_t seed) {
    std::uint64_t x = seed | 1;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  double single_s = 0.0;
  for (unsigned t = 1; t <= cal.nproc; ++t) {
    std::vector<std::uint64_t> sinks(t);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < t; ++i) {
      threads.emplace_back([&, i] { sinks[i] = spin(i + 1); });
    }
    for (auto& thread : threads) thread.join();
    const double s = MsBetween(t0, Clock::now()) / 1e3;
    if (t == 1) single_s = s;
    // t spins in s seconds against one spin in single_s seconds.
    cal.spin_efficiency.push_back(single_s / s);
    if (sinks[0] == 0) cal.spin_efficiency.back() = 0.0;
  }
  return cal;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

std::string MetricsJson(const MetricMap& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << Number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

std::string SamplesJson(const MetricMap& metrics) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << metric.samples;
    first = false;
  }
  out << "}";
  return out.str();
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

// Non-finite values cannot be reported; they mean a metric had no samples.
void CheckFinite(const MetricMap& metrics, RunResult& result) {
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) {
      result.Fail("metric " + name + " is not a finite number");
    }
  }
}

int Usage() {
  std::cerr << "usage: tipsy_perfbench --workload cms_point|cms_bulk|"
               "ingest_day --seed N --seconds S --trace 0|1 --workdir DIR "
               "--outdir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--outdir") {
      options.outdir = value;
    } else {
      return Usage();
    }
  }
  if ((options.workload != "cms_point" && options.workload != "cms_bulk" &&
       options.workload != "ingest_day") ||
      options.seconds < 1 || options.workdir.empty() ||
      options.outdir.empty()) {
    return Usage();
  }
  std::error_code error;
  std::filesystem::create_directories(options.workdir, error);
  std::filesystem::create_directories(options.outdir, error);

  const Calibration cal = Calibrate();
  std::cout << "host nproc " << cal.nproc << " daemon_pool_threads "
            << cal.pool_threads << " spin_efficiency";
  for (std::size_t t = 0; t < cal.spin_efficiency.size(); ++t) {
    std::cout << " " << t + 1 << ":" << Number(cal.spin_efficiency[t]);
  }
  std::cout << " seed " << options.seed << "\n";

  const auto gen_start = Clock::now();
  const World world(options.seed, WorldHours(options.workload));
  std::size_t rows = 0;
  for (const auto& hour : world.hours) rows += hour.size();
  std::cout << "inputs hours " << world.hours.size() << " rows " << rows
            << " links " << world.wan().link_count() << " generated_s "
            << Number(MsBetween(gen_start, Clock::now()) / 1e3) << "\n";

  RunResult untraced;
  RunWorkload(options, world, /*traced=*/false, nullptr, untraced);
  CheckFinite(untraced.end_to_end, untraced);
  RunResult traced;
  SpanLog spans;
  std::string spans_path;
  if (options.trace) {
    RunWorkload(options, world, /*traced=*/true, &spans, traced);
    CheckFinite(traced.per_layer, traced);
    spans_path = options.outdir + "/" + options.workload + "-seed" +
                 std::to_string(options.seed) + ".spans.jsonl";
    if (!spans.WriteJsonLines(spans_path)) {
      traced.Fail("cannot write " + spans_path);
    }
  }

  std::vector<std::string> failures = untraced.failures;
  failures.insert(failures.end(), traced.failures.begin(),
                  traced.failures.end());
  const std::uint64_t attempted = untraced.attempted + traced.attempted;
  const std::uint64_t failed_ops = untraced.failed + traced.failed;
  const bool correct = failures.empty() && failed_ops == 0;
  // A failed whole-run check (a digest, a counter) with every request
  // answered still counts as one failed operation.
  const std::uint64_t failed = failed_ops + (correct || failed_ops > 0 ? 0 : 1);

  std::ostringstream report;
  report << "{\"workload\": " << Quoted(options.workload)
         << ", \"seed\": " << options.seed
         << ", \"seconds\": " << options.seconds
         << ", \"trace\": " << (options.trace ? 1 : 0)
         << ", \"host\": {\"nproc\": " << cal.nproc
         << ", \"daemon_pool_threads\": " << cal.pool_threads
         << ", \"spin_efficiency\": [";
  for (std::size_t t = 0; t < cal.spin_efficiency.size(); ++t) {
    report << (t > 0 ? ", " : "") << Number(cal.spin_efficiency[t]);
  }
  report << "]}, \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"error_rate\": "
         << Number(attempted > 0 ? static_cast<double>(failed) /
                                       static_cast<double>(attempted)
                                 : 0.0);

  for (const auto* run : {&untraced, &traced}) {
    if (run == &traced && !options.trace) break;
    const char* label = run == &untraced ? "untraced" : "traced";
    for (const auto& [phase, count] : run->phases) {
      std::cout << "phase " << label << "." << phase << " sent "
                << count.sent << " ok " << count.ok << " failed "
                << count.failed << "\n";
    }
    std::cout << "note " << label << " daemon counters checked against"
              << " client counts on " << run->crosschecks
              << " fleets (predict_requests, whatif_requests, frames_applied,"
              << " ingest_batches)\n";
    for (const auto& note : run->notes) {
      std::cout << "note " << label << " " << note << "\n";
    }
  }
  report << ", \"phases\": {";
  bool first = true;
  for (const auto* run : {&untraced, &traced}) {
    const char* label = run == &untraced ? "untraced" : "traced";
    for (const auto& [phase, count] : run->phases) {
      report << (first ? "" : ", ") << "\"" << label << "." << phase
             << "\": {\"sent\": " << count.sent << ", \"ok\": " << count.ok
             << ", \"failed\": " << count.failed << "}";
      first = false;
    }
  }
  report << "}, \"end_to_end\": " << MetricsJson(untraced.end_to_end)
         << ", \"end_to_end_samples\": " << SamplesJson(untraced.end_to_end);
  for (const auto& [name, metric] : untraced.end_to_end) {
    std::cout << "metric " << name << " " << Number(metric.value) << " "
              << metric.unit << " n=" << metric.samples << "\n";
  }
  if (options.trace) {
    report << ", \"per_layer\": " << MetricsJson(traced.per_layer)
           << ", \"per_layer_samples\": " << SamplesJson(traced.per_layer)
           << ", \"traced_end_to_end\": " << MetricsJson(traced.end_to_end)
           << ", \"tracing_overhead\": {";
    first = true;
    for (const auto& [name, metric] : untraced.end_to_end) {
      const auto it = traced.end_to_end.find(name);
      if (it == traced.end_to_end.end()) continue;
      const double diff = it->second.value - metric.value;
      std::cout << "overhead " << name << " traced "
                << Number(it->second.value) << " untraced "
                << Number(metric.value) << " diff " << Number(diff) << " "
                << metric.unit << "\n";
      report << (first ? "" : ", ") << "\"" << name << "\": " << Number(diff);
      first = false;
    }
    report << "}, \"spans\": " << Quoted(spans_path)
           << ", \"span_count\": " << spans.spans().size();
    for (const auto& [name, metric] : traced.per_layer) {
      std::cout << "layer " << name << " " << Number(metric.value) << " "
                << metric.unit << " n=" << metric.samples << "\n";
    }
    std::cout << "spans " << spans.spans().size() << " written to "
              << spans_path << "\n";
  }
  report << ", \"notes\": [";
  first = true;
  for (const auto* run : {&untraced, &traced}) {
    for (const auto& note : run->notes) {
      report << (first ? "" : ", ") << Quoted(note);
      first = false;
    }
  }
  report << "], \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    report << (i > 0 ? ", " : "") << Quoted(failures[i]);
    std::cout << "FAILED " << failures[i] << "\n";
  }
  report << "]}\n";
  const std::string report_path =
      options.outdir + "/" + options.workload + "-seed" +
      std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") +
      ".json";
  {
    std::ofstream out(report_path);
    out << report.str();
  }
  std::cout << "report " << report_path << "\n";
  std::filesystem::remove_all(options.workdir, error);

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": "
            << MetricsJson(options.trace ? traced.per_layer
                                         : untraced.end_to_end)
            << "}" << std::endl;
  return correct ? 0 : 1;
}
