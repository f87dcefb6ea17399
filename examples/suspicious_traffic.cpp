// Spoofed-ingress detection (§8): train TIPSY, then inject traffic that
// claims to come from known enterprise prefixes but arrives on peering
// links where those sources are exceedingly unlikely - the "US national
// lab traffic on far-away links" case. The detector flags the spoofed
// observations without flagging the legitimate baseline.
//
//   ./examples/suspicious_traffic [seed]
#include <cstdlib>
#include <iostream>

#include "core/anomaly.h"
#include "scenario/experiment.h"
#include "util/rng.h"
#include "util/table.h"

using namespace tipsy;

int main(int argc, char** argv) {
  auto cfg = scenario::TinyScenarioConfig();
  if (argc > 1) {
    cfg.seed = cfg.topology.seed = std::strtoull(argv[1], nullptr, 10);
    cfg.traffic.seed = cfg.seed + 1;
    cfg.outages.seed = cfg.seed + 2;
  }
  cfg.traffic.flow_target = 2000;
  cfg.horizon = util::HourRange{0, 25 * util::kHoursPerDay};
  scenario::Scenario world(cfg);

  std::cout << "Training TIPSY on three weeks of telemetry...\n";
  auto windows = scenario::PaperWindows();
  auto experiment = scenario::RunExperiment(world, windows);

  // One real hour of traffic as the honest baseline.
  std::vector<pipeline::AggRow> observations;
  world.SimulateHours(
      {windows.test.begin, windows.test.begin + 1},
      [&](util::HourIndex, std::span<const pipeline::AggRow> rows) {
        observations.assign(rows.begin(), rows.end());
      });
  const std::size_t honest = observations.size();

  // Inject spoofed rows: take known flows, but deliver them on a link on
  // the other side of the world from their historical ingress.
  util::Rng rng(cfg.seed ^ 0x5f00f);
  const auto* model = experiment.tipsy->Find("Hist_AP");
  std::size_t injected = 0;
  for (std::size_t f = 0; f < 50; ++f) {
    const auto flow = world.FlowFeaturesOf(f);
    const auto usual = core::PredictTopK(*model, flow, 16, nullptr);
    if (usual.empty()) continue;
    // Find the farthest link from the flow's usual ingress metro.
    const auto usual_metro = world.wan().link(usual.front().link).metro;
    util::LinkId far_link;
    double far_distance = -1.0;
    for (const auto& link : world.wan().links()) {
      const double d =
          world.metros().DistanceKmBetween(usual_metro, link.metro);
      if (d > far_distance) {
        far_distance = d;
        far_link = link.id;
      }
    }
    pipeline::AggRow spoof;
    spoof.hour = windows.test.begin;
    spoof.link = far_link;
    spoof.src_asn = flow.src_asn;
    spoof.src_prefix24 = flow.src_prefix24;
    spoof.src_metro = flow.src_metro;
    spoof.dest_region = flow.dest_region;
    spoof.dest_service = flow.dest_service;
    spoof.bytes = 1'000'000'000 + rng.NextBelow(1'000'000'000);
    observations.push_back(spoof);
    ++injected;
  }
  std::cout << "observing " << honest << " honest rows + " << injected
            << " spoofed rows\n";

  core::AnomalyConfig detector_cfg;
  detector_cfg.min_bytes = 1e6;
  core::SuspiciousIngressDetector detector(model, detector_cfg);
  const auto flagged = detector.Scan(observations);

  std::size_t true_positives = 0;
  for (const auto& f : flagged) {
    // Spoofed rows were appended after index `honest`; recover by value:
    // spoofs have plausibility exactly 0 on a far-away link.
    if (f.plausibility == 0.0) ++true_positives;
  }
  std::cout << "flagged " << flagged.size() << " observations ("
            << true_positives << " with zero historical plausibility)\n\n";

  util::TextTable table(
      {"Source AS", "Prefix", "Arrived at", "Bytes", "Plausibility"});
  std::size_t shown = 0;
  for (const auto& f : flagged) {
    if (shown++ >= 10) break;
    table.AddRow({std::to_string(f.flow.src_asn.value()),
                  f.flow.src_prefix24.ToString(),
                  world.wan().link(f.link).router,
                  util::TextTable::HumanBytes(f.bytes),
                  util::TextTable::Fixed(f.plausibility, 4)});
  }
  table.Print(std::cout);
  const double flag_rate_honest =
      honest > 0 ? static_cast<double>(flagged.size() - true_positives) /
                       static_cast<double>(honest)
                 : 0.0;
  std::cout << "false-positive rate on honest traffic: "
            << util::TextTable::Percent(flag_rate_honest)
            << "% (operators would route flagged flows through DoS "
               "scrubbers)\n";
  return 0;
}
