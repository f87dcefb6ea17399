// Quickstart: build a small synthetic Internet, train TIPSY on three weeks
// of simulated telemetry, and ask it where traffic will ingress the WAN -
// both in normal operation and under a what-if prefix withdrawal.
//
//   ./examples/quickstart [seed]
#include <cstdlib>
#include <iostream>

#include "core/tipsy_service.h"
#include "scenario/experiment.h"
#include "scenario/scenario.h"
#include "util/table.h"

using namespace tipsy;

int main(int argc, char** argv) {
  auto config = scenario::TinyScenarioConfig();
  if (argc > 1) {
    config.seed = config.topology.seed = config.traffic.seed =
        std::strtoull(argv[1], nullptr, 10);
  }
  config.horizon = util::HourRange{0, 28 * util::kHoursPerDay};
  config.traffic.flow_target = 2000;

  std::cout << "Building scenario (topology seed " << config.topology.seed
            << ")...\n";
  scenario::Scenario world(config);
  std::cout << "  " << world.topology().graph.node_count()
            << " routing domains, " << world.wan().link_count()
            << " peering links, " << world.workload().flows().size()
            << " flow aggregates\n";

  // Train on 3 weeks, evaluate on 1 week - the paper's methodology.
  auto experiment_cfg = scenario::PaperWindows();
  std::cout << "Simulating 3 weeks of training + 1 week of testing...\n";
  auto experiment = scenario::RunExperiment(world, experiment_cfg);

  util::TextTable table({"Model", "Top 1 %", "Top 2 %", "Top 3 %"});
  for (const auto& row :
       scenario::EvaluateSuite(*experiment.tipsy, experiment.overall)) {
    table.AddRow({row.model, util::TextTable::Percent(row.accuracy.top1()),
                  util::TextTable::Percent(row.accuracy.top2()),
                  util::TextTable::Percent(row.accuracy.top3())});
  }
  std::cout << "\nOverall prediction accuracy (cf. paper Table 4):\n"
            << table.ToString();

  // A what-if query, the way the congestion mitigation system uses TIPSY:
  // take the first flow, pretend its current top link gets a withdrawal,
  // and ask where the bytes would go.
  const auto flow = world.FlowFeaturesOf(0);
  const auto& best = experiment.tipsy->Best();
  const auto baseline = core::PredictTopK(best, flow, 3, nullptr);
  if (!baseline.empty()) {
    std::cout << "\nWhat-if for one flow (src AS "
              << flow.src_asn.value() << ", prefix "
              << flow.src_prefix24.ToString() << "):\n";
    std::cout << "  today it ingresses mostly via link "
              << baseline.front().link.value() << " ("
              << world.wan().link(baseline.front().link).router << ", peer AS "
              << world.wan().link(baseline.front().link).peer_asn.value()
              << ")\n";
    core::ExclusionMask withdrawn(world.wan().link_count(), false);
    withdrawn[baseline.front().link.value()] = true;
    const auto shifted = core::PredictTopK(best, flow, 3, &withdrawn);
    std::cout << "  after a withdrawal there, TIPSY predicts:\n";
    for (const auto& p : shifted) {
      const auto& link = world.wan().link(p.link);
      std::cout << "    link " << p.link.value() << " @" << link.router
                << " (peer AS " << link.peer_asn.value() << ", "
                << link.capacity_gbps << "G): "
                << util::TextTable::Percent(p.probability)
                << "% of the bytes\n";
    }
  }
  std::cout << "\nDone.\n";
  return 0;
}
