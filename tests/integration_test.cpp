// End-to-end properties of the whole stack on a tiny world: the shapes the
// paper's evaluation rests on must hold structurally, not just for one
// seed.
#include <gtest/gtest.h>

#include "cms/cms.h"
#include "scenario/experiment.h"
#include "scenario/scenario.h"

namespace tipsy {
namespace {

class EndToEndTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  scenario::ScenarioConfig Config() const {
    auto cfg = scenario::TinyScenarioConfig();
    cfg.seed = cfg.topology.seed = GetParam();
    cfg.traffic.seed = GetParam() + 1;
    cfg.outages.seed = GetParam() + 2;
    cfg.traffic.flow_target = 1200;
    cfg.horizon = util::HourRange{0, 28 * util::kHoursPerDay};
    return cfg;
  }
};

TEST_P(EndToEndTest, EvaluationShapeInvariants) {
  scenario::Scenario world(Config());
  const auto result =
      scenario::RunExperiment(world, scenario::PaperWindows());
  ASSERT_FALSE(result.overall.empty());

  auto top3 = [&](const char* name, const core::EvalSet& eval) {
    const auto* model = result.tipsy->Find(name);
    EXPECT_NE(model, nullptr) << name;
    return core::EvaluateModel(*model, eval).top3();
  };

  // Specific models beat the AS-only model on normal traffic.
  const double a = top3("Hist_A", result.overall);
  const double ap = top3("Hist_AP", result.overall);
  const double al = top3("Hist_AL", result.overall);
  EXPECT_GE(ap, a - 0.02);
  EXPECT_GE(al, a - 0.02);
  EXPECT_GT(ap, 0.5);

  // The oracle bounds its model.
  const auto oracle = core::BuildOracle(core::FeatureSet::kAP,
                                        result.overall);
  EXPECT_GE(core::EvaluateModel(oracle, result.overall).top3(),
            ap - 1e-9);

  // On outage-affected traffic the geographic fallback can only help.
  if (!result.outage_all.empty()) {
    EXPECT_GE(top3("Hist_AL+G", result.outage_all),
              top3("Hist_AL", result.outage_all) - 1e-9);
  }
  // Ensembles never lose to their first stage.
  EXPECT_GE(top3("Hist_AP/AL/A", result.overall), ap - 1e-9);
}

TEST_P(EndToEndTest, OutageEvaluationWellFormed) {
  scenario::Scenario world(Config());
  const auto result =
      scenario::RunExperiment(world, scenario::PaperWindows());
  if (result.outage_all.empty()) GTEST_SKIP() << "no outages this seed";
  // Every outage case carries an exclusion mask and its actual links are
  // all live under that mask (traffic cannot arrive on a down link).
  for (const auto& ec : result.outage_all.cases()) {
    EXPECT_NE(ec.mask_id, 0u);
    const auto* mask = result.outage_all.mask(ec.mask_id);
    ASSERT_NE(mask, nullptr);
    for (const auto& [link, bytes] : ec.actual) {
      EXPECT_FALSE((*mask)[link.value()]);
    }
  }
  // No model beats its oracle on the outage subset either.
  const auto* model = result.tipsy->Find("Hist_AP");
  const auto oracle =
      core::BuildOracle(core::FeatureSet::kAP, result.outage_all);
  EXPECT_GE(core::EvaluateModel(oracle, result.outage_all).top3(),
            core::EvaluateModel(*model, result.outage_all).top3() - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndTest,
                         ::testing::Values(42, 1234, 777));

TEST(EndToEnd, CmsReducesOverloadDuration) {
  auto cfg = scenario::TinyScenarioConfig();
  cfg.traffic.flow_target = 1000;
  cfg.horizon = util::HourRange{0, 26 * util::kHoursPerDay};
  cfg.target_p99_utilization = 0.6;
  scenario::Scenario world(cfg);
  auto windows = scenario::PaperWindows();
  auto experiment = scenario::RunExperiment(world, windows);

  // Surge a busy link.
  const auto start = windows.test.begin;
  std::vector<double> loads(world.wan().link_count(), 0.0);
  world.SimulateHours({start, start + 1}, nullptr,
                      [&](util::HourIndex, std::span<const double> l) {
                        loads.assign(l.begin(), l.end());
                      });
  std::uint32_t victim = 0;
  double best = 0.0;
  for (std::uint32_t l = 0; l < loads.size(); ++l) {
    const double cap =
        world.wan().link(util::LinkId{l}).CapacityBytesPerHour();
    if (cap <= 0.0) continue;
    if (loads[l] / cap > best) {
      best = loads[l] / cap;
      victim = l;
    }
  }
  ASSERT_GT(best, 0.0);
  for (std::size_t f = 0; f < world.workload().flows().size(); ++f) {
    for (const auto& share : world.ResolveFlow(f, start)) {
      if (share.link.value() == victim) {
        world.mutable_workload().ScaleFlow(f, 1.5 / best);
        break;
      }
    }
  }

  // Without CMS the victim stays hot for the whole window; with CMS the
  // withdrawal sheds load within a couple of hours.
  auto hot_hours = [&](bool with_cms) {
    world.ResetAdvertisements();
    cms::CmsConfig cms_cfg;
    cms::CongestionMitigationSystem cms(&world, experiment.tipsy.get(),
                                        cms_cfg);
    std::vector<pipeline::AggRow> hour_rows;
    std::size_t hot = 0;
    world.SimulateHours(
        {start, start + 8},
        [&](util::HourIndex, std::span<const pipeline::AggRow> rows) {
          hour_rows.assign(rows.begin(), rows.end());
        },
        [&](util::HourIndex hour, std::span<const double> l) {
          const double cap = world.wan()
                                 .link(util::LinkId{victim})
                                 .CapacityBytesPerHour();
          if (l[victim] / cap > 0.85) ++hot;
          if (with_cms) cms.ObserveHour(hour, l, hour_rows);
        });
    return hot;
  };
  const auto without = hot_hours(false);
  const auto with = hot_hours(true);
  ASSERT_GT(without, 0u) << "surge failed to congest the victim";
  EXPECT_LT(with, without);
}

TEST(EndToEnd, SuspiciousTrafficIsDetectable) {
  // The conclusion's spoofed-traffic use case: a flow claiming to be a
  // known source but arriving on a link where that source's traffic is
  // exceedingly unlikely sticks out against the model.
  auto cfg = scenario::TinyScenarioConfig();
  cfg.traffic.flow_target = 800;
  cfg.horizon = util::HourRange{0, 22 * util::kHoursPerDay};
  scenario::Scenario world(cfg);
  auto windows = scenario::PaperWindows();
  windows.test = util::HourRange{windows.train.end, windows.train.end + 1};
  const auto result = scenario::RunExperiment(world, windows);

  const auto* model = result.tipsy->Find("Hist_AP");
  const auto flow = world.FlowFeaturesOf(0);
  const auto predictions = core::PredictTopK(*model, flow, 8, nullptr);
  ASSERT_FALSE(predictions.empty());
  // Pick a link the model has never associated with this flow.
  std::uint32_t absurd = 0;
  for (std::uint32_t l = 0; l < world.wan().link_count(); ++l) {
    bool predicted = false;
    for (const auto& p : predictions) {
      if (p.link.value() == l) predicted = true;
    }
    if (!predicted) {
      absurd = l;
      break;
    }
  }
  double plausibility = 0.0;
  for (const auto& p : predictions) {
    if (p.link.value() == absurd) plausibility = p.probability;
  }
  EXPECT_EQ(plausibility, 0.0);
  EXPECT_GT(predictions.front().probability, 0.2);
}

}  // namespace
}  // namespace tipsy
