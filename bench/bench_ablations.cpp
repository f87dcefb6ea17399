// Ablations of the design choices DESIGN.md calls out:
//
//  1. Byte-weighted vs unweighted training samples (§3.3 lists four
//     reasons to weight by volume).
//  2. /24 vs /16 source-prefix aggregation (§3.2's resolution vs feature
//     space trade-off).
//  3. Hot-potato geography in the substrate on vs off - does geography
//     carry the signal Hist_AL+G exploits?
//  4. IPFIX sampling rate 1/4096 vs 1/256 vs unsampled (§4.1).
#include <iostream>

#include "bench_common.h"
#include "core/evaluator.h"
#include "core/historical.h"
#include "scenario/row_cache.h"

using namespace tipsy;

namespace {

// Train a standalone Hist_AP-style model with a row transformation
// applied, and evaluate it on the experiment's eval sets.
template <typename Transform>
core::AccuracyResult TrainAndScore(scenario::RowSource& source,
                                   const scenario::ExperimentConfig& cfg,
                                   const core::EvalSet& eval,
                                   core::FeatureSet fs, bool weighted,
                                   Transform&& transform) {
  core::HistoricalModel model(fs, 16, weighted);
  source.StreamHours(cfg.train, [&](util::HourIndex,
                                    std::span<const pipeline::AggRow> rows) {
    for (pipeline::AggRow row : rows) {
      transform(row);
      model.Add(row);
    }
  });
  model.Finalize();
  return core::EvaluateModel(model, eval);
}

std::string Fmt(const core::AccuracyResult& a) {
  return util::TextTable::Percent(a.top1()) + " / " +
         util::TextTable::Percent(a.top2()) + " / " +
         util::TextTable::Percent(a.top3());
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::BenchOptions::Parse(argc, argv);
  bench::PrintHeader("ablations", "design-choice ablations");
  std::vector<std::vector<std::string>> csv{
      {"ablation", "variant", "subset", "top1", "top2", "top3"}};

  const auto windows = scenario::PaperWindows();

  // --- Ablations 1 & 2 share one world.
  {
    auto cfg = bench::SweepScenario(options);
    scenario::Scenario world(cfg);
    scenario::RowCache cache(world, cfg.horizon);
    const auto experiment = scenario::RunExperiment(cache, windows);
    auto identity = [](pipeline::AggRow&) {};
    // Blur the /24 feature to /16 granularity (keep the nominal /24
    // length so the AP feature set still applies). Must be applied to
    // both training rows and query flows.
    auto blur16 = [](util::Ipv4Prefix p) {
      return util::Ipv4Prefix(
          util::Ipv4Addr(p.address().bits() & 0xffff0000u), 24);
    };
    auto to16 = [&](pipeline::AggRow& row) {
      row.src_prefix24 = blur16(row.src_prefix24);
    };
    // Adapter so a /16-trained model sees /16-blurred queries too.
    struct BlurredModel : core::Model {
      const core::Model* base;
      explicit BlurredModel(const core::Model* b) : base(b) {}
      std::size_t PredictInto(const core::FlowFeatures& flow, std::size_t k,
                              const core::ExclusionMask* excluded,
                              std::span<core::Prediction> out) const override {
        core::FlowFeatures blurred = flow;
        blurred.src_prefix24 = util::Ipv4Prefix(
            util::Ipv4Addr(flow.src_prefix24.address().bits() &
                           0xffff0000u),
            24);
        return base->PredictInto(blurred, k, excluded, out);
      }
      std::string name() const override { return base->name() + "/16"; }
      std::size_t MemoryFootprintBytes() const override {
        return base->MemoryFootprintBytes();
      }
    };

    util::TextTable table({"Ablation", "Variant",
                           "Overall top1/2/3 %", "Outage top1/2/3 %"});
    auto add = [&](const std::string& ablation, const std::string& variant,
                   const core::AccuracyResult& overall,
                   const core::AccuracyResult& outages) {
      table.AddRow({ablation, variant, Fmt(overall), Fmt(outages)});
      csv.push_back({ablation, variant, "overall",
                     util::TextTable::Percent(overall.top1()),
                     util::TextTable::Percent(overall.top2()),
                     util::TextTable::Percent(overall.top3())});
      csv.push_back({ablation, variant, "outages",
                     util::TextTable::Percent(outages.top1()),
                     util::TextTable::Percent(outages.top2()),
                     util::TextTable::Percent(outages.top3())});
    };

    add("sample weighting", "byte-weighted (paper)",
        TrainAndScore(cache, windows, experiment.overall,
                      core::FeatureSet::kAP, true, identity),
        TrainAndScore(cache, windows, experiment.outage_all,
                      core::FeatureSet::kAP, true, identity));
    add("sample weighting", "unweighted",
        TrainAndScore(cache, windows, experiment.overall,
                      core::FeatureSet::kAP, false, identity),
        TrainAndScore(cache, windows, experiment.outage_all,
                      core::FeatureSet::kAP, false, identity));
    add("prefix aggregation", "/24 (paper)",
        TrainAndScore(cache, windows, experiment.overall,
                      core::FeatureSet::kAP, true, identity),
        TrainAndScore(cache, windows, experiment.outage_all,
                      core::FeatureSet::kAP, true, identity));
    {
      core::HistoricalModel model16(core::FeatureSet::kAP, 16, true);
      cache.StreamHours(windows.train,
                        [&](util::HourIndex,
                            std::span<const pipeline::AggRow> rows) {
                          for (pipeline::AggRow row : rows) {
                            to16(row);
                            model16.Add(row);
                          }
                        });
      model16.Finalize();
      const BlurredModel blurred(&model16);
      add("prefix aggregation", "/16",
          core::EvaluateModel(blurred, experiment.overall),
          core::EvaluateModel(blurred, experiment.outage_all));
    }
    table.Print(std::cout);
  }

  // --- Ablation 3: hot-potato routing on/off; compare AL+G's edge over
  // AL on outage-affected traffic.
  {
    util::TextTable table({"Substrate", "Model", "Outage top1/2/3 %"});
    for (const bool hot_potato : {true, false}) {
      auto cfg = bench::SweepScenario(options);
      cfg.resolve.hot_potato = hot_potato;
      scenario::Scenario world(cfg);
      const auto experiment = scenario::RunExperiment(world, windows);
      for (const char* name : {"Hist_AL", "Hist_AL+G"}) {
        const auto* model = experiment.tipsy->Find(name);
        const auto accuracy =
            experiment.outage_all.empty()
                ? core::AccuracyResult{}
                : core::EvaluateModel(*model, experiment.outage_all);
        table.AddRow({hot_potato ? "hot-potato (real)" : "random egress",
                      name, Fmt(accuracy)});
        csv.push_back({"hot-potato",
                       std::string(hot_potato ? "on" : "off") + ":" + name,
                       "outages", util::TextTable::Percent(accuracy.top1()),
                       util::TextTable::Percent(accuracy.top2()),
                       util::TextTable::Percent(accuracy.top3())});
      }
    }
    table.Print(std::cout);
    std::cout << "(expected: under hot-potato, +G ranks the same-peer "
                 "alternates in the right geographic order; under random "
                 "egress the ordering carries no signal beyond the "
                 "same-peer prior)\n";
  }

  // --- Ablation 4: IPFIX sampling rate.
  {
    // Our flow aggregates are ~1000x larger than real per-/24 flows (20k
    // aggregates stand in for millions), so the sampling rates are
    // rescaled by that factor to put the detectability threshold in the
    // same place relative to the flow size distribution.
    util::TextTable table(
        {"Sampling (rescaled)", "Hist_AP overall top1/2/3 %", "rows/hour"});
    for (const std::uint32_t rate : {4096u, 1u << 22, 1u << 26}) {
      auto cfg = bench::SweepScenario(options);
      cfg.ipfix.sampling_rate = rate;
      scenario::Scenario world(cfg);
      const auto experiment = scenario::RunExperiment(world, windows);
      const auto* model = experiment.tipsy->Find("Hist_AP");
      const auto accuracy =
          core::EvaluateModel(*model, experiment.overall);
      const auto stats = world.aggregate_stats();
      const auto hours =
          static_cast<double>(windows.train.length() +
                              windows.test.length());
      table.AddRow({"1/" + std::to_string(rate), Fmt(accuracy),
                    util::TextTable::Fixed(
                        static_cast<double>(stats.aggregated_rows) / hours,
                        0)});
      csv.push_back({"sampling", "1/" + std::to_string(rate), "overall",
                     util::TextTable::Percent(accuracy.top1()),
                     util::TextTable::Percent(accuracy.top2()),
                     util::TextTable::Percent(accuracy.top3())});
    }
    table.Print(std::cout);
    std::cout << "(expected: finer sampling mostly recovers small flows; "
                 "top-3 accuracy changes modestly)\n";
  }

  // --- Ablation 5: Geo-IP imprecision (Poese et al. [31]): how much does
  // a noisy geolocation database hurt the AL models?
  {
    util::TextTable table({"Geo-IP error rate",
                           "Hist_AL overall top1/2/3 %",
                           "Hist_AL+G outage top1/2/3 %"});
    for (const double error : {0.0, 0.1, 0.3}) {
      auto cfg = bench::SweepScenario(options);
      cfg.geoip_error_rate = error;
      scenario::Scenario world(cfg);
      const auto experiment = scenario::RunExperiment(world, windows);
      const auto overall = core::EvaluateModel(
          *experiment.tipsy->Find("Hist_AL"), experiment.overall);
      const auto outage =
          experiment.outage_all.empty()
              ? core::AccuracyResult{}
              : core::EvaluateModel(*experiment.tipsy->Find("Hist_AL+G"),
                                    experiment.outage_all);
      table.AddRow({util::TextTable::Percent(error, 0) + "%", Fmt(overall),
                    Fmt(outage)});
      csv.push_back({"geoip-noise", util::TextTable::Percent(error, 0),
                     "overall", util::TextTable::Percent(overall.top1()),
                     util::TextTable::Percent(overall.top2()),
                     util::TextTable::Percent(overall.top3())});
    }
    table.Print(std::cout);
    std::cout << "(paper §5.3.1: metro-level precision suffices; moderate "
                 "imprecision should degrade AL only mildly)\n";
  }

  // --- Ablation 6: residual collector loss (telemetry robustness).
  {
    util::TextTable table(
        {"Collector loss", "Hist_AP overall top1/2/3 %"});
    for (const double loss : {0.0, 0.25, 0.5}) {
      auto cfg = bench::SweepScenario(options);
      cfg.collector_loss_rate = loss;
      scenario::Scenario world(cfg);
      const auto experiment = scenario::RunExperiment(world, windows);
      const auto overall = core::EvaluateModel(
          *experiment.tipsy->Find("Hist_AP"), experiment.overall);
      table.AddRow(
          {util::TextTable::Percent(loss, 0) + "%", Fmt(overall)});
      csv.push_back({"collector-loss", util::TextTable::Percent(loss, 0),
                     "overall", util::TextTable::Percent(overall.top1()),
                     util::TextTable::Percent(overall.top2()),
                     util::TextTable::Percent(overall.top3())});
    }
    table.Print(std::cout);
    std::cout << "(byte-weighted training is dominated by big flows, so "
                 "uniform record loss barely moves accuracy)\n";
  }

  bench::WriteCsv("ablations", csv);
  return 0;
}
