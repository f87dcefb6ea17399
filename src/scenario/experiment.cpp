#include "scenario/experiment.h"

#include <cassert>
#include <unordered_map>

namespace tipsy::scenario {

ExperimentConfig PaperWindows(util::HourIndex start_hour) {
  ExperimentConfig cfg;
  cfg.train = util::HourRange{start_hour,
                              start_hour + 21 * util::kHoursPerDay};
  cfg.test = util::HourRange{cfg.train.end,
                             cfg.train.end + 7 * util::kHoursPerDay};
  return cfg;
}

ExperimentResult RunExperiment(RowSource& source,
                               const ExperimentConfig& config) {
  ExperimentResult result;
  result.tipsy = std::make_unique<core::TipsyService>(
      &source.wan(), &source.metros(), config.tipsy);

  // Pre-size the model and evaluation hash tables when the source can
  // estimate its volume (RowCache knows exactly, Scenario from its
  // aggregation stats). Most flows recur hourly, so the per-hour row
  // count approximates the distinct-tuple count; 2x covers churn.
  const auto hours_of = [](util::HourRange r) {
    return r.end > r.begin ? static_cast<std::size_t>(r.end - r.begin)
                           : std::size_t{1};
  };
  const std::size_t train_rows = source.EstimatedRows(config.train);
  if (train_rows > 0) {
    result.tipsy->ReserveTuples(2 * train_rows / hours_of(config.train));
  }
  const std::size_t test_rows = source.EstimatedRows(config.test);
  if (test_rows > 0) {
    result.overall.Reserve(2 * test_rows / hours_of(config.test));
  }

  // --- Training pass: stream rows into the models and the link-hour
  // table used for outage inference.
  pipeline::LinkHourTable train_table(source.wan().link_count());
  source.StreamHours(
      config.train,
      [&](util::HourIndex hour, std::span<const pipeline::AggRow> rows) {
        result.tipsy->Train(rows);
        for (const auto& row : rows) {
          train_table.AddBytes(row.link, hour,
                               static_cast<double>(row.bytes));
        }
      });
  result.tipsy->FinalizeTraining();
  result.train_outages =
      pipeline::InferOutages(train_table, config.train,
                             config.outage_inference);
  const auto seen_in_training = pipeline::LinksWithOutage(
      result.train_outages, source.wan().link_count(), config.train);

  // --- Reference for the "top-1 training link" criterion.
  const core::Model* reference = result.tipsy->Find("Hist_AP");
  assert(reference != nullptr);
  std::unordered_map<core::FlowFeatures, util::LinkId,
                     core::FlowFeaturesHash>
      top1_cache;
  auto top1_of = [&](const core::FlowFeatures& flow) {
    auto [it, inserted] = top1_cache.try_emplace(flow, util::LinkId{});
    if (inserted) {
      core::Prediction top1;
      if (reference->PredictInto(flow, 1, nullptr, {&top1, 1}) == 1) {
        it->second = top1.link;
      }
    }
    return it->second;
  };

  // --- Test pass: route every observation to the right eval set(s).
  pipeline::LinkHourTable test_table(source.wan().link_count());
  std::unordered_map<util::HourIndex, std::uint32_t> hour_mask;
  source.StreamHours(
      config.test,
      [&](util::HourIndex hour, std::span<const pipeline::AggRow> rows) {
        // Exclusion mask for this hour: the links currently down.
        auto mask_it = hour_mask.find(hour);
        if (mask_it == hour_mask.end()) {
          const auto down = source.outages().DownMask(hour);
          const std::uint32_t id = result.outage_all.InternMask(down);
          // Seen/unseen sets intern the same mask to keep ids aligned.
          result.outage_seen.InternMask(down);
          result.outage_unseen.InternMask(down);
          mask_it = hour_mask.emplace(hour, id).first;
        }
        for (const auto& row : rows) {
          test_table.AddBytes(row.link, hour,
                              static_cast<double>(row.bytes));
          const core::FlowFeatures flow{row.src_asn, row.src_prefix24,
                                        row.src_metro, row.dest_region,
                                        row.dest_service};
          const auto bytes = static_cast<double>(row.bytes);
          result.overall.AddObservation(flow, row.link, bytes, 0);
          const util::LinkId top1 = top1_of(flow);
          if (!top1.valid() ||
              !source.outages().IsDown(top1, hour)) {
            continue;
          }
          const std::uint32_t mask_id = mask_it->second;
          result.outage_all.AddObservation(flow, row.link, bytes, mask_id);
          if (seen_in_training[top1.value()]) {
            result.outage_seen.AddObservation(flow, row.link, bytes,
                                              mask_id);
            result.seen_outage_bytes += bytes;
          } else {
            result.outage_unseen.AddObservation(flow, row.link, bytes,
                                                mask_id);
            result.unseen_outage_bytes += bytes;
          }
        }
      });
  result.test_outages = pipeline::InferOutages(test_table, config.test,
                                               config.outage_inference);
  result.overall.Finalize();
  result.outage_all.Finalize();
  result.outage_seen.Finalize();
  result.outage_unseen.Finalize();
  return result;
}

std::vector<ModelAccuracy> EvaluateSuite(const core::TipsyService& tipsy,
                                         const core::EvalSet& eval) {
  std::vector<ModelAccuracy> out;
  const auto add_oracle = [&](core::FeatureSet fs) {
    const auto oracle = core::BuildOracle(fs, eval);
    out.push_back(ModelAccuracy{
        std::string("Oracle_") + core::ToString(fs),
        core::EvaluateModel(oracle, eval)});
  };
  const auto add_model = [&](const char* name) {
    const core::Model* model = tipsy.Find(name);
    if (model != nullptr) {
      out.push_back(
          ModelAccuracy{model->name(), core::EvaluateModel(*model, eval)});
    }
  };
  add_oracle(core::FeatureSet::kA);
  add_model("Hist_A");
  add_model("NB_A");
  add_oracle(core::FeatureSet::kAP);
  add_model("Hist_AP");
  add_oracle(core::FeatureSet::kAL);
  add_model("Hist_AL");
  add_model("NB_AL");
  add_model("Hist_AL/NB_AL");
  add_model("Hist_AL+G");
  add_model("Hist_AP/AL/A");
  add_model("Hist_AL/AP/A");
  return out;
}

}  // namespace tipsy::scenario
