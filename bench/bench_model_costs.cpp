// Tables 3 and 11: training / prediction / memory costs of the models.
//
// google-benchmark microbenchmarks verify the complexity claims: O(n)
// single-pass training and O(1) lookup prediction for the historical
// models; O(l log l)-per-query prediction for Naive Bayes (scan + sort
// over all classes), which is why NB is orders of magnitude slower to
// query. Memory footprints are printed per model after training.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "core/historical.h"
#include "core/naive_bayes.h"
#include "util/rng.h"

using namespace tipsy;

namespace {

// Synthetic aggregated rows with realistic cardinalities.
std::vector<pipeline::AggRow> MakeRows(std::size_t n, std::size_t links,
                                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<pipeline::AggRow> rows;
  rows.reserve(n);
  const std::size_t asns = std::max<std::size_t>(64, n / 64);
  const std::size_t prefixes = std::max<std::size_t>(256, n / 4);
  for (std::size_t i = 0; i < n; ++i) {
    pipeline::AggRow row;
    row.hour = static_cast<util::HourIndex>(rng.NextBelow(24));
    row.link = util::LinkId{
        static_cast<std::uint32_t>(rng.NextBelow(links))};
    row.src_asn = util::AsId{
        static_cast<std::uint32_t>(100 + rng.NextBelow(asns))};
    row.src_prefix24 = util::Ipv4Prefix(
        util::Ipv4Addr(static_cast<std::uint32_t>(
            (1 + rng.NextBelow(prefixes)) << 8)),
        24);
    row.src_metro = util::MetroId{
        static_cast<std::uint32_t>(rng.NextBelow(60))};
    row.dest_region = util::RegionId{
        static_cast<std::uint32_t>(rng.NextBelow(28))};
    row.dest_service = static_cast<wan::ServiceType>(rng.NextBelow(8));
    row.dest_prefix = util::PrefixId{
        static_cast<std::uint32_t>(rng.NextBelow(48))};
    row.bytes = 1000 + rng.NextBelow(1'000'000);
    rows.push_back(row);
  }
  return rows;
}

core::FlowFeatures FlowOf(const pipeline::AggRow& row) {
  return core::FlowFeatures{row.src_asn, row.src_prefix24, row.src_metro,
                            row.dest_region, row.dest_service};
}

void BM_HistoricalTrain(benchmark::State& state) {
  const auto feature_set = static_cast<core::FeatureSet>(state.range(0));
  const auto rows = MakeRows(static_cast<std::size_t>(state.range(1)),
                             /*links=*/1000, 7);
  for (auto _ : state) {
    core::HistoricalModel model(feature_set);
    for (const auto& row : rows) model.Add(row);
    model.Finalize();
    benchmark::DoNotOptimize(model.tuple_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rows.size()) *
                          state.iterations());
}

void BM_HistoricalPredict(benchmark::State& state) {
  const auto feature_set = static_cast<core::FeatureSet>(state.range(0));
  const auto rows = MakeRows(1 << 16, /*links=*/1000, 7);
  core::HistoricalModel model(feature_set);
  for (const auto& row : rows) model.Add(row);
  model.Finalize();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto predictions =
        core::PredictTopK(model, FlowOf(rows[i]), 3, nullptr);
    benchmark::DoNotOptimize(predictions.data());
    i = (i + 4099) % rows.size();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_NaiveBayesTrain(benchmark::State& state) {
  const auto feature_set = static_cast<core::FeatureSet>(state.range(0));
  const auto rows = MakeRows(static_cast<std::size_t>(state.range(1)),
                             /*links=*/1000, 7);
  for (auto _ : state) {
    core::NaiveBayesModel model(feature_set);
    for (const auto& row : rows) model.Add(row);
    model.Finalize();
    benchmark::DoNotOptimize(model.class_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rows.size()) *
                          state.iterations());
}

// Prediction cost scales with the number of classes (peering links).
void BM_NaiveBayesPredict(benchmark::State& state) {
  const auto links = static_cast<std::size_t>(state.range(0));
  const auto rows = MakeRows(1 << 15, links, 7);
  core::NaiveBayesModel model(core::FeatureSet::kAL);
  for (const auto& row : rows) model.Add(row);
  model.Finalize();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto predictions =
        core::PredictTopK(model, FlowOf(rows[i]), 3, nullptr);
    benchmark::DoNotOptimize(predictions.data());
    i = (i + 4099) % rows.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["classes"] = static_cast<double>(model.class_count());
}

void PrintModelSizes() {
  const auto rows = MakeRows(1 << 17, 1000, 7);
  std::cout << "\nModel memory footprints after training on "
            << rows.size() << " rows (Table 3 / Table 11 shapes):\n";
  for (const auto feature_set :
       {core::FeatureSet::kA, core::FeatureSet::kAP, core::FeatureSet::kAL}) {
    core::HistoricalModel model(feature_set);
    for (const auto& row : rows) model.Add(row);
    model.Finalize();
    std::cout << "  " << model.name() << ": " << model.tuple_count()
              << " tuples, ~" << model.MemoryFootprintBytes() / 1024
              << " KiB\n";
  }
  for (const auto feature_set : {core::FeatureSet::kA, core::FeatureSet::kAL}) {
    core::NaiveBayesModel model(feature_set);
    for (const auto& row : rows) model.Add(row);
    model.Finalize();
    std::cout << "  " << model.name() << ": " << model.class_count()
              << " classes, ~" << model.MemoryFootprintBytes() / 1024
              << " KiB\n";
  }
}

}  // namespace

BENCHMARK(BM_HistoricalTrain)
    ->ArgsProduct({{0, 1, 2}, {1 << 14, 1 << 16}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HistoricalPredict)->Args({0})->Args({1})->Args({2});
BENCHMARK(BM_NaiveBayesTrain)
    ->ArgsProduct({{0, 2}, {1 << 14, 1 << 16}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NaiveBayesPredict)
    ->Arg(125)->Arg(250)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  PrintModelSizes();
  return 0;
}
