// Tests for the observability layer: histogram arithmetic against known
// distributions, order-independent registry merges, the metrics digest's
// class boundaries (gauges excluded), and — the property the whole design
// exists for — bit-identical metric registries between the sequential
// campaign and the engine at any worker count, on bare-platform AND
// hypervisor scenarios.  Also: the Chrome trace_event document is valid
// JSON with the expected structure.
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

#include "casestudy/campaign.hpp"
#include "cli/json_reader.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace {

using namespace proxima;
using obs::Histogram;
using obs::MetricsSnapshot;

// ---------------------------------------------------------------------------
// Histogram: buckets, recording, merging.
// ---------------------------------------------------------------------------

TEST(Histogram, BucketOfIsBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(255), 8u);
  EXPECT_EQ(Histogram::bucket_of(256), 9u);
  EXPECT_EQ(Histogram::bucket_of(std::uint64_t{1} << 63), 64u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
  static_assert(Histogram::kBuckets == 65,
                "one bucket per bit width 0..64 inclusive");
}

TEST(Histogram, KnownDistribution) {
  // Values 0..15: one 0-bit value, one 1-bit, two 2-bit, four 3-bit,
  // eight 4-bit.
  Histogram histogram;
  for (std::uint64_t value = 0; value < 16; ++value) {
    histogram.record(value);
  }
  EXPECT_EQ(histogram.count, 16u);
  EXPECT_EQ(histogram.sum, 120u);
  EXPECT_EQ(histogram.min, 0u);
  EXPECT_EQ(histogram.max, 15u);
  EXPECT_DOUBLE_EQ(histogram.mean(), 7.5);
  EXPECT_EQ(histogram.buckets[0], 1u);
  EXPECT_EQ(histogram.buckets[1], 1u);
  EXPECT_EQ(histogram.buckets[2], 2u);
  EXPECT_EQ(histogram.buckets[3], 4u);
  EXPECT_EQ(histogram.buckets[4], 8u);
  for (std::size_t bit = 5; bit < Histogram::kBuckets; ++bit) {
    EXPECT_EQ(histogram.buckets[bit], 0u) << "bucket " << bit;
  }
}

TEST(Histogram, MergeMatchesSequentialRecording) {
  Histogram evens;
  Histogram odds;
  Histogram all;
  for (std::uint64_t value = 0; value < 1000; ++value) {
    ((value % 2 == 0) ? evens : odds).record(value * value);
    all.record(value * value);
  }
  Histogram merged = evens;
  merged.merge_from(odds);
  EXPECT_EQ(merged, all) << "merge must equal single-threaded recording";

  // Merging an empty histogram is the identity (min stays untouched).
  Histogram empty;
  Histogram copy = all;
  copy.merge_from(empty);
  EXPECT_EQ(copy, all);
}

// ---------------------------------------------------------------------------
// Registry merge and digest.
// ---------------------------------------------------------------------------

MetricsSnapshot shard(std::uint64_t salt) {
  MetricsSnapshot snapshot;
  snapshot.add("runs", 3 + salt);
  snapshot.add("vm.mix.Add", 100 * (salt + 1));
  snapshot.record("time.uoa_cycles", 1000 + salt);
  snapshot.record("time.uoa_cycles", 5000 * (salt + 1));
  snapshot.add_gauge("dsr.lines_invalidated", static_cast<double>(salt));
  return snapshot;
}

TEST(MetricsSnapshot, MergeIsOrderIndependent) {
  const MetricsSnapshot a = shard(0);
  const MetricsSnapshot b = shard(1);
  const MetricsSnapshot c = shard(2);

  MetricsSnapshot abc;
  abc.merge_from(a);
  abc.merge_from(b);
  abc.merge_from(c);
  MetricsSnapshot cba;
  cba.merge_from(c);
  cba.merge_from(b);
  cba.merge_from(a);

  EXPECT_EQ(abc, cba);
  EXPECT_EQ(obs::metrics_digest(abc), obs::metrics_digest(cba));
  EXPECT_EQ(abc.counters.at("runs"), 3u + 4u + 5u);
  EXPECT_EQ(abc.histograms.at("time.uoa_cycles").count, 6u);
}

TEST(MetricsDigest, SensitiveToNamesAndValues) {
  MetricsSnapshot base;
  base.add("runs", 10);
  base.record("time.uoa_cycles", 42);
  const std::uint64_t digest = obs::metrics_digest(base);

  MetricsSnapshot renamed;
  renamed.add("runz", 10);
  renamed.record("time.uoa_cycles", 42);
  EXPECT_NE(obs::metrics_digest(renamed), digest) << "name must be folded";

  MetricsSnapshot bumped = base;
  bumped.add("runs", 1);
  EXPECT_NE(obs::metrics_digest(bumped), digest) << "value must be folded";

  MetricsSnapshot with_series = base;
  const std::vector<double> estimates{1.0, 2.0};
  with_series.set_series("engine.pwcet_estimates", estimates);
  EXPECT_NE(obs::metrics_digest(with_series), digest)
      << "series must be folded";
}

TEST(MetricsDigest, GaugesAreExcluded) {
  MetricsSnapshot base;
  base.add("runs", 10);
  const std::uint64_t digest = obs::metrics_digest(base);

  MetricsSnapshot with_gauges = base;
  with_gauges.set_gauge("engine.wall_seconds", 12.5);
  with_gauges.add_gauge("vm.decode.decodes", 1e6);
  EXPECT_EQ(obs::metrics_digest(with_gauges), digest)
      << "wall-clock/platform-local gauges must never move the digest";
  EXPECT_EQ(obs::metrics_digest_hex(with_gauges),
            obs::metrics_digest_hex(base));
}

TEST(MetricsSnapshot, EmptyAndHexRendering) {
  MetricsSnapshot empty;
  EXPECT_TRUE(empty.empty());
  const std::string hex = obs::metrics_digest_hex(empty);
  EXPECT_EQ(hex.size(), 18u);
  EXPECT_EQ(hex.substr(0, 2), "0x");
}

// ---------------------------------------------------------------------------
// Cross-worker-count determinism on real campaigns.
// ---------------------------------------------------------------------------

casestudy::CampaignConfig metrics_config(const std::string& scenario,
                                         std::uint64_t runs) {
  casestudy::CampaignConfig config =
      exec::ScenarioRegistry::global().at(scenario).make_config(runs);
  config.collect_metrics = true;
  return config;
}

MetricsSnapshot engine_metrics(const casestudy::CampaignConfig& config,
                               unsigned workers) {
  exec::EngineOptions options;
  options.workers = workers;
  const exec::CampaignEngine engine(options);
  return engine.run(config).metrics;
}

// The counters/histograms/series of the merged registry must be
// bit-identical between one worker (the sequential, in-order campaign) and
// eight, on bare-platform and hypervisor scenarios alike.
// Gauges (wall clock, decode-cache activity) are allowed to differ and are
// excluded from the digest, so the digest comparison is exact.
TEST(MetricsDeterminism, RegistryIdenticalAcrossWorkerCounts) {
  const struct {
    const char* scenario;
    std::uint64_t runs;
  } cases[] = {
      {"control/operation-dsr", 10},
      {"image/operation-cots", 6},
      {"hv/control+image", 6},
  };
  for (const auto& test_case : cases) {
    SCOPED_TRACE(test_case.scenario);
    const casestudy::CampaignConfig config =
        metrics_config(test_case.scenario, test_case.runs);
    const MetricsSnapshot w1 = engine_metrics(config, 1);
    const MetricsSnapshot w8 = engine_metrics(config, 8);

    EXPECT_EQ(w1.counters, w8.counters);
    EXPECT_EQ(w1.histograms, w8.histograms);
    EXPECT_EQ(w1.series, w8.series);
    EXPECT_EQ(obs::metrics_digest_hex(w1), obs::metrics_digest_hex(w8));

    // The registry is not trivially empty: every run contributes.
    EXPECT_EQ(w1.counters.at("runs"), test_case.runs);
    EXPECT_EQ(w1.histograms.at("time.uoa_cycles").count, test_case.runs);
  }
}

TEST(MetricsDeterminism, HvRegistryCarriesPartitionMetrics) {
  const casestudy::CampaignConfig config =
      metrics_config("hv/control+image", 4);
  const MetricsSnapshot metrics = engine_metrics(config, 4);
  bool saw_partition_counter = false;
  for (const auto& [name, value] : metrics.counters) {
    if (name.rfind("hv.", 0) == 0 &&
        name.find(".activations") != std::string::npos) {
      saw_partition_counter = value > 0;
      if (saw_partition_counter) {
        break;
      }
    }
  }
  EXPECT_TRUE(saw_partition_counter)
      << "hv scenarios must publish per-partition activation counters";
  bool saw_occupancy = false;
  for (const auto& [name, histogram] : metrics.histograms) {
    if (name.rfind("hv.", 0) == 0 &&
        name.find("frame_occupancy_pct") != std::string::npos) {
      saw_occupancy = histogram.count > 0;
    }
  }
  EXPECT_TRUE(saw_occupancy) << "hv frame occupancy histogram missing";
}

TEST(MetricsDeterminism, CollectionOffLeavesRegistryEmpty) {
  casestudy::CampaignConfig config =
      exec::ScenarioRegistry::global()
          .at("control/operation-cots")
          .make_config(4);
  ASSERT_FALSE(config.collect_metrics) << "metrics must be opt-in";
  EXPECT_TRUE(engine_metrics(config, 1).empty());
}

// ---------------------------------------------------------------------------
// Timeline: well-formed Chrome trace_event JSON.
// ---------------------------------------------------------------------------

TEST(Timeline, WritesWellFormedTraceEventJson) {
  obs::Timeline timeline;
  timeline.record("engine", "worker-0", "run 0", 10.0, 5.0);
  timeline.record("engine", "worker-1", "run 1", 12.0, 4.0);
  // Hostile span name: quotes, backslash, control character.
  timeline.record("partitions", "image-guest", "run \"0\" \\ frame\t1", 0.0,
                  100.0);
  EXPECT_EQ(timeline.size(), 3u);

  std::ostringstream out;
  timeline.write_json(out);
  cli::JsonValue document;
  ASSERT_NO_THROW(document = cli::JsonValue::parse(out.str()))
      << out.str();

  const cli::JsonValue* events = document.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t metadata = 0;
  std::size_t spans = 0;
  for (const cli::JsonValue& event : events->array) {
    const cli::JsonValue* ph = event.get("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    if (ph->string == "M") {
      ++metadata;
      const cli::JsonValue* name = event.get("name");
      ASSERT_NE(name, nullptr);
      EXPECT_TRUE(name->string == "process_name" ||
                  name->string == "thread_name");
    } else {
      EXPECT_EQ(ph->string, "X") << "only complete events are emitted";
      ++spans;
      EXPECT_NE(event.get("ts"), nullptr);
      EXPECT_NE(event.get("dur"), nullptr);
      EXPECT_NE(event.get("pid"), nullptr);
      EXPECT_NE(event.get("tid"), nullptr);
    }
  }
  EXPECT_EQ(spans, 3u);
  // Two processes and three threads, each named once.
  EXPECT_EQ(metadata, 2u + 3u);
}

TEST(Timeline, EngineProducesSpansForWorkersAndPartitions) {
  obs::Timeline timeline;
  casestudy::CampaignConfig config = metrics_config("hv/control+image", 3);
  config.timeline = &timeline;
  exec::EngineOptions options;
  options.workers = 2;
  const exec::CampaignEngine engine(options);
  (void)engine.run(config);
  EXPECT_GT(timeline.size(), 0u);

  std::ostringstream out;
  timeline.write_json(out);
  cli::JsonValue document;
  ASSERT_NO_THROW(document = cli::JsonValue::parse(out.str()));
  const cli::JsonValue* events = document.get("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_engine = false;
  bool saw_partitions = false;
  for (const cli::JsonValue& event : events->array) {
    const cli::JsonValue* ph = event.get("ph");
    const cli::JsonValue* args = event.get("args");
    if (!ph || ph->string != "M" || !args) {
      continue;
    }
    if (const cli::JsonValue* name = args->get("name")) {
      saw_engine = saw_engine || name->string == "engine";
      saw_partitions = saw_partitions || name->string == "partitions";
    }
  }
  EXPECT_TRUE(saw_engine) << "worker spans must name the engine process";
  EXPECT_TRUE(saw_partitions) << "hv frames must land on their own process";
}

} // namespace
