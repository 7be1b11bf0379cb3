// Tests for the scenario registry: the named-workload catalogue that
// campaigns, benches and examples enumerate instead of hand-rolling
// configurations.
#include "cli/options.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace {

using namespace proxima;
using casestudy::CampaignConfig;
using casestudy::Layout;
using casestudy::PrngKind;
using casestudy::Randomisation;

// The registry is non-movable (internal mutex); tests build their own in
// place via this fixture.
class FreshRegistry {
public:
  FreshRegistry() { exec::register_default_scenarios(registry_); }
  exec::ScenarioRegistry& get() { return registry_; }

private:
  exec::ScenarioRegistry registry_;
};

TEST(ScenarioRegistry, DefaultCatalogue) {
  FreshRegistry fixture;
  const exec::ScenarioRegistry& registry = fixture.get();
  // Operation + analysis for every randomisation technology, plus the
  // layout / PRNG / offset / relocation-scheme sweeps, the stress
  // scenario, the hypervisor (partition-interference) family, the
  // image-task measured family, and the address-leak family.
  EXPECT_EQ(registry.size(), 32u);
  for (const char* name :
       {"control/operation-cots", "control/operation-dsr",
        "control/operation-static", "control/operation-hwrand",
        "control/analysis-cots", "control/analysis-dsr",
        "control/analysis-static", "control/analysis-hwrand",
        "control/layout-neutral", "control/prng-lfsr", "control/offset-l1",
        "control/dsr-lazy", "control/stress-corrupt", "hv/control-solo",
        "hv/control+image", "hv/control+image-dsr", "hv/control+stress",
        "hv/image+control", "hv/image+control-dsr", "image/operation-cots",
        "image/operation-dsr", "image/operation-hwrand",
        "image/analysis-cots", "image/analysis-dsr",
        "image/analysis-hwrand", "leak/beacon-dsr", "leak/hardened-dsr",
        "leak/beacon-cots", "leak/observer-hv", "control/dsr-ondemand",
        "hv/control+image-ondemand", "leak/beacon-ondemand"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
}

TEST(ScenarioRegistry, ArmSuffixesParseAsTheCliRandomisationNames) {
  // The control and image families name each randomisation arm by a
  // suffix; it must be the CLI's `--randomisation` spelling of the arm
  // the scenario runs, so the two tables cannot drift apart.
  FreshRegistry fixture;
  const exec::ScenarioRegistry& registry = fixture.get();
  std::size_t checked = 0;
  for (const char* family : {"control/operation-", "control/analysis-",
                             "image/operation-", "image/analysis-"}) {
    for (const std::string& name : registry.names(family)) {
      const std::string_view suffix =
          std::string_view(name).substr(std::string_view(family).size());
      EXPECT_EQ(cli::parse_enum(cli::kRandomisationNames, "suffix", suffix),
                registry.at(name).make_config(1).randomisation)
          << name;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 14u);
}

TEST(ScenarioRegistry, NamesAreSortedAndPrefixFiltered) {
  FreshRegistry fixture;
  const exec::ScenarioRegistry& registry = fixture.get();
  const std::vector<std::string> all = registry.names();
  EXPECT_EQ(all.size(), registry.size());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));

  const std::vector<std::string> analysis =
      registry.names("control/analysis-");
  EXPECT_EQ(analysis.size(), 4u);
  for (const std::string& name : analysis) {
    EXPECT_EQ(name.rfind("control/analysis-", 0), 0u) << name;
  }
}

TEST(ScenarioRegistry, LookupSemantics) {
  FreshRegistry fixture;
  const exec::ScenarioRegistry& registry = fixture.get();
  EXPECT_NE(registry.find("control/operation-dsr"), nullptr);
  EXPECT_EQ(registry.find("control/no-such"), nullptr);
  EXPECT_FALSE(registry.contains("control/no-such"));

  const exec::Scenario& scenario = registry.at("control/operation-dsr");
  EXPECT_EQ(scenario.name, "control/operation-dsr");
  EXPECT_FALSE(scenario.description.empty());

  try {
    registry.at("control/tpyo");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("control/tpyo"), std::string::npos);
    EXPECT_NE(what.find("control/operation-dsr"), std::string::npos)
        << "the error must list the known names";
    EXPECT_NE(what.find("families:"), std::string::npos)
        << "the error must name the registered families";
    EXPECT_NE(what.find("control/(14)"), std::string::npos);
    EXPECT_NE(what.find("image/(6)"), std::string::npos);
  }
}

TEST(ScenarioRegistry, UnknownNameSuggestsClosestMatches) {
  FreshRegistry fixture;
  const exec::ScenarioRegistry& registry = fixture.get();
  // A near-miss typo gets "did you mean" suggestions, nearest first.
  try {
    registry.at("hv/control+imge");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& error) {
    const std::string what = error.what();
    const std::size_t did_you_mean = what.find("did you mean:");
    ASSERT_NE(did_you_mean, std::string::npos) << what;
    EXPECT_NE(what.find("hv/control+image", did_you_mean),
              std::string::npos);
  }
  // Garbage matches nothing: no suggestion line, catalogue still listed.
  try {
    registry.at("zzzzzzzzzzzzzzzz");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& error) {
    const std::string what = error.what();
    EXPECT_EQ(what.find("did you mean"), std::string::npos) << what;
    EXPECT_NE(what.find("known scenarios:"), std::string::npos);
  }
}

TEST(ScenarioRegistry, RejectsInvalidRegistrations) {
  FreshRegistry fixture;
  exec::ScenarioRegistry& registry = fixture.get();
  EXPECT_THROW(registry.add(exec::Scenario{
                   "", "no name",
                   [](std::uint32_t) { return CampaignConfig{}; }}),
               std::invalid_argument);
  EXPECT_THROW(registry.add(exec::Scenario{"control/new", "no factory", {}}),
               std::invalid_argument);
  EXPECT_THROW(registry.add(exec::Scenario{
                   "control/operation-dsr", "duplicate",
                   [](std::uint32_t) { return CampaignConfig{}; }}),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 32u) << "failed adds must not register";
}

TEST(ScenarioRegistry, FactoriesHonourRunsAndScenarioKnobs) {
  FreshRegistry fixture;
  const exec::ScenarioRegistry& registry = fixture.get();

  const CampaignConfig operation =
      registry.at("control/operation-dsr").make_config(123);
  EXPECT_EQ(operation.runs, 123u);
  EXPECT_EQ(operation.randomisation, Randomisation::kDsr);
  EXPECT_FALSE(operation.fixed_inputs);

  const CampaignConfig analysis =
      registry.at("control/analysis-hwrand").make_config(77);
  EXPECT_EQ(analysis.runs, 77u);
  EXPECT_EQ(analysis.randomisation, Randomisation::kHardware);
  EXPECT_TRUE(analysis.fixed_inputs);
  EXPECT_EQ(analysis.control.corrupt_rate, 1.0);

  EXPECT_EQ(registry.at("control/layout-neutral").make_config(1).layout,
            Layout::kNeutral);
  EXPECT_EQ(registry.at("control/prng-lfsr").make_config(1).prng,
            PrngKind::kLfsr);
  EXPECT_EQ(
      registry.at("control/offset-l1").make_config(1).dsr_options.offset_range,
      4u * 1024u);
  EXPECT_EQ(
      registry.at("control/stress-corrupt").make_config(1).control.corrupt_rate,
      1.0);
}

TEST(ScenarioRegistry, GlobalIsASingletonWithDefaults) {
  exec::ScenarioRegistry& a = exec::ScenarioRegistry::global();
  exec::ScenarioRegistry& b = exec::ScenarioRegistry::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 13u);
  EXPECT_TRUE(a.contains("control/operation-cots"));
}

TEST(ScenarioRegistry, ScenariosRunThroughTheEngine) {
  const exec::Scenario& scenario =
      exec::ScenarioRegistry::global().at("control/operation-cots");
  exec::EngineOptions options;
  options.workers = 2;
  const casestudy::CampaignResult result =
      exec::CampaignEngine(options).run(scenario.make_config(3));
  EXPECT_EQ(result.times.size(), 3u);
  EXPECT_EQ(result.verified_runs, 3u);
  for (double time : result.times) {
    EXPECT_GT(time, 0.0);
  }
}

} // namespace
