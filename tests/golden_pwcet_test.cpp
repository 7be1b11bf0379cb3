// Golden regression fixture for the paper-reproduction numbers.
//
// Locks the figure-2 execution-time summaries, the figure-3 pWCET fit and
// the margin-comparison bound at fixed seeds into checked-in expected
// values, so that performance work on the VM cores or the memory
// hierarchy can never *silently* shift the reproduced results: any change
// to the timing model shows up here as an exact-value diff, reviewed and
// re-baselined deliberately.
//
// The simulation is fully deterministic (integer cycle arithmetic in
// doubles), so min/mean/max and every performance counter are compared
// EXACTLY.  Only the EVT tail fit goes through transcendental libm calls
// (log/exp); those are compared with a 1e-6 relative tolerance — about
// nine orders of magnitude above cross-libm jitter and three below any
// real regression.
#include "campaign_harness.hpp"
#include "casestudy/campaign.hpp"
#include "exec/registry.hpp"
#include "mbpta/mbpta.hpp"
#include "trace/report.hpp"

#include <gtest/gtest.h>

namespace {

using namespace proxima;
using casestudy::CampaignConfig;
using casestudy::CampaignResult;

constexpr std::uint32_t kRuns = 300;

CampaignResult run_scenario(const char* name) {
  exec::ScenarioRegistry registry;
  exec::register_default_scenarios(registry);
  // Default seeds (input 2017, layout 611085) — the figures' conditions.
  return test::run_sequential(registry.at(name).make_config(kRuns));
}

mbpta::MbptaConfig analysis_config() {
  mbpta::MbptaConfig config;
  config.block_size = std::max(10u, kRuns / 40u);
  return config;
}

void expect_rel_near(double actual, double expected, const char* what) {
  EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-6) << what;
}

TEST(GoldenPwcet, Fig2OperationSummariesAreLocked) {
  const CampaignResult cots = run_scenario("control/operation-cots");
  const CampaignResult dsr = run_scenario("control/operation-dsr");
  const mbpta::Summary cots_summary = mbpta::summarise(cots.times);
  const mbpta::Summary dsr_summary = mbpta::summarise(dsr.times);

  // COTS: fixed bad-and-rare layout, input variation only.
  EXPECT_EQ(cots_summary.min, 224807.0);
  EXPECT_EQ(cots_summary.max, 264666.0);
  expect_rel_near(cots_summary.mean, 229043.82, "cots mean");
  // DSR: randomised layout each run.
  EXPECT_EQ(dsr_summary.min, 227335.0);
  EXPECT_EQ(dsr_summary.max, 254680.0);
  expect_rel_near(dsr_summary.mean, 230446.28333333333, "dsr mean");

  // The paper's figure-2 shape: DSR's MOET must not exceed the COTS MOET.
  EXPECT_LE(dsr_summary.max, cots_summary.max);
}

TEST(GoldenPwcet, Fig2CountersAreLocked) {
  const CampaignResult cots = run_scenario("control/operation-cots");
  ASSERT_EQ(cots.samples.size(), kRuns);
  // Exact counter snapshot of the first measured activation: the hardest
  // possible regression anchor for the timing model and both VM cores.
  const mem::PerfCounters& c = cots.samples.front().counters;
  EXPECT_EQ(c.instructions, 153376u);
  EXPECT_EQ(c.icache_miss, 33u);
  EXPECT_EQ(c.dcache_miss, 1429u);
  EXPECT_EQ(c.l2_miss, 113u);
  EXPECT_EQ(c.fpu_ops, 3302u);
}

TEST(GoldenPwcet, Fig3PwcetFitIsLocked) {
  const CampaignResult dsr = run_scenario("control/analysis-dsr");
  const mbpta::MbptaAnalysis analysis =
      mbpta::analyse(dsr.times, analysis_config());

  ASSERT_TRUE(analysis.applicable())
      << "analysis-dsr must pass the i.i.d. tests at the locked seed";
  EXPECT_EQ(analysis.summary.min, 253604.0);
  EXPECT_EQ(analysis.summary.max, 254701.0);
  expect_rel_near(analysis.summary.mean, 254207.39333333333, "analysis mean");
  expect_rel_near(analysis.model.info().gumbel.location, 254463.56127929059,
                  "gumbel location");
  expect_rel_near(analysis.model.info().gumbel.scale, 75.255616489226313,
                  "gumbel scale");
  expect_rel_near(analysis.pwcet(1e-15), 256889.57590317851, "pWCET @ 1e-15");

  // Figure-3 shape: the curve tightly upper-bounds the MET.
  EXPECT_GT(analysis.pwcet(1e-15), analysis.summary.max);
}

TEST(GoldenPwcet, ImageOperationSummariesAreLocked) {
  // The image task as a measured workload (PR 5): operation-like inputs,
  // so these numbers lock the input-DEPENDENT duration distribution — the
  // second case-study axis.  The Gumbel fit over such a series is
  // dominated by the lit-lens count, not the platform: the wild
  // operation-mode scale is exactly why the analysis protocol pins the
  // frame (next test).
  const CampaignResult cots = run_scenario("image/operation-cots");
  const mbpta::Summary summary = mbpta::summarise(cots.times);
  EXPECT_EQ(summary.min, 824225.0);
  EXPECT_EQ(summary.max, 1288457.0);
  expect_rel_near(summary.mean, 1045019.6233333333, "image operation mean");

  ASSERT_EQ(cots.samples.size(), kRuns);
  const mem::PerfCounters& c = cots.samples.front().counters;
  EXPECT_EQ(c.instructions, 646465u);
  EXPECT_EQ(c.icache_miss, 20u);
  EXPECT_EQ(c.dcache_miss, 2718u);
  EXPECT_EQ(c.l2_miss, 1518u);
  EXPECT_EQ(c.fpu_ops, 21867u);
}

TEST(GoldenPwcet, ImageAnalysisPwcetFitIsLocked) {
  const CampaignResult dsr = run_scenario("image/analysis-dsr");
  const mbpta::MbptaAnalysis analysis =
      mbpta::analyse(dsr.times, analysis_config());

  ASSERT_TRUE(analysis.applicable())
      << "image/analysis-dsr must pass the i.i.d. tests at the locked seed";
  EXPECT_EQ(analysis.summary.min, 1345002.0);
  EXPECT_EQ(analysis.summary.max, 1345996.0);
  expect_rel_near(analysis.summary.mean, 1345366.3400000001,
                  "image analysis mean");
  expect_rel_near(analysis.model.info().gumbel.location, 1345620.702059973,
                  "image gumbel location");
  expect_rel_near(analysis.model.info().gumbel.scale, 96.378661812072991,
                  "image gumbel scale");
  expect_rel_near(analysis.pwcet(1e-15), 1348727.6601037001,
                  "image pWCET @ 1e-15");
  EXPECT_GT(analysis.pwcet(1e-15), analysis.summary.max);
}

TEST(GoldenPwcet, MarginComparisonIsLocked) {
  const CampaignResult cots = run_scenario("control/analysis-cots");
  const CampaignResult dsr = run_scenario("control/analysis-dsr");
  const trace::TimingReport cots_report =
      trace::TimingReport::from_times(cots.times);
  const mbpta::MbptaAnalysis analysis =
      mbpta::analyse(dsr.times, analysis_config());
  const double pwcet = analysis.pwcet(1e-15);
  const double margin_bound = cots_report.mbdta_bound();

  expect_rel_near(margin_bound, 317383.2, "industrial margin bound");
  expect_rel_near(pwcet, 256889.57590317851, "margin pWCET");
  // Section VI shape: MOET(DSR) < pWCET < COTS MOET + 20%.
  EXPECT_LT(pwcet, margin_bound);
  EXPECT_GT(pwcet, analysis.summary.max);
}

} // namespace
