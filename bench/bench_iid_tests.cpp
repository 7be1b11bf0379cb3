// E3 — "Fulfilling the i.i.d properties" (Section VI).
//
// The paper: "We test independence with the Ljung-Box test and a 5%
// significance level ... For identical distribution we use the two-sample
// Kolmogorov-Smirnov test also with a 5% significance level ...  For our
// experiments we obtain values above 0.05, meaning that both tests are
// passed, hence enabling the application of EVT."
//
// Reproduced for the DSR analysis campaign (pinned stress input, the
// paper's measurement protocol) and contrasted with the degenerate COTS
// behaviour under the same protocol (no randomisation source: the i.i.d.
// machinery has nothing to model — all runs are identical).
#include "bench_util.hpp"

using namespace proxima;
using namespace proxima::bench;
using namespace proxima::casestudy;

int main() {
  const std::uint32_t runs = campaign_runs(600);
  print_header("i.i.d. tests on the measurement campaigns (" +
               std::to_string(runs) + " runs)");

  const CampaignResult dsr =
      run_campaign(analysis_config(Randomisation::kDsr, runs));
  const mbpta::IidVerdict dsr_verdict = mbpta::check_iid(dsr.times);
  std::printf("DSR analysis campaign:\n");
  std::printf("  Ljung-Box (independence):        p = %.4f  -> %s\n",
              dsr_verdict.independence.p_value,
              dsr_verdict.independence.passes() ? "pass" : "FAIL");
  std::printf("  2-sample KS (identical distrib): p = %.4f  -> %s\n",
              dsr_verdict.identical_distribution.p_value,
              dsr_verdict.identical_distribution.passes() ? "pass" : "FAIL");
  std::printf("  i.i.d. verdict: %s  (paper: both above 0.05)\n",
              dsr_verdict.passes() ? "PASS" : "FAIL");

  const CampaignResult cots =
      run_campaign(analysis_config(Randomisation::kNone, runs));
  const mbpta::Summary cots_summary = mbpta::summarise(cots.times);
  std::printf("\nCOTS under the same protocol: min = max = %.0f (stddev %.1f)\n",
              cots_summary.min, cots_summary.stddev);
  std::printf("  -> no randomisation source: execution time is a constant,\n"
              "     there is no distribution for EVT to model; representativity\n"
              "     rests entirely on the engineer's choice of scenarios.\n");

  // The CV diagnostic on the DSR tail (later MBPTA practice).
  const mbpta::CvTestResult cv = mbpta::cv_exponentiality(dsr.times, 0.9);
  std::printf("\nCV exponentiality diagnostic on the DSR tail: cv = %.3f "
              "(band %.3f..%.3f) -> %s\n",
              cv.cv, cv.lower, cv.upper,
              cv.passes() ? "exponential-compatible" : "heavier/lighter tail");

  return dsr_verdict.passes() ? 0 : 1;
}
