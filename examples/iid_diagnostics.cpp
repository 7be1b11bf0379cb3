// The statistical side of MBPTA: what the i.i.d. tests accept and reject.
//
// Walks through four measurement series — a DSR campaign, a COTS campaign
// with drifting conditions, an autocorrelated series, and synthetic Gumbel
// data — and shows how the Ljung-Box / Kolmogorov-Smirnov verdicts decide
// whether EVT may be applied (Section VI, "Fulfilling the i.i.d
// properties").
//
//   $ ./iid_diagnostics
#include "casestudy/campaign.hpp"
#include "exec/engine.hpp"
#include "mbpta/mbpta.hpp"
#include "rng/distributions.hpp"
#include "rng/mwc.hpp"

#include <cstdio>
#include <vector>

using namespace proxima;

namespace {

void verdict_line(const char* label, std::span<const double> series) {
  const mbpta::IidVerdict verdict = mbpta::check_iid(series);
  std::printf("%-34s LB p=%6.3f  KS p=%6.3f  -> %s\n", label,
              verdict.independence.p_value,
              verdict.identical_distribution.p_value,
              verdict.passes() ? "i.i.d. PASS (EVT usable)"
                               : "REJECTED (EVT not applicable)");
}

} // namespace

int main() {
  // 1. A real DSR measurement campaign (layout randomisation only).
  casestudy::CampaignConfig config;
  config.runs = 300;
  config.randomisation = casestudy::Randomisation::kDsr;
  config.fixed_inputs = true;
  config.control.corrupt_rate = 1.0;
  const casestudy::CampaignResult dsr = exec::CampaignEngine().run(config);
  verdict_line("DSR measurement campaign", dsr.times);

  // 2. A drifting campaign: the second half measured under different
  //    conditions (e.g. a configuration change mid-campaign).
  std::vector<double> drifting = dsr.times;
  for (std::size_t i = drifting.size() / 2; i < drifting.size(); ++i) {
    drifting[i] += 2500.0;
  }
  verdict_line("same campaign with mid-drift", drifting);

  // 3. An autocorrelated series: a platform whose state leaks across
  //    runs (what the partition reboot + flush protocol prevents).
  rng::Mwc rng(7);
  std::vector<double> correlated{250000.0};
  for (int i = 1; i < 300; ++i) {
    correlated.push_back(0.85 * correlated.back() + 0.15 * 250000.0 +
                         rng::sample_normal(rng, 0.0, 300.0));
  }
  verdict_line("state leaking across runs", correlated);

  // 4. Synthetic Gumbel draws (the EVT ideal).
  std::vector<double> gumbel;
  for (int i = 0; i < 300; ++i) {
    gumbel.push_back(rng::sample_gumbel(rng, 250000.0, 400.0));
  }
  verdict_line("synthetic Gumbel draws", gumbel);

  // The consequence of a PASS: a usable pWCET estimate.
  const mbpta::MbptaAnalysis analysis =
      mbpta::analyse(dsr.times, mbpta::MbptaConfig{.block_size = 10});
  std::printf("\nDSR campaign pWCET(1e-12): %.0f cycles (MOET %.0f)\n",
              analysis.pwcet(1e-12), analysis.summary.max);
  std::printf("CV tail diagnostic: cv=%.3f in [%.3f, %.3f] -> %s\n",
              mbpta::cv_exponentiality(dsr.times).cv,
              mbpta::cv_exponentiality(dsr.times).lower,
              mbpta::cv_exponentiality(dsr.times).upper,
              mbpta::cv_exponentiality(dsr.times).passes()
                  ? "exponential-compatible"
                  : "check the tail model");
  return 0;
}
