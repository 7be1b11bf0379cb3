// End-to-end WCET analysis session: current practice vs MBPTA (Section VI).
//
// Plays the role of the validation engineer:
//   1. designs the stress scenario (recovery path pinned on),
//   2. derives the current-practice bound: COTS MOET + 20% margin,
//   3. runs the DSR measurement campaign with the incremental MBPTA
//      convergence protocol,
//   4. checks i.i.d., fits the EVT tail and reads the pWCET at 1e-15,
//   5. renders the Figure-3-style exceedance plot.
//
//   $ ./wcet_analysis        (PROXIMA_RUNS scales the campaign)
#include "casestudy/campaign.hpp"
#include "exec/engine.hpp"
#include "mbpta/mbpta.hpp"
#include "trace/report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace proxima;
using namespace proxima::casestudy;

namespace {

CampaignConfig analysis_config(Randomisation randomisation,
                               std::uint32_t runs) {
  CampaignConfig config;
  config.runs = runs;
  config.randomisation = randomisation;
  config.fixed_inputs = true;
  config.control.corrupt_rate = 1.0; // stress scenario: recovery exercised
  return config;
}

} // namespace

int main() {
  std::uint32_t runs = 600;
  if (const char* env = std::getenv("PROXIMA_RUNS")) {
    runs = static_cast<std::uint32_t>(std::strtoul(env, nullptr, 10));
  }

  // --- current practice -----------------------------------------------
  std::printf("== current practice: measurement + engineering margin ==\n");
  const CampaignResult cots =
      exec::CampaignEngine().run(analysis_config(Randomisation::kNone, 30));
  const trace::TimingReport report =
      trace::TimingReport::from_times(cots.times);
  std::printf("stress-scenario measurements: %s\n", report.to_string().c_str());
  std::printf("deterministic bound: MOET + 20%% = %.0f cycles\n\n",
              report.mbdta_bound());

  // --- MBPTA with DSR ---------------------------------------------------
  // The engine's adaptive mode replaces the hand-rolled batch loop this
  // example used to carry: it grows the campaign, feeds each batch to the
  // convergence controller at a deterministic boundary, and stops at the
  // first boundary where the estimate is stable — reproducibly, at any
  // worker count, and bit-identical to a fixed campaign of the stop length.
  std::printf("== MBPTA: DSR campaign with convergence control ==\n");
  exec::ConvergenceOptions convergence;
  convergence.batch_runs = 100;
  convergence.max_runs = runs;
  convergence.controller.target_exceedance = 1e-15;
  convergence.controller.epsilon = 0.005;
  convergence.controller.stable_rounds = 3;
  convergence.controller.min_samples = 300;
  convergence.controller.mbpta.block_size = std::max(10u, runs / 40u);

  const exec::AdaptiveCampaignResult adaptive =
      exec::CampaignEngine().run_adaptive(
          analysis_config(Randomisation::kDsr, runs), convergence);
  const std::vector<double>& all_times = adaptive.campaign.times;
  std::printf("  %llu of %u budgeted runs (%s after %zu batches)\n",
              static_cast<unsigned long long>(adaptive.runs()), runs,
              adaptive.converged ? "estimate stable" : "budget exhausted",
              adaptive.batches);
  // Estimates exist only for batches past min_samples, so they are
  // numbered as evaluations rather than batches.
  for (std::size_t i = 0; i < adaptive.estimates.size(); ++i) {
    if (std::isnan(adaptive.estimates[i])) {
      std::printf("  evaluation %zu: i.i.d. verdict failed\n", i + 1);
    } else {
      std::printf("  evaluation %zu: pWCET estimate %.0f\n", i + 1,
                  adaptive.estimates[i]);
    }
  }

  const mbpta::MbptaAnalysis analysis =
      mbpta::analyse(all_times, convergence.controller.mbpta);
  std::printf("\ni.i.d.: Ljung-Box p=%.3f, KS p=%.3f -> %s\n",
              analysis.iid.independence.p_value,
              analysis.iid.identical_distribution.p_value,
              analysis.applicable() ? "EVT applicable" : "NOT applicable");
  std::printf("Gumbel tail: location=%.1f scale=%.2f\n",
              analysis.model.info().gumbel.location,
              analysis.model.info().gumbel.scale);

  const double pwcet = analysis.pwcet(1e-15);
  std::printf("\npWCET(1e-15) = %.0f cycles (DSR MOET %.0f, +%.2f%%)\n",
              pwcet, analysis.summary.max,
              100.0 * (pwcet / analysis.summary.max - 1.0));
  std::printf("industrial bound = %.0f cycles -> MBPTA is %.1f%% tighter\n\n",
              report.mbdta_bound(),
              100.0 * (1.0 - pwcet / report.mbdta_bound()));

  std::printf("%s\n",
              trace::ascii_exceedance_plot(analysis.model, all_times).c_str());
  return analysis.applicable() && pwcet < report.mbdta_bound() ? 0 : 1;
}
