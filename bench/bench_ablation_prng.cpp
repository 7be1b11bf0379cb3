// A4 — Qualified random sources: MWC vs LFSR (Section III.B.3, ref [3]).
//
// "The quality of this PRNG in terms of period is shown in [3] to be
// sufficient, as for the LFSR proposed in the same work.  However, while
// LFSR can be efficiently implemented in hardware, the MWC is the simplest
// one to implement in software."  The choice must not change the MBPTA
// outcome: both sources must pass i.i.d. and deliver statistically
// compatible pWCET estimates.
#include "bench_util.hpp"

#include <cmath>

using namespace proxima;
using namespace proxima::bench;
using namespace proxima::casestudy;

namespace {

struct PrngOutcome {
  mbpta::Summary summary;
  bool iid = false;
  double pwcet = 0.0;
};

PrngOutcome run_with_prng(PrngKind prng, std::uint32_t runs) {
  CampaignConfig config = analysis_config(Randomisation::kDsr, runs);
  config.prng = prng;
  const CampaignResult result = run_campaign(config);
  const mbpta::MbptaAnalysis analysis =
      mbpta::analyse(result.times, analysis_mbpta(runs));
  return PrngOutcome{analysis.summary, analysis.applicable(),
                     analysis.pwcet(1e-15)};
}

} // namespace

int main() {
  const std::uint32_t runs = campaign_runs(600);
  print_header("Ablation A4 — MWC vs LFSR random source (" +
               std::to_string(runs) + " runs each)");

  const PrngOutcome mwc = run_with_prng(PrngKind::kMwc, runs);
  const PrngOutcome lfsr = run_with_prng(PrngKind::kLfsr, runs);

  print_summary_table_header();
  print_summary_row("MWC (paper's choice)", mwc.summary);
  print_summary_row("LFSR", lfsr.summary);

  std::printf("\ni.i.d.: MWC %s, LFSR %s\n", mwc.iid ? "pass" : "FAIL",
              lfsr.iid ? "pass" : "FAIL");
  std::printf("pWCET(1e-15): MWC %.0f vs LFSR %.0f (%.2f%% apart)\n",
              mwc.pwcet, lfsr.pwcet,
              100.0 * std::fabs(mwc.pwcet / lfsr.pwcet - 1.0));

  const bool shape = mwc.iid && lfsr.iid &&
                     std::fabs(mwc.pwcet / lfsr.pwcet - 1.0) < 0.10;
  std::printf("shape check: both qualified sources give compatible MBPTA "
              "outcomes: %s\n",
              shape ? "yes" : "NO");
  return shape ? 0 : 1;
}
