// A5 — DSR vs the alternatives it substitutes (Sections I, III).
//
// The paper motivates DSR as the COTS-compatible replacement for hardware
// time-randomised caches ("specialised hardware has high recurring costs
// and a long adoption horizon"), and notes that the static software variant
// is "equivalent in enabling MBPTA".  This ablation runs all four
// platforms through the same analysis campaign.
#include "bench_util.hpp"

using namespace proxima;
using namespace proxima::bench;
using namespace proxima::casestudy;

namespace {

struct Outcome {
  mbpta::Summary summary;
  bool iid = false;
  double pwcet = 0.0;
  bool degenerate = false;
};

Outcome run_one(Randomisation randomisation, std::uint32_t runs) {
  const CampaignResult result =
      run_campaign(analysis_config(randomisation, runs));
  Outcome out;
  out.summary = mbpta::summarise(result.times);
  if (out.summary.stddev < 1e-9) {
    out.degenerate = true; // constant series: nothing for EVT to model
    return out;
  }
  const mbpta::MbptaAnalysis analysis =
      mbpta::analyse(result.times, analysis_mbpta(runs));
  out.iid = analysis.applicable();
  out.pwcet = analysis.pwcet(1e-15);
  return out;
}

void print_row(const char* label, const Outcome& outcome) {
  if (outcome.degenerate) {
    std::printf("%-22s %10.0f %12s %10s %12s\n", label, outcome.summary.max,
                "constant", "n/a", "n/a");
    return;
  }
  std::printf("%-22s %10.0f %12s %10s %12.0f\n", label, outcome.summary.max,
              outcome.iid ? "pass" : "FAIL", outcome.iid ? "yes" : "no",
              outcome.pwcet);
}

} // namespace

int main() {
  const std::uint32_t runs = campaign_runs(500);
  print_header("Ablation A5 — randomisation technologies compared (" +
               std::to_string(runs) + " runs each)");

  const Outcome none = run_one(Randomisation::kNone, std::max(50u, runs / 10));
  const Outcome dsr = run_one(Randomisation::kDsr, runs);
  const Outcome sw_static = run_one(Randomisation::kStatic, runs);
  const Outcome hardware = run_one(Randomisation::kHardware, runs);

  std::printf("%-22s %10s %12s %10s %12s\n", "platform", "MOET", "i.i.d.",
              "MBPTA?", "pWCET@1e-15");
  print_row("COTS (no random.)", none);
  print_row("DSR (dynamic sw)", dsr);
  print_row("static sw rand.", sw_static);
  print_row("hw randomised caches", hardware);

  std::printf("\n(paper: both software variants are 'equivalent in enabling "
              "MBPTA';\n DSR achieves on COTS what the randomised hardware "
              "achieves by design)\n");

  const bool shape = none.degenerate && dsr.iid && sw_static.iid &&
                     hardware.iid;
  std::printf("shape check: all three randomised platforms enable MBPTA, "
              "plain COTS does not: %s\n",
              shape ? "yes" : "NO");
  return shape ? 0 : 1;
}
