// A3 — What does each DSR mechanism contribute? (Sections III.B.1/B.2)
//
// DSR randomises two classes of memory objects: function code and stack
// frames.  This ablation runs the analysis campaign with each mechanism
// enabled in isolation.  The transformed binary is IDENTICAL in all four
// configurations (same pass output, same instruction overhead); only the
// runtime randomisation toggles change — isolating the randomisation
// effect from the instrumentation effect.
#include "bench_util.hpp"

using namespace proxima;
using namespace proxima::bench;
using namespace proxima::casestudy;

namespace {

mbpta::Summary run_components(bool code, bool stack, std::uint32_t runs) {
  CampaignConfig config = analysis_config(Randomisation::kDsr, runs);
  config.dsr_options.randomise_code = code;
  config.dsr_options.randomise_stack = stack;
  return mbpta::summarise(run_campaign(config).times);
}

} // namespace

int main() {
  const std::uint32_t runs = campaign_runs(250);
  print_header("Ablation A3 — code vs stack randomisation (" +
               std::to_string(runs) + " runs each)");

  const mbpta::Summary none = run_components(false, false, runs);
  const mbpta::Summary code_only = run_components(true, false, runs);
  const mbpta::Summary stack_only = run_components(false, true, runs);
  const mbpta::Summary full = run_components(true, true, runs);

  print_summary_table_header();
  print_summary_row("neither (instr. only)", none);
  print_summary_row("code only", code_only);
  print_summary_row("stack only", stack_only);
  print_summary_row("full DSR", full);

  std::printf("\njitter (stddev): neither=%.1f code=%.1f stack=%.1f full=%.1f\n",
              none.stddev, code_only.stddev, stack_only.stddev, full.stddev);
  std::printf("(with neither mechanism the platform is deterministic: the\n"
              " pass overhead alone provides no randomisation)\n");

  // The stack mechanism is what dissolves the COTS bad-layout congruence
  // (the recovery progress word moves), so stack-only must already drop
  // the MOET relative to the pinned configuration.
  const bool shape = none.stddev < 1.0 && full.stddev > 0.0 &&
                     code_only.stddev > 0.0 && stack_only.stddev > 0.0;
  std::printf("shape check: both mechanisms contribute jitter, neither "
              "alone is degenerate: %s\n",
              shape ? "yes" : "NO");
  return shape ? 0 : 1;
}
