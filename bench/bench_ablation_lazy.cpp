// A2 — Eager vs lazy relocation (Section III.B.1).
//
// "Eager implementation requires all function relocations to take place
// before the program execution, while lazy one relocates only the
// functions used by the software, at the moment of their first use.
// However, lazy relocation complicates the estimation of the worst-case
// memory consumption as well as the WCET ... we selected to implement an
// eager relocation scheme."
//
// The bench quantifies the WCET half of that argument: under the lazy
// scheme every partition reboot re-arms the first-call traps, so the
// measured UoA pays the relocation cost (copy loop + invalidation) inside
// its own execution time.
#include "bench_util.hpp"

using namespace proxima;
using namespace proxima::bench;
using namespace proxima::casestudy;

int main() {
  const std::uint32_t runs = campaign_runs(200);
  print_header("Ablation A2 — eager vs lazy relocation (" +
               std::to_string(runs) + " runs each)");

  CampaignConfig eager = analysis_config(Randomisation::kDsr, runs);
  const CampaignResult eager_result = run_campaign(eager);

  CampaignConfig lazy = analysis_config(Randomisation::kDsr, runs);
  lazy.pass_options.lazy_stubs = true;
  lazy.dsr_options.eager = false;
  const CampaignResult lazy_result = run_campaign(lazy);

  const mbpta::Summary eager_summary = mbpta::summarise(eager_result.times);
  const mbpta::Summary lazy_summary = mbpta::summarise(lazy_result.times);

  print_summary_table_header();
  print_summary_row("eager (paper's choice)", eager_summary);
  print_summary_row("lazy (first-call trap)", lazy_summary);

  std::printf("\nlazy UoA inflation: avg %+.2f%%, MOET %+.2f%%\n",
              100.0 * (lazy_summary.mean / eager_summary.mean - 1.0),
              100.0 * (lazy_summary.max / eager_summary.max - 1.0));
  std::printf("(the relocation copy + invalidation of every function used\n"
              " by the UoA lands inside the measured execution time)\n");

  const bool shape = lazy_summary.mean > eager_summary.mean &&
                     lazy_summary.max > eager_summary.max;
  std::printf("shape check: lazy inflates both avg and MOET: %s\n",
              shape ? "yes" : "NO");
  return shape ? 0 : 1;
}
