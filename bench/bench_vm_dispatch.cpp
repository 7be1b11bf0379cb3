// Dispatch-core comparison: the reference switch interpreter and the
// predecoded fast core on the same control-task campaigns, each on one
// engine worker (every run in order on the calling thread).
//
// Each workload runs kRepeats reference/fast pairs, alternating which core
// goes first so machine drift lands on both.  Reports the median guest
// instructions per wall second for each core and the median of the paired
// fast/ref ratios.  Every campaign must be *bit-identical* to the first
// reference campaign — any divergence in UoA cycles or counters fails the
// bench outright — so the numbers this bench prints are pure
// dispatch-speed deltas, not behaviour changes.
//
// Exit status: 0 iff results are identical on every workload AND, on the
// operation-like control-task workload, the median paired ratio shows the
// fast core sustaining >= 1.5x the reference core's instructions/second.
#include "bench_util.hpp"
#include "casestudy/control_task.hpp"

#include <chrono>
#include <vector>

using namespace proxima;
using namespace proxima::bench;
using namespace proxima::casestudy;

namespace {

constexpr int kRepeats = 5;

struct CoreRun {
  CampaignResult result;
  double mips = 0.0;
};

CoreRun run_core(const CampaignConfig& base, vm::VmCore core) {
  CampaignConfig config = base;
  config.vm_core = core;
  CoreRun run;
  const auto start = std::chrono::steady_clock::now();
  // One worker on purpose: worker scheduling must not pollute the timing.
  run.result = run_campaign(config, 1);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  run.mips =
      static_cast<double>(guest_instructions(run.result)) / seconds / 1e6;
  return run;
}

bool identical(const CampaignResult& a, const CampaignResult& b) {
  return a.times == b.times && a.samples == b.samples;
}

} // namespace

int main() {
  const std::uint32_t runs = campaign_runs(300);
  print_header("VM dispatch: reference vs fast (" + std::to_string(runs) +
               " runs each, one worker, median of " +
               std::to_string(kRepeats) + " alternating pairs)");
  std::printf("control program: %zu static instructions (predecode slots)\n\n",
              build_control_program(ControlParams{}).total_instructions());

  bool all_identical = true;
  double control_fast_ratio = 0.0;

  std::printf("%-26s %10s %10s %7s  %s\n", "workload", "ref Mi/s",
              "fast Mi/s", "fast/ref", "bit-identical");
  for (const char* name :
       {"control/operation-cots", "control/analysis-dsr",
        "control/operation-hwrand"}) {
    const CampaignConfig config =
        exec::ScenarioRegistry::global().at(name).make_config(runs);
    std::vector<double> ref_mips, fast_mips, ratios;
    CampaignResult expected;
    bool same = true;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      // Alternate which core goes first so machine drift lands on both.
      CoreRun reference, fast;
      if (repeat % 2 == 0) {
        reference = run_core(config, vm::VmCore::kReference);
        fast = run_core(config, vm::VmCore::kFast);
      } else {
        fast = run_core(config, vm::VmCore::kFast);
        reference = run_core(config, vm::VmCore::kReference);
      }
      if (repeat == 0) {
        expected = reference.result;
      }
      same = same && identical(reference.result, expected) &&
             identical(fast.result, expected);
      ref_mips.push_back(reference.mips);
      fast_mips.push_back(fast.mips);
      ratios.push_back(fast.mips / reference.mips);
    }
    const double fast_ratio = median(ratios);
    all_identical = all_identical && same;
    if (std::string_view(name) == "control/operation-cots") {
      control_fast_ratio = fast_ratio;
    }
    std::printf("%-26s %10.1f %10.1f %6.2fx  %s\n", name, median(ref_mips),
                median(fast_mips), fast_ratio,
                same ? "yes" : "NO — DIVERGENCE");
  }

  std::printf("\nshape check: bit-identical on all workloads: %s\n",
              all_identical ? "yes" : "NO");
  std::printf("shape check: fast core >= 1.5x reference on the control task "
              "(median paired ratio): %s (%.2fx)\n",
              control_fast_ratio >= 1.5 ? "yes" : "NO", control_fast_ratio);
  return all_identical && control_fast_ratio >= 1.5 ? 0 : 1;
}
