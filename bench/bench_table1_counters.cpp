// E2 — Table I: "Performance counter readings for the control task".
//
// Paper values (LEON3 FPGA):
//            icmiss   dcmiss     L2miss    FPU    Instr
//   No Rand  126-127  2088       402-558   3504   163800
//   Sw Rand  154      2129-2131  398-555   3504   166748
//
// Shape to reproduce: DSR raises the L1 instruction misses (code is spread
// over pool pages), leaves FPU work identical, adds <2% instructions, and
// leaves the L2 miss ratio in the same band (paper: 17-24% vs 18-25%).
// Absolute values are simulator-scale, not FPGA-scale.
#include "bench_util.hpp"

using namespace proxima;
using namespace proxima::bench;
using namespace proxima::casestudy;

namespace {

void print_counter_row(const char* label, const CampaignResult& result) {
  const auto ic = counter_range(
      result, [](const RunSample& s) { return s.counters.icache_miss; });
  const auto dc = counter_range(
      result, [](const RunSample& s) { return s.counters.dcache_miss; });
  const auto l2 = counter_range(
      result, [](const RunSample& s) { return s.counters.l2_miss; });
  const auto fpu = counter_range(
      result, [](const RunSample& s) { return s.counters.fpu_ops; });
  const auto instr = counter_range(
      result, [](const RunSample& s) { return s.counters.instructions; });
  std::printf("%-10s %12s %14s %12s %12s %16s\n", label,
              range_text(ic).c_str(), range_text(dc).c_str(),
              range_text(l2).c_str(), range_text(fpu).c_str(),
              range_text(instr).c_str());
}

double mean_instr(const CampaignResult& result) {
  double sum = 0;
  for (const RunSample& sample : result.samples) {
    sum += static_cast<double>(sample.counters.instructions);
  }
  return sum / static_cast<double>(result.samples.size());
}

std::pair<double, double> ratio_range(const CampaignResult& result) {
  double lo = 1.0;
  double hi = 0.0;
  for (const RunSample& sample : result.samples) {
    const double r = sample.counters.l2_miss_ratio();
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  return {lo, hi};
}

} // namespace

int main() {
  const std::uint32_t runs = campaign_runs(300);
  print_header("Table I — performance counter readings (" +
               std::to_string(runs) + " runs each)");

  const CampaignResult cots =
      run_campaign(operation_config(Randomisation::kNone, runs));
  const CampaignResult dsr =
      run_campaign(operation_config(Randomisation::kDsr, runs));

  std::printf("%-10s %12s %14s %12s %12s %16s\n", "", "icmiss", "dcmiss",
              "L2miss", "FPU", "Instr");
  print_counter_row("No Rand", cots);
  print_counter_row("Sw Rand", dsr);

  const auto [cots_lo, cots_hi] = ratio_range(cots);
  const auto [dsr_lo, dsr_hi] = ratio_range(dsr);
  std::printf("\nL2 miss ratio: No Rand %.0f-%.0f%%, Sw Rand %.0f-%.0f%%  "
              "(paper: 18-25%% vs 17-24%%)\n",
              100 * cots_lo, 100 * cots_hi, 100 * dsr_lo, 100 * dsr_hi);

  const double overhead = mean_instr(dsr) / mean_instr(cots) - 1.0;
  std::printf("DSR dynamic instruction overhead: %.2f%%  (paper: <2%%)\n",
              100 * overhead);

  const auto cots_ic = counter_range(
      cots, [](const RunSample& s) { return s.counters.icache_miss; });
  const auto dsr_ic = counter_range(
      dsr, [](const RunSample& s) { return s.counters.icache_miss; });
  const bool shape_ok = overhead > 0.0 && overhead < 0.02 &&
                        dsr_ic.first > cots_ic.second;
  std::printf("shape check: 0 < overhead < 2%% and icmiss(DSR) > "
              "icmiss(COTS): %s\n",
              shape_ok ? "yes" : "NO");
  return shape_ok ? 0 : 1;
}
