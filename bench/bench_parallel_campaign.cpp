// E7 — Parallel campaign engine throughput.
//
// Measures campaign throughput (measured runs per second) for
// `exec::CampaignEngine` at 1/2/4/8 workers on the control-task scenario,
// prints the speedup over one worker (which runs every index in order on
// the calling thread), and cross-checks that every worker count stays
// bit-identical to the one-worker baseline (the engine's defining
// property — see campaign_runner.hpp).
//
//   $ PROXIMA_RUNS=400 ./bench_parallel_campaign
#include "bench_util.hpp"
#include "exec/engine.hpp"
#include "exec/registry.hpp"

#include <chrono>
#include <thread>

using namespace proxima;
using namespace proxima::bench;
using namespace proxima::casestudy;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

} // namespace

int main() {
  const std::uint32_t runs = campaign_runs(160);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  print_header("Parallel campaign engine throughput (" +
               std::to_string(runs) + " runs, " + std::to_string(cores) +
               " hardware threads)");

  const exec::Scenario& scenario =
      exec::ScenarioRegistry::global().at("control/operation-dsr");
  const CampaignConfig config = scenario.make_config(runs);

  const auto run_timed = [&](unsigned workers) {
    exec::EngineOptions options;
    options.workers = workers;
    const auto start = std::chrono::steady_clock::now();
    TimedCampaign timed;
    timed.result = exec::CampaignEngine(options).run(config);
    timed.seconds = seconds_since(start);
    return timed;
  };
  // One worker runs every index in order on the calling thread: the
  // throughput baseline and the correctness reference.
  const TimedCampaign baseline = run_timed(1);
  print_throughput("1 worker", baseline.result, baseline.seconds);
  const auto print_row = [&](unsigned workers, double seconds, bool same) {
    const double rate = runs / seconds;
    const double speedup = baseline.seconds / seconds;
    std::printf("%-19s %2u %10.2f s %12.1f runs/s %9.2fx   identical: %s\n",
                "engine, workers =", workers, seconds, rate, speedup,
                same ? "yes" : "NO");
    std::printf("csv,%u,%.3f,%.1f,%.2f,%s\n", workers, seconds, rate, speedup,
                same ? "yes" : "no");
  };

  std::printf("\ncsv,workers,seconds,runs_per_sec,speedup,identical\n");
  print_row(1, baseline.seconds, true);
  bool identical = true;
  double best_speedup = 1.0;
  for (unsigned workers : {2u, 4u, 8u}) {
    const TimedCampaign timed = run_timed(workers);
    const bool same = timed.result.times == baseline.result.times &&
                      timed.result.samples == baseline.result.samples &&
                      timed.result.verified_runs ==
                          baseline.result.verified_runs;
    identical = identical && same;
    best_speedup = std::max(best_speedup, baseline.seconds / timed.seconds);
    print_row(workers, timed.seconds, same);
  }

  std::printf("\nbit-identical to the one-worker campaign at every worker "
              "count: %s\n",
              identical ? "yes" : "NO");
  if (cores >= 4) {
    const bool fast_enough = best_speedup > 1.5;
    std::printf("shape check: >1.5x throughput with 4+ workers: %s "
                "(best %.2fx)\n",
                fast_enough ? "yes" : "NO", best_speedup);
    return identical && fast_enough ? 0 : 1;
  }
  std::printf("shape check: speedup not assessed (%u hardware thread%s); "
              "correctness only\n",
              cores, cores == 1 ? "" : "s");
  return identical ? 0 : 1;
}
