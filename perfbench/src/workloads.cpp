// The four workloads, their output checks, and the traced decomposition.
//
// Campaign workloads (control-dsr, hv-image, tiny-runs) run their registry
// scenario as repeated campaigns of a fixed length.  Every campaign covers
// run indices [0, runs) at the benchmark's seed, so each one does the same
// work and must reproduce the same times digest; throughput is the median
// over campaigns.  store-rerender re-renders `proxima report --format json
// --store DIR` over cells filled during set-up, through cli::run_cli.
#include "bench.hpp"

#include "casestudy/campaign_runner.hpp"
#include "cli/cli.hpp"
#include "cli/json_reader.hpp"
#include "exec/engine.hpp"
#include "mbpta/mbpta.hpp"
#include "obs/timeline.hpp"
#include "store/store.hpp"
#include "trace/report.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using proxima::casestudy::CampaignConfig;
using proxima::casestudy::CampaignResult;
using proxima::casestudy::CampaignRunner;
using proxima::casestudy::RunSample;
using proxima::cli::JsonValue;
using proxima::exec::CampaignEngine;
using proxima::exec::EngineOptions;
using proxima::store::CampaignStore;
using proxima::store::StoreStats;

struct CampaignWorkload {
  const char* name;
  const char* scenario;
  unsigned workers;
  std::uint32_t runs;        // runs per timed campaign
  std::uint32_t traced_runs; // runs per traced campaign (per-run spans)
  std::uint32_t check_runs;  // prefix for the invariance and frozen checks
  bool through_store;        // every campaign into a fresh store directory
};

// Campaign lengths keep one campaign near a second of host time, so a
// 10 s run yields enough campaigns for a stable median.
constexpr CampaignWorkload kCampaigns[] = {
    // The paper's main arm on a cache-resident task: VM dispatch and the
    // hierarchy hit path; the DSR reseed is about 1% of a run.
    {"control-dsr", "control/operation-dsr", 1, 128, 48, 16, false},
    // The image guest evicts L2 every minor frame (miss/fill path); few
    // long runs over two workers, so the slowest shard sets the time.
    {"hv-image", "hv/control+image-dsr", 2, 16, 8, 4, false},
    // ~2k guest cycles per activation: per-run fixed costs and store
    // appends dominate, VM dispatch is a small share.
    {"tiny-runs", "leak/beacon-dsr", 2, 20000, 4000, 2000, true},
};

/// store-rerender's cells: leak/beacon-dsr supplies the run count,
/// control/analysis-dsr an MBPTA-protocol cell (pinned input, DSR).
struct Cell {
  const char* scenario;
  std::uint32_t runs;
  std::uint32_t check_runs; // prefix for the invariance and frozen checks
};
constexpr Cell kRerenderCells[] = {{"leak/beacon-dsr", 10000, 2000},
                                   {"control/analysis-dsr", 400, 16}};
/// Small cells of the same shape for cli.report_json_ms (never
/// prefix-checked): the command's own time is a small remainder, which
/// host noise on large cells would swamp.
constexpr Cell kProbeCells[] = {{"leak/beacon-dsr", 200, 0},
                                {"control/analysis-dsr", 200, 0}};
constexpr unsigned kRerenderWorkers = 2;
/// The traced decomposition of store-rerender runs the runner, engine and
/// store layers on the scenario that supplies its run count.
constexpr CampaignWorkload kRerenderCampaign = {
    "store-rerender", "leak/beacon-dsr", 2, 4000, 4000, 2000, false};

constexpr std::size_t kSetupRepeats = 25;
constexpr double kSetupSeconds = 0.5;
constexpr int kRerenderSetupRepeats = 3;
constexpr std::size_t kMinCampaigns = 3;
constexpr std::size_t kMaxTracedCampaigns = 4;

std::string digest(const std::vector<double>& times, std::size_t n) {
  return proxima::trace::times_digest_hex(
      std::span<const double>(times.data(), std::min(n, times.size())));
}

std::uint64_t unverified(const CampaignResult& result, std::uint64_t runs) {
  return runs - std::min<std::uint64_t>(result.verified_runs, runs);
}

std::uint64_t instructions(const CampaignResult& result) {
  std::uint64_t total = 0;
  for (const RunSample& sample : result.samples) {
    total += sample.counters.instructions;
  }
  return total;
}

/// The frozen default-seed digest of `scenario` from expected.json:
/// {"digests": {"<scenario>": {"runs": N, "digest": "0x..."}}}.
struct Frozen {
  std::uint32_t runs = 0;
  std::string digest;
};

std::optional<Frozen> frozen_digest(const std::string& path,
                                    const std::string& scenario) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = JsonValue::parse(text.str());
  const JsonValue* entry = doc.get("digests", scenario);
  if (entry == nullptr || entry->get("runs") == nullptr ||
      entry->get("digest") == nullptr) {
    return std::nullopt;
  }
  return Frozen{static_cast<std::uint32_t>(entry->get("runs")->number),
                entry->get("digest")->string};
}

/// setup_s: the preparation a campaign needs before its first run — the
/// registry config and one CampaignRunner build (program generation,
/// instrumentation, DSR pass, link, image load, predecode).  A build takes
/// well under a millisecond, so it is repeated for kSetupSeconds (at least
/// kSetupRepeats times) and the median repeat is reported.
struct Setup {
  std::vector<double> total_s;
  std::vector<double> build_s;
};

Setup measure_setup(const std::string& scenario, std::uint32_t runs,
                    std::uint64_t seed, Tracer* tracer) {
  Setup setup;
  const auto start = Clock::now();
  while (setup.total_s.size() < kSetupRepeats ||
         seconds_since(start) < kSetupSeconds) {
    // Spans only for the first repeats: the rest would swamp the trace.
    Tracer* const spans =
        setup.total_s.size() < kSetupRepeats ? tracer : nullptr;
    Scope total(spans, "bench.setup");
    const CampaignConfig config = scenario_config(scenario, runs, seed);
    Scope build(spans, "casestudy.runner.ctor");
    const CampaignRunner runner(config);
    setup.build_s.push_back(build.stop());
    setup.total_s.push_back(total.stop());
  }
  return setup;
}

/// Output checks on a short prefix of `scenario`, after the timed phase:
///  * at the benchmark's seed, the 1-worker and 2-worker digests match
///    each other and, when given, the prefix of the timed campaigns;
///  * at the registry's default seed, the digest matches the frozen one.
void check_prefix(Report& report, const std::string& scenario,
                  std::uint32_t runs, std::uint64_t seed,
                  const std::vector<double>* observed,
                  const std::string& expected_path) {
  const auto run = [&](std::optional<std::uint64_t> with_seed,
                       unsigned workers) {
    EngineOptions options;
    options.workers = workers;
    const CampaignResult result =
        CampaignEngine(options).run(scenario_config(scenario, runs, with_seed));
    report.attempt(runs);
    report.expect(result.verified_runs == runs, unverified(result, runs),
                  scenario + ": golden verification failed on the prefix");
    return result;
  };
  const CampaignResult one = run(seed, 1);
  const CampaignResult two = run(seed, 2);
  const std::string d1 = digest(one.times, runs);
  const std::string d2 = digest(two.times, runs);
  report.expect(d1 == d2, runs,
                scenario + ": 1-worker digest " + d1 + " != 2-worker " + d2);
  if (observed != nullptr) {
    const std::string timed = digest(*observed, runs);
    report.expect(timed == d1, runs,
                  scenario + ": timed campaign prefix digest " + timed +
                      " != " + d1);
  }
  const std::optional<Frozen> frozen = frozen_digest(expected_path, scenario);
  const CampaignResult fixed = run(std::nullopt, 2);
  const std::string actual = digest(fixed.times, runs);
  report.expect(frozen && frozen->runs == runs && frozen->digest == actual,
                runs,
                scenario + ": default-seed digest " + actual + " over " +
                    std::to_string(runs) + " runs != frozen " +
                    (frozen ? frozen->digest + " over " +
                                  std::to_string(frozen->runs) + " runs"
                            : std::string("(none)")));
}

/// One timed campaign of a campaign workload.
struct Campaign {
  CampaignResult result;
  double seconds = 0.0;
  StoreStats stats; // through_store only
};

Campaign run_campaign(const CampaignWorkload& workload,
                      const CampaignConfig& config, const fs::path& store_dir,
                      Tracer* tracer) {
  Campaign campaign;
  EngineOptions options;
  options.workers = workload.workers;
  if (workload.through_store) {
    fs::remove_all(store_dir);
    Scope scope(tracer, "store.campaign_store.run");
    campaign.result = CampaignStore(store_dir.string())
                          .run(workload.scenario, config, options,
                               &campaign.stats);
    campaign.seconds = scope.stop();
  } else {
    Scope scope(tracer, "exec.engine.run");
    campaign.result = CampaignEngine(options).run(config);
    campaign.seconds = scope.stop();
  }
  return campaign;
}

/// Run campaigns for `seconds` (at least kMinCampaigns) and check each:
/// every run verified, the same digest every time, and through the store
/// every run freshly simulated into an empty cell.
struct Timed {
  std::vector<double> runs_per_s;
  std::vector<double> guest_mips;
  std::vector<double> first_times;
};

Timed timed_campaigns(Report& report, const CampaignWorkload& workload,
                      const CampaignConfig& config, double seconds,
                      const fs::path& store_dir) {
  Timed timed;
  std::string reference;
  const auto start = Clock::now();
  while (timed.runs_per_s.size() < kMinCampaigns ||
         seconds_since(start) < seconds) {
    report.attempt(config.runs);
    Campaign campaign;
    try {
      campaign = run_campaign(workload, config, store_dir, nullptr);
    } catch (const std::exception& error) {
      report.expect(false, config.runs,
                    std::string("campaign fault: ") + error.what());
      break;
    }
    const CampaignResult& result = campaign.result;
    const std::string d = digest(result.times, result.times.size());
    if (reference.empty()) {
      reference = d;
      timed.first_times = result.times;
    }
    report.expect(result.verified_runs == config.runs,
                  unverified(result, config.runs),
                  "golden verification failed");
    report.expect(d == reference, config.runs,
                  "campaign digest " + d + " != first campaign " + reference);
    if (workload.through_store) {
      report.expect(campaign.stats.simulated_runs == config.runs &&
                        campaign.stats.stored_runs == 0,
                    config.runs, "fresh store cell was not simulated in full");
    }
    timed.runs_per_s.push_back(config.runs / campaign.seconds);
    timed.guest_mips.push_back(static_cast<double>(instructions(result)) /
                               campaign.seconds / 1e6);
  }
  return timed;
}

void add_end_to_end(Report& report, double runs_per_s, double guest_mips,
                    const std::vector<double>& setup_s) {
  report.add("runs_per_s", runs_per_s, "1/s");
  report.add("guest_mips", guest_mips, "Minstr/s");
  report.add("setup_s", median(setup_s), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("ok_run_ratio",
             report.attempted == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(
                             std::min(report.failed, report.attempted)) /
                             static_cast<double>(report.attempted),
             "ratio");
}

// ---------------------------------------------------------------------------
// store-rerender: `proxima report --format json --store DIR` via run_cli.

struct Rendered {
  int exit_code = 0;
  std::string output;
  std::string errors;
};

Rendered render(const Cell& cell, const fs::path& dir, std::uint64_t seed,
                Tracer* tracer) {
  const std::string runs = std::to_string(cell.runs);
  const std::string workers = std::to_string(kRerenderWorkers);
  const std::string store = dir.string();
  const std::string seed_text = std::to_string(seed);
  const char* const argv[] = {"proxima",  "report",           "--scenario",
                              cell.scenario, "--runs",        runs.c_str(),
                              "--workers", workers.c_str(),   "--store",
                              store.c_str(), "--seed",        seed_text.c_str(),
                              "--format",  "json"};
  std::ostringstream out;
  std::ostringstream err;
  Rendered rendered;
  {
    Scope scope(tracer, "cli.run_cli");
    rendered.exit_code = proxima::cli::run_cli(
        static_cast<int>(std::size(argv)), argv, out, err);
  }
  rendered.output = out.str();
  rendered.errors = err.str();
  return rendered;
}

/// What a report document says about one cell: store provenance plus a
/// signature of everything a re-render must reproduce (times digest,
/// metrics digest, every pWCET point of the curve).
struct Document {
  bool parsed = false;
  std::uint64_t stored_runs = 0;
  std::uint64_t simulated_runs = 0;
  std::uint64_t instructions = 0;
  std::string signature;
  std::string times_digest;
};

Document read_document(const Rendered& rendered) {
  Document doc;
  JsonValue json;
  try {
    json = JsonValue::parse(rendered.output);
  } catch (const proxima::cli::JsonParseError&) {
    return doc;
  }
  const JsonValue* scenarios = json.get("scenarios");
  if (scenarios == nullptr || !scenarios->is_array() ||
      scenarios->array.size() != 1) {
    return doc;
  }
  const JsonValue& s = scenarios->array.front();
  const JsonValue* times = s.get("times", "digest");
  const JsonValue* metrics = s.get("metrics", "digest");
  const JsonValue* stored = s.get("store", "stored_runs");
  const JsonValue* simulated = s.get("store", "simulated_runs");
  const JsonValue* instr = s.get("metrics", "counters", "mem.instructions");
  const JsonValue* curve = s.get("analysis", "curve");
  if (times == nullptr || metrics == nullptr || stored == nullptr ||
      simulated == nullptr || instr == nullptr || curve == nullptr ||
      !curve->is_array() || curve->array.empty()) {
    return doc;
  }
  doc.parsed = true;
  doc.stored_runs = static_cast<std::uint64_t>(stored->number);
  doc.simulated_runs = static_cast<std::uint64_t>(simulated->number);
  doc.instructions = static_cast<std::uint64_t>(instr->number);
  doc.times_digest = times->string;
  doc.signature = times->string + " " + metrics->string;
  for (const JsonValue& point : curve->array) {
    const JsonValue* cycles = point.get("pwcet_cycles");
    char buffer[64];
    const auto end = std::to_chars(buffer, buffer + sizeof(buffer),
                                   cycles != nullptr ? cycles->number : -1.0);
    doc.signature += " " + std::string(buffer, end.ptr);
  }
  return doc;
}

/// Fill every cell cold into a fresh `dir`; returns the seconds taken and
/// the cold documents (checked: exit 0, every run simulated).
double fill_cells(Report& report, std::span<const Cell> cells,
                  const fs::path& dir,
                  std::uint64_t seed, std::vector<Document>& cold) {
  fs::remove_all(dir);
  cold.clear();
  std::vector<Rendered> rendered;
  const auto start = Clock::now();
  for (const Cell& cell : cells) {
    rendered.push_back(render(cell, dir, seed, nullptr));
  }
  const double seconds = seconds_since(start);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Document doc = read_document(rendered[i]);
    report.attempt(cells[i].runs);
    report.expect(rendered[i].exit_code == 0 && doc.parsed &&
                      doc.simulated_runs == cells[i].runs &&
                      doc.stored_runs == 0,
                  cells[i].runs,
                  std::string(cells[i].scenario) +
                      ": cold fill failed (exit " +
                      std::to_string(rendered[i].exit_code) + ") " +
                      rendered[i].errors);
    cold.push_back(doc);
  }
  return seconds;
}

/// Re-render every cell from the warm store once; checks each document
/// against the cold pass.  Returns the run_cli seconds.
double rerender_cells(Report& report, std::span<const Cell> cells,
                      const fs::path& dir, std::uint64_t seed,
                      const std::vector<Document>& cold, Tracer* tracer) {
  std::vector<Rendered> rendered;
  double seconds = 0.0;
  {
    Scope scope(tracer, "bench.rerender");
    for (const Cell& cell : cells) {
      rendered.push_back(render(cell, dir, seed, tracer));
    }
    seconds = scope.stop();
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Document doc = read_document(rendered[i]);
    report.attempt(cells[i].runs);
    report.expect(rendered[i].exit_code == 0 && doc.parsed &&
                      doc.simulated_runs == 0 &&
                      doc.stored_runs == cells[i].runs,
                  cells[i].runs,
                  std::string(cells[i].scenario) +
                      ": warm re-render simulated runs or failed (exit " +
                      std::to_string(rendered[i].exit_code) + ") " +
                      rendered[i].errors);
    report.expect(doc.signature == cold[i].signature, cells[i].runs,
                  std::string(cells[i].scenario) + ": re-render '" +
                      doc.signature + "' != cold '" + cold[i].signature +
                      "'");
  }
  return seconds;
}

std::uint64_t total_runs(std::span<const Cell> cells) {
  std::uint64_t runs = 0;
  for (const Cell& cell : cells) {
    runs += cell.runs;
  }
  return runs;
}

/// store.replay_us_per_run and cli.report_json_ms: next to a run_cli
/// re-render, the public calls the report makes — CampaignStore::run on
/// the warm cell and mbpta::analyse on its times — are issued on their
/// own, so the command's own time (argument parsing, JSON render) is the
/// run_cli time they leave unexplained.
struct Decomposed {
  std::vector<double> report_self_ms;
  double cli_s = 0.0;
  double store_s = 0.0;
  std::uint64_t store_runs = 0;
};

double report_parts(Report& report, std::span<const Cell> cells,
                    const fs::path& dir, std::uint64_t seed,
                    const std::vector<Document>& cold, Tracer& tracer,
                    Decomposed& out) {
  Scope decompose(&tracer, "bench.decompose");
  double parts_s = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CampaignConfig config = scenario_config(cells[i].scenario, cells[i].runs,
                                            seed);
    config.collect_metrics = true; // as the CLI runs every campaign
    EngineOptions options;
    options.workers = kRerenderWorkers;
    StoreStats stats;
    CampaignResult result;
    {
      Scope scope(&tracer, "store.campaign_store.run");
      result = CampaignStore(dir.string())
                   .run(cells[i].scenario, config, options, &stats);
      const double s = scope.stop();
      parts_s += s;
      out.store_s += s;
      out.store_runs += cells[i].runs;
    }
    report.expect(stats.simulated_runs == 0 &&
                      digest(result.times, result.times.size()) ==
                          cold[i].times_digest,
                  cells[i].runs,
                  std::string(cells[i].scenario) +
                      ": store replay differs from the cold pass");
    proxima::mbpta::MbptaConfig analysis;
    analysis.block_size = proxima::mbpta::auto_block_size(result.times.size());
    Scope scope(&tracer, "mbpta.analyse");
    (void)proxima::mbpta::analyse(result.times, analysis);
    parts_s += scope.stop();
  }
  return parts_s;
}

/// One re-render and its parts, in the given order (callers alternate it
/// so slow drift of the host cancels in the median).
void decompose_rerender(Report& report, std::span<const Cell> cells,
                        const fs::path& dir, std::uint64_t seed,
                        const std::vector<Document>& cold, Tracer& tracer,
                        bool parts_first, Decomposed& out) {
  double parts_s = 0.0;
  if (parts_first) {
    parts_s = report_parts(report, cells, dir, seed, cold, tracer, out);
  }
  const double cli_s = rerender_cells(report, cells, dir, seed, cold, &tracer);
  if (!parts_first) {
    parts_s = report_parts(report, cells, dir, seed, cold, tracer, out);
  }
  out.cli_s += cli_s;
  out.report_self_ms.push_back((cli_s - parts_s) * 1e3);
}

/// cli.report_json_ms on kProbeCells: the median of 21 alternating pairs.
double report_self_ms(Report& report, const Options& options,
                      Tracer& tracer) {
  const fs::path dir = fs::path(options.work_dir) / "probe-cells";
  std::vector<Document> cold;
  fill_cells(report, kProbeCells, dir, options.seed, cold);
  Decomposed decomposed;
  for (int i = 0; i < 21; ++i) {
    decompose_rerender(report, kProbeCells, dir, options.seed, cold, tracer,
                       i % 2 == 1, decomposed);
  }
  return median(decomposed.report_self_ms);
}

// ---------------------------------------------------------------------------
// Traced campaigns.  Each traced campaign runs the same runs several ways:
// the workload's own call without a timeline, the engine with one (that
// pair gives bench.trace_overhead; through_store workloads pair the store
// calls instead), a fresh store with a timeline and then warm from it, and
// one directly driven runner stage by stage.  The
// engine's timeline records the wall time of every runner->run() call on
// its workers, so engine overhead is the workers' time outside those calls
// in the same execution, free of run-to-run host noise.

struct TracedTotals {
  std::uint64_t runs = 0;
  unsigned workers = 1;
  double untraced_s = 0.0;    // primary call without timeline
  double traced_s = 0.0;      // primary call with timeline
  double engine_worker_s = 0.0; // engine wall x workers
  double engine_run_s = 0.0;    // sum of the engine's per-run spans
  double store_worker_s = 0.0;  // cold store wall x workers
  double store_run_s = 0.0;     // sum of its per-run spans
  double store_warm_s = 0.0;
  double stage_s = 0.0;   // every setup/execute/collect of the replay
  double execute_s = 0.0;
  std::uint64_t cell_bytes = 0;
  std::vector<double> setup_us;
  std::vector<double> execute_us;
  std::vector<double> collect_us;
  proxima::mem::PerfCounters counters; // summed over the engine runs
  std::uint64_t metric_runs = 0;
  std::uint64_t reseeds = 0;
  std::uint64_t bytes_copied = 0;
};

void add_counters(proxima::mem::PerfCounters& sum,
                  const proxima::mem::PerfCounters& run) {
  sum.instructions += run.instructions;
  sum.icache_miss += run.icache_miss;
  sum.dcache_miss += run.dcache_miss;
  sum.l2_miss += run.l2_miss;
  sum.l2_access += run.l2_access;
}

/// Seconds the engine's workers spent inside runner->run(): the sum of
/// the timeline's "run <index>" spans (hv partition frames are named
/// "run <index> frame <n>" and are not counted).
double engine_run_seconds(const proxima::obs::Timeline& timeline) {
  std::ostringstream out;
  timeline.write_json(out);
  const JsonValue doc = JsonValue::parse(out.str());
  const JsonValue* events = doc.get("traceEvents");
  if (events == nullptr) {
    return 0.0;
  }
  double us = 0.0;
  for (const JsonValue& event : events->array) {
    const JsonValue* name = event.get("name");
    const JsonValue* dur = event.get("dur");
    if (name != nullptr && dur != nullptr &&
        name->string.rfind("run ", 0) == 0 &&
        name->string.find_first_not_of("0123456789", 4) ==
            std::string::npos) {
      us += dur->number;
    }
  }
  return us * 1e-6;
}

void traced_campaign(Report& report, const CampaignWorkload& workload,
                     const CampaignConfig& config, const fs::path& store_dir,
                     Tracer& tracer, TracedTotals& totals) {
  const std::uint64_t runs = config.runs;
  Scope campaign_scope(&tracer, "bench.campaign");
  EngineOptions options;
  options.workers = workload.workers;
  totals.workers = CampaignEngine(options).resolved_workers(runs);

  // The primary call of the workload, untraced then with the timeline.
  const Campaign untraced =
      run_campaign(workload, config, store_dir, &tracer);
  totals.untraced_s += untraced.seconds;
  report.attempt(runs);
  report.expect(untraced.result.verified_runs == runs,
                unverified(untraced.result, runs),
                "traced campaign: golden verification failed");
  const std::string reference =
      digest(untraced.result.times, untraced.result.times.size());

  proxima::obs::Timeline engine_timeline;
  CampaignConfig timed_config = config;
  timed_config.timeline = &engine_timeline;
  CampaignResult result;
  double engine_s = 0.0;
  {
    Scope scope(&tracer, "exec.engine.run");
    result = CampaignEngine(options).run(timed_config);
    engine_s = scope.stop();
  }
  report.attempt(runs);
  report.expect(digest(result.times, result.times.size()) == reference, runs,
                "the timeline changed the campaign's times");
  totals.engine_worker_s += engine_s * totals.workers;
  totals.engine_run_s += engine_run_seconds(engine_timeline);
  for (const RunSample& sample : result.samples) {
    add_counters(totals.counters, sample.counters);
  }

  fs::remove_all(store_dir);
  proxima::obs::Timeline store_timeline;
  CampaignConfig store_config = config;
  store_config.timeline = &store_timeline;
  StoreStats cold;
  StoreStats warm;
  CampaignResult stored;
  double store_s = 0.0;
  {
    Scope scope(&tracer, "store.campaign_store.run");
    stored = CampaignStore(store_dir.string())
                 .run(workload.scenario, store_config, options, &cold);
    store_s = scope.stop();
  }
  report.attempt(runs);
  report.expect(cold.simulated_runs == runs &&
                    digest(stored.times, stored.times.size()) == reference,
                runs, "cold store campaign differs from the engine's");
  totals.store_worker_s += store_s * totals.workers;
  totals.store_run_s += engine_run_seconds(store_timeline);
  totals.traced_s += workload.through_store ? store_s : engine_s;
  {
    Scope scope(&tracer, "store.campaign_store.run");
    stored = CampaignStore(store_dir.string())
                 .run(workload.scenario, config, options, &warm);
    totals.store_warm_s += scope.stop();
  }
  report.attempt(runs);
  report.expect(warm.simulated_runs == 0 && warm.stored_runs == runs &&
                    digest(stored.times, stored.times.size()) == reference,
                runs, "warm store replay differs from the engine's");
  totals.cell_bytes += fs::file_size(cold.cell_path);

  if (totals.metric_runs == 0) {
    // Exact DSR counts from the metrics registry, on a prefix; metrics
    // are observational, so the prefix must keep the same times.
    CampaignConfig with_metrics = config;
    with_metrics.runs = workload.check_runs;
    with_metrics.collect_metrics = true;
    CampaignResult metered;
    {
      Scope scope(&tracer, "exec.engine.run");
      metered = CampaignEngine(options).run(with_metrics);
    }
    report.attempt(with_metrics.runs);
    report.expect(digest(metered.times, metered.times.size()) ==
                      digest(result.times, with_metrics.runs),
                  with_metrics.runs,
                  "collect_metrics changed the campaign's times");
    const auto& counters = metered.metrics.counters;
    const auto value = [&](const char* name) -> std::uint64_t {
      const auto it = counters.find(name);
      return it == counters.end() ? 0 : it->second;
    };
    totals.metric_runs = value("runs");
    totals.reseeds = value("dsr.reseeds");
    totals.bytes_copied = value("dsr.bytes_copied");
  }

  Scope replay(&tracer, "bench.replay");
  std::unique_ptr<CampaignRunner> runner;
  {
    Scope scope(&tracer, "casestudy.runner.ctor");
    runner = std::make_unique<CampaignRunner>(config);
  }
  std::uint64_t mismatched = 0;
  for (std::uint64_t run = 0; run < runs; ++run) {
    const auto index = static_cast<std::int64_t>(run);
    double s = 0.0;
    {
      Scope scope(&tracer, "casestudy.runner.setup", index);
      runner->setup(run);
      s = scope.stop();
      totals.setup_us.push_back(s * 1e6);
      totals.stage_s += s;
    }
    {
      Scope scope(&tracer, "casestudy.runner.execute", index);
      runner->execute();
      s = scope.stop();
      totals.execute_us.push_back(s * 1e6);
      totals.execute_s += s;
      totals.stage_s += s;
    }
    RunSample sample;
    {
      Scope scope(&tracer, "casestudy.runner.collect", index);
      sample = runner->collect();
      s = scope.stop();
      totals.collect_us.push_back(s * 1e6);
      totals.stage_s += s;
    }
    mismatched += sample == result.samples[run] ? 0 : 1;
  }
  report.attempt(runs);
  report.expect(mismatched == 0 && runner->verified_runs() == runs,
                std::max<std::uint64_t>(mismatched,
                                        runs - runner->verified_runs()),
                "stage-by-stage replay differs from the engine campaign");
  totals.runs += runs;
}

void add_traced_metrics(Report& report, const TracedTotals& t,
                        const Setup& setup) {
  const double runs = static_cast<double>(t.runs);
  const auto per_run = [&](std::uint64_t count) {
    return static_cast<double>(count) / runs;
  };
  const auto ratio = [](double part, double whole) {
    return whole == 0.0 ? 0.0 : part / whole;
  };
  report.add("casestudy.runner.build_ms", median(setup.build_s) * 1e3, "ms");
  report.add("casestudy.runner.setup_us.p50", percentile(t.setup_us, 0.50),
             "us");
  report.add("casestudy.runner.setup_us.p99", percentile(t.setup_us, 0.99),
             "us");
  report.add("casestudy.runner.execute_us.p50",
             percentile(t.execute_us, 0.50), "us");
  report.add("casestudy.runner.execute_us.p99",
             percentile(t.execute_us, 0.99), "us");
  report.add("casestudy.runner.collect_us.p50",
             percentile(t.collect_us, 0.50), "us");
  report.add("vm.execute_ns_per_instr",
             ratio(t.execute_s * 1e9,
                   static_cast<double>(t.counters.instructions)),
             "ns");
  report.add("vm.instructions_per_run", per_run(t.counters.instructions),
             "count");
  report.add("mem.il1_miss_per_run", per_run(t.counters.icache_miss),
             "count");
  report.add("mem.dl1_miss_per_run", per_run(t.counters.dcache_miss),
             "count");
  report.add("mem.l2_miss_per_run", per_run(t.counters.l2_miss), "count");
  report.add("mem.l2_accesses_per_run", per_run(t.counters.l2_access),
             "count");
  report.add("mem.l2_hit_ratio",
             1.0 - ratio(static_cast<double>(t.counters.l2_miss),
                         static_cast<double>(t.counters.l2_access)),
             "ratio");
  report.add("core.dsr.reseeds_per_run",
             ratio(static_cast<double>(t.reseeds),
                   static_cast<double>(t.metric_runs)),
             "count");
  report.add("core.dsr.bytes_copied_per_reseed",
             ratio(static_cast<double>(t.bytes_copied),
                   static_cast<double>(t.reseeds)),
             "B");
  const double engine_overhead_s = t.engine_worker_s - t.engine_run_s;
  report.add("exec.engine.overhead_us_per_run",
             engine_overhead_s / runs * 1e6, "us");
  report.add("exec.engine.parallel_efficiency",
             ratio(t.engine_run_s, t.engine_worker_s), "ratio");
  report.add("exec.engine.workers", t.workers, "count");
  // Stage self times of the replay plus the engine's overhead, over the
  // engine's worker time on the same runs: 1 when they account for it.
  report.add("bench.accounted_share",
             ratio(t.stage_s + engine_overhead_s, t.engine_worker_s),
             "ratio");
  report.add("store.append_us_per_run",
             ((t.store_worker_s - t.store_run_s) - engine_overhead_s) /
                 runs * 1e6,
             "us");
  report.add("store.bytes_per_run", static_cast<double>(t.cell_bytes) / runs,
             "B");
  report.add("bench.traced_runs", runs, "count");
}

/// bench.trace_overhead: traced over untraced runs per second, from paired
/// executions of the workload's primary call; its base is the untraced
/// rate.
void add_trace_overhead(Report& report, double runs, double untraced_s,
                        double traced_s) {
  report.add("bench.untraced_runs_per_s", runs / untraced_s, "1/s");
  report.add("bench.trace_overhead", untraced_s / traced_s, "ratio");
}

/// The end of every traced run: the report self-time and layer probes,
/// then the spans to disk.
void finish_traced(Report& report, Tracer& tracer, const Options& options) {
  report.add("cli.report_json_ms", report_self_ms(report, options, tracer),
             "ms");
  run_layer_probes(report, &tracer);
  if (!options.trace_out.empty()) {
    tracer.write_chrome_json(options.trace_out);
  }
}

/// Traced campaigns for `seconds` (at least one, at most
/// kMaxTracedCampaigns).
TracedTotals traced_campaigns(Report& report, const CampaignWorkload& workload,
                              const CampaignConfig& config, double seconds,
                              const fs::path& store_dir, Tracer& tracer) {
  TracedTotals totals;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMaxTracedCampaigns; ++i) {
    if (i > 0 && seconds_since(start) >= seconds) {
      break;
    }
    traced_campaign(report, workload, config, store_dir, tracer, totals);
  }
  return totals;
}

/// Re-render seconds over `seconds`, at least kMinCampaigns times.
std::vector<double> timed_rerenders(Report& report,
                                    std::span<const Cell> cells,
                                    const fs::path& dir, std::uint64_t seed,
                                    const std::vector<Document>& cold,
                                    double seconds) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < kMinCampaigns || seconds_since(start) < seconds) {
    times.push_back(rerender_cells(report, cells, dir, seed, cold, nullptr));
  }
  return times;
}

Report campaign_workload(const CampaignWorkload& workload,
                         const Options& options) {
  Report report;
  const fs::path store_dir = fs::path(options.work_dir) / "cells";
  if (!options.trace) {
    const Setup setup = measure_setup(workload.scenario, workload.runs,
                                      options.seed, nullptr);
    const CampaignConfig config =
        scenario_config(workload.scenario, workload.runs, options.seed);
    const Timed timed = timed_campaigns(report, workload, config,
                                        options.seconds, store_dir);
    check_prefix(report, workload.scenario, workload.check_runs,
                 options.seed, &timed.first_times, options.expected);
    add_end_to_end(report, median(timed.runs_per_s), median(timed.guest_mips),
                   setup.total_s);
    return report;
  }

  Tracer tracer;
  const Setup setup = measure_setup(workload.scenario, workload.traced_runs,
                                    options.seed, &tracer);
  const CampaignConfig config =
      scenario_config(workload.scenario, workload.traced_runs, options.seed);
  const TracedTotals totals = traced_campaigns(
      report, workload, config, options.seconds, store_dir, tracer);
  add_traced_metrics(report, totals, setup);
  report.add("store.replay_us_per_run",
             totals.store_warm_s / static_cast<double>(totals.runs) * 1e6,
             "us");
  add_trace_overhead(report, static_cast<double>(totals.runs),
                     totals.untraced_s, totals.traced_s);

  finish_traced(report, tracer, options);
  return report;
}

Report rerender_workload(const Options& options) {
  Report report;
  const fs::path dir = fs::path(options.work_dir) / "cells";
  const std::uint64_t runs = total_runs(kRerenderCells);
  std::vector<Document> cold;
  if (!options.trace) {
    // setup_s: the cold store fill, which builds each scenario's config
    // and campaign runners and simulates every cell.
    std::vector<double> setup_s;
    std::string signatures;
    for (int i = 0; i < kRerenderSetupRepeats; ++i) {
      setup_s.push_back(
          fill_cells(report, kRerenderCells, dir, options.seed, cold));
      std::string now;
      for (const Document& doc : cold) {
        now += doc.signature + ";";
      }
      report.expect(signatures.empty() || now == signatures, runs,
                    "cold fills disagree: " + now + " vs " + signatures);
      signatures = now;
    }
    std::uint64_t instructions = 0;
    for (const Document& doc : cold) {
      instructions += doc.instructions;
    }
    const std::vector<double> seconds = timed_rerenders(
        report, kRerenderCells, dir, options.seed, cold, options.seconds);
    std::vector<double> rates;
    std::vector<double> mips;
    for (const double s : seconds) {
      rates.push_back(static_cast<double>(runs) / s);
      mips.push_back(static_cast<double>(instructions) / s / 1e6);
    }
    for (const Cell& cell : kRerenderCells) {
      check_prefix(report, cell.scenario, cell.check_runs, options.seed,
                   nullptr, options.expected);
    }
    add_end_to_end(report, median(rates), median(mips), setup_s);
    return report;
  }

  Tracer tracer;
  const Setup setup = measure_setup(kRerenderCampaign.scenario,
                                    kRerenderCampaign.traced_runs,
                                    options.seed, &tracer);
  fill_cells(report, kRerenderCells, dir, options.seed, cold);
  // Each traced re-render is paired with an untraced one just before it.
  Decomposed decomposed;
  double untraced_s = 0.0;
  const auto start = Clock::now();
  do {
    untraced_s +=
        rerender_cells(report, kRerenderCells, dir, options.seed, cold,
                       nullptr);
    decompose_rerender(report, kRerenderCells, dir, options.seed, cold,
                       tracer, decomposed.report_self_ms.size() % 2 == 1,
                       decomposed);
  } while (seconds_since(start) < options.seconds / 2);

  const CampaignConfig config = scenario_config(
      kRerenderCampaign.scenario, kRerenderCampaign.traced_runs, options.seed);
  const TracedTotals totals =
      traced_campaigns(report, kRerenderCampaign, config, options.seconds / 2,
                       fs::path(options.work_dir) / "campaign-cells", tracer);
  add_traced_metrics(report, totals, setup);
  report.add("store.replay_us_per_run",
             decomposed.store_s / static_cast<double>(decomposed.store_runs) *
                 1e6,
             "us");
  add_trace_overhead(
      report,
      static_cast<double>(runs * decomposed.report_self_ms.size()),
      untraced_s, decomposed.cli_s);
  finish_traced(report, tracer, options);
  return report;
}

} // namespace

Report run_workload(const Options& options) {
  fs::create_directories(options.work_dir);
  for (const CampaignWorkload& workload : kCampaigns) {
    if (options.workload == workload.name) {
      return campaign_workload(workload, options);
    }
  }
  if (options.workload == "store-rerender") {
    return rerender_workload(options);
  }
  throw std::invalid_argument(
      "unknown workload '" + options.workload +
      "' (expected control-dsr, hv-image, tiny-runs or store-rerender)");
}

} // namespace perfbench
