#include "store.hpp"

#include "casestudy/fingerprint.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

namespace proxima::store {

namespace {

/// Scenario names contain '/' ("control/operation-dsr"); flatten to one
/// path component.  The fingerprint suffix keeps sanitised collisions
/// apart, and the header check catches the rest.
std::string sanitise(const std::string& scenario) {
  std::string out = scenario;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    if (!keep) {
      c = '_';
    }
  }
  return out;
}

/// The loaded prefix, unpacked into the parallel arrays the engine's
/// `StoredPrefix` spans point at.
struct PrefixArrays {
  std::vector<casestudy::RunSample> samples;
  std::vector<obs::MetricsShard> run_metrics;
  std::vector<std::uint8_t> verified;

  exec::StoredPrefix view() const {
    exec::StoredPrefix prefix;
    prefix.samples = samples;
    prefix.run_metrics = run_metrics;
    prefix.verified = verified;
    return prefix;
  }
};

/// Load the cell (when present) and unpack its contiguous prefix, capped
/// at `limit` runs.  Enforces the metrics-presence contract: a config that
/// collects metrics cannot be served by records stored without them (the
/// per-run deltas are unrecoverable), while the converse merely ignores
/// the stored deltas.
PrefixArrays load_prefix(const std::string& path, const CellHeader& expected,
                         bool want_metrics, std::uint64_t limit) {
  PrefixArrays arrays;
  if (!std::filesystem::exists(path)) {
    return arrays;
  }
  CellData cell = load_cell(path);
  // The path already encodes (scenario, fingerprint), but a copied or
  // renamed cell file would otherwise be served silently — refuse to
  // resume from samples another configuration produced.
  if (cell.header.scenario != expected.scenario ||
      cell.header.fingerprint != expected.fingerprint) {
    throw StoreError(path + ": cell belongs to scenario '" +
                     cell.header.scenario + "' fingerprint " +
                     casestudy::fingerprint_hex(cell.header.fingerprint) +
                     ", expected '" + expected.scenario + "' " +
                     casestudy::fingerprint_hex(expected.fingerprint) +
                     "; delete it and re-run");
  }
  const std::uint64_t prefix =
      std::min<std::uint64_t>(cell.contiguous_prefix(), limit);
  arrays.samples.reserve(static_cast<std::size_t>(prefix));
  arrays.verified.reserve(static_cast<std::size_t>(prefix));
  if (want_metrics) {
    arrays.run_metrics.reserve(static_cast<std::size_t>(prefix));
  }
  for (std::uint64_t i = 0; i < prefix; ++i) {
    StoredRun& run = cell.runs[static_cast<std::size_t>(i)];
    if (want_metrics && !run.has_metrics) {
      throw StoreError(path + ": run " + std::to_string(run.index) +
                       " was stored without per-run metrics but this "
                       "campaign collects them; delete the cell or rerun "
                       "without metrics");
    }
    arrays.samples.push_back(std::move(run.sample));
    arrays.verified.push_back(run.verified ? 1 : 0);
    if (want_metrics) {
      arrays.run_metrics.push_back(std::move(run.metrics));
    }
  }
  return arrays;
}

/// Attach a persisting sample sink for `writer` to the engine options.
/// The engine serialises sink calls, so the writer needs no locking.
void attach_sink(exec::EngineOptions& options,
                 const std::shared_ptr<CellWriter>& writer, bool verified) {
  options.sample_sink =
      [writer, verified](const exec::ShardRange& range,
                         std::span<const casestudy::RunSample> samples,
                         std::span<const obs::MetricsShard> run_metrics) {
        writer->append(range.begin, samples, run_metrics, verified);
      };
}

} // namespace

CampaignStore::CampaignStore(std::string root) : root_(std::move(root)) {}

std::string
CampaignStore::cell_path(const std::string& scenario,
                         const casestudy::CampaignConfig& config) const {
  const std::uint64_t fingerprint = casestudy::config_fingerprint(config);
  return (std::filesystem::path(root_) /
          (sanitise(scenario) + "-" +
           casestudy::fingerprint_hex(fingerprint).substr(2) + ".pxs"))
      .string();
}

casestudy::CampaignResult
CampaignStore::run(const std::string& scenario,
                   const casestudy::CampaignConfig& config,
                   exec::EngineOptions options, StoreStats* stats) const {
  return run_cell(scenario, config, nullptr, std::move(options), stats)
      .campaign;
}

exec::AdaptiveCampaignResult
CampaignStore::run_adaptive(const std::string& scenario,
                            const casestudy::CampaignConfig& config,
                            const exec::ConvergenceOptions& convergence,
                            exec::EngineOptions options,
                            StoreStats* stats) const {
  return run_cell(scenario, config, &convergence, std::move(options), stats);
}

exec::AdaptiveCampaignResult
CampaignStore::run_cell(const std::string& scenario,
                        const casestudy::CampaignConfig& config,
                        const exec::ConvergenceOptions* convergence,
                        exec::EngineOptions options, StoreStats* stats) const {
  const std::uint64_t fingerprint = casestudy::config_fingerprint(config);
  const std::string path = cell_path(scenario, config);
  const std::uint64_t budget =
      convergence != nullptr && convergence->max_runs != 0
          ? convergence->max_runs
          : config.runs;
  const CellHeader header{scenario, fingerprint, config.input_seed,
                          config.layout_seed};
  const PrefixArrays prefix =
      load_prefix(path, header, config.collect_metrics, budget);
  const std::uint64_t prefix_runs = prefix.samples.size();
  std::shared_ptr<CellWriter> writer;
  if (prefix_runs < budget) {
    // Something may execute: open (or create) the cell before the engine
    // starts so header mismatches surface before any simulation time is
    // spent.  An adaptive controller may still stop inside the prefix, in
    // which case the writer appends nothing.
    std::filesystem::create_directories(root_);
    writer = std::make_shared<CellWriter>(path, header);
    attach_sink(options, writer, config.verify_outputs);
  }
  const exec::CampaignEngine engine(std::move(options));
  exec::AdaptiveCampaignResult result;
  if (convergence == nullptr) {
    result.campaign = engine.run(config, prefix.view());
  } else {
    result = engine.run_adaptive(config, *convergence, prefix.view());
  }
  if (stats != nullptr) {
    stats->stored_runs = std::min(prefix_runs, result.runs());
    stats->simulated_runs = result.runs() - stats->stored_runs;
    stats->fingerprint = fingerprint;
    stats->cell_path = path;
  }
  return result;
}

} // namespace proxima::store
