// Parallel campaign execution engine.
//
// Shards a `CampaignConfig`'s measured runs across N workers.  Each worker
// owns a fully isolated platform instance (guest memory + cache hierarchy
// + VM + trace buffer + DSR runtime) wrapped in a
// `casestudy::CampaignRunner`, and claims contiguous chunks of run indices
// from a shared queue.  Because every run's randomness is derived from
// (seed, stream, activation index) — see exec/seed.hpp — the assembled
// `CampaignResult.times`/`samples` are bit-identical regardless of worker
// count or scheduling order.  At one worker the engine runs every index in
// order on the calling thread (no thread is spawned), which is how tests
// and timing benches run a campaign sequentially.
//
// Fixed and adaptive campaigns share one driver: a fixed campaign is one
// batch of `config.runs` runs with no convergence controller.
//
// Completed shards can be streamed to a sink while the campaign is still
// running (e.g. to feed `mbpta::ConvergenceController` with measurement
// batches), and a progress callback reports the running completed/total
// counts.
//
// Cancellation is cooperative: workers re-check a stop condition before
// claiming a shard AND before every run inside a shard, so both a worker
// fault (internal) and `EngineOptions::stop` (external) halt the pool
// promptly instead of letting healthy workers drain the remaining queue.
#pragma once

#include "casestudy/campaign.hpp"
#include "exec/adaptive.hpp"
#include "exec/progress.hpp"
#include "exec/shard.hpp"
#include "obs/metrics.hpp"

#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <stop_token>

namespace proxima::exec {

/// Streaming per-shard aggregation: invoked once per completed shard with
/// the shard's UoA times in run-index order.  Shards arrive in completion
/// order (not index order) but carry their range; calls are serialised by
/// the engine.
using ShardSink = std::function<void(const ShardRange& range,
                                     std::span<const double> times)>;

/// Streaming per-shard persistence (the campaign store): invoked once per
/// COMPLETED shard with the shard's full `RunSample`s in run-index order,
/// plus — when the campaign collects metrics — the per-run metric deltas
/// each sample contributed (`run_metrics[i]` belongs to run
/// `range.begin + i`; the span is empty otherwise).  Calls are serialised
/// by the engine.  A shard interrupted by a fault or cancellation is never
/// emitted, so everything a sink persists is a valid contiguous record of
/// the runs it covers — the property that makes resume-from-prefix sound.
using SampleSink =
    std::function<void(const ShardRange& range,
                       std::span<const casestudy::RunSample> samples,
                       std::span<const obs::MetricsShard> run_metrics)>;

/// An already-materialised prefix of a campaign (from the on-disk store):
/// samples for run indices [0, samples.size()).  `run_metrics` is empty or
/// holds one per-run metrics delta per sample (required when the replayed
/// config collects metrics); `verified` is empty or holds one golden-model
/// verification flag per sample.  Because every run is a pure function of
/// its index, splicing a stored prefix in front of freshly executed
/// remainder runs reproduces the uninterrupted campaign bit-for-bit.
struct StoredPrefix {
  std::span<const casestudy::RunSample> samples;
  std::span<const obs::MetricsShard> run_metrics;
  std::span<const std::uint8_t> verified;
};

/// Thrown by `run`/`run_adaptive` when `EngineOptions::stop` fires before
/// the campaign completes: a cancelled campaign must never be mistaken for
/// a complete one.
struct CampaignCancelled : std::runtime_error {
  CampaignCancelled()
      : std::runtime_error("campaign cancelled: stop token fired before "
                           "every planned run completed") {}
};

struct EngineOptions {
  /// Worker threads; 0 picks the hardware concurrency.  The effective
  /// count never exceeds the number of planned shards.
  unsigned workers = 0;
  ShardOptions sharding;
  ProgressFn progress;    // optional completed/total callback
  ShardSink shard_sink;   // optional streaming aggregation
  SampleSink sample_sink; // optional streaming persistence (campaign store)
  /// Optional external cancellation: when the token fires, workers stop at
  /// the next per-run check and the engine throws `CampaignCancelled`
  /// (unless the campaign had already completed).  A default-constructed
  /// token never fires.
  std::stop_token stop;
};

class CampaignEngine {
public:
  explicit CampaignEngine(EngineOptions options = {});

  /// Execute the campaign across the configured workers.  Rethrows the
  /// first worker fault (functional mismatch, platform fault) after all
  /// workers have stopped — promptly: the fault cancels the pool, it does
  /// not wait for the queue to drain.
  casestudy::CampaignResult run(const casestudy::CampaignConfig& config) const;

  /// `run`, resuming from a stored prefix: result slots [0, n) are filled
  /// from `prefix` (n = min(prefix size, config.runs)) without executing
  /// them, only [n, runs) is sharded across the pool, and the prefix's
  /// per-run metric deltas / verification flags are folded into the result
  /// at the collection barrier.  Bit-identical times/samples/metrics
  /// digests to an uninterrupted `run` at any worker count.  The
  /// sample_sink only sees freshly executed shards; the shard_sink
  /// likewise (a resuming aggregator already holds the prefix).  A prefix
  /// covering every run executes nothing (the platform is still built once
  /// for the pass report / code size).
  casestudy::CampaignResult run(const casestudy::CampaignConfig& config,
                                const StoredPrefix& prefix) const;

  /// Execute the campaign adaptively: grow in `options.batch_runs`-sized
  /// batches, feed each completed batch (in run-index order) to an
  /// `mbpta::ConvergenceController`, and stop at the first batch boundary
  /// where the controller reports completion — convergence or its
  /// non-convergence cap — or at the `max_runs` budget.  `config.runs` is
  /// ignored except as the default budget (see ConvergenceOptions).
  /// Deterministic: for a given config + options the result is
  /// bit-identical at any worker count, and equal to a fixed campaign of
  /// the same length.  Per-worker platforms persist across batches, so
  /// growing costs no extra program builds.
  AdaptiveCampaignResult
  run_adaptive(const casestudy::CampaignConfig& config,
               const ConvergenceOptions& options) const;

  /// `run_adaptive`, resuming from a stored prefix.  Batches fully covered
  /// by the prefix are replayed straight into the controller without
  /// executing anything; a batch the prefix covers partially executes only
  /// its uncovered tail.  The controller still sees every batch in
  /// run-index order at the same deterministic boundaries, so the stop
  /// decision — and therefore the final length, estimates, and digests —
  /// matches the uninterrupted campaign exactly.  Prefix samples beyond
  /// the batch where the controller stops are left unconsumed.
  AdaptiveCampaignResult
  run_adaptive(const casestudy::CampaignConfig& config,
               const ConvergenceOptions& options,
               const StoredPrefix& prefix) const;

  /// The worker count `run` would use for a campaign of `runs` runs.
  unsigned resolved_workers(std::uint64_t runs) const;

  const EngineOptions& options() const noexcept { return options_; }

private:
  struct Plan {
    std::vector<ShardRange> shards;
    unsigned workers = 1;
  };
  Plan plan(std::uint64_t runs) const;

  /// The one campaign driver behind `run` and `run_adaptive`: grow
  /// [0, config.runs) in `batch_runs`-sized batches, splice the stored
  /// prefix and execute only each batch's uncovered tail.  With a
  /// controller, every batch is fed to it in run-index order (stopping
  /// when it reports completion) and recorded as a timeline span; a fixed
  /// campaign is one batch with no controller.
  AdaptiveCampaignResult drive(const casestudy::CampaignConfig& config,
                               std::uint64_t batch_runs,
                               const StoredPrefix& prefix,
                               mbpta::ConvergenceController* controller) const;

  EngineOptions options_;
};

} // namespace proxima::exec
