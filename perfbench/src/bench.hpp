// Shared pieces of the campaign benchmark: run options, the report that
// becomes the last stdout line, order statistics, and the in-memory span
// recorder of the traced run.
//
// Every number the benchmark reports is taken from outside the program:
// it times calls into proxima's public entry points (CampaignRunner
// stages, CampaignEngine::run, CampaignStore::run, cli::run_cli,
// mbpta::analyse, and the layer probes in probes.cpp).  Spans are recorded
// only here, around those calls, never inside the library.
#pragma once

#include "casestudy/campaign.hpp"

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (mean of the middle pair for even sizes); 0 when
/// empty.
double median(std::vector<double> values);
/// Nearest-rank percentile, `q` in (0, 1]; 0 when empty.
double percentile(std::vector<double> values, double q);

/// Host memory high-water mark of this process, MiB.
double peak_rss_mb();

struct Options {
  std::string workload;
  /// Workload seed; maps onto the scenario exactly like `proxima run
  /// --seed` (input seed = seed, layout seed = splitmix64(seed)).
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string expected;  // frozen default-seed digests (expected.json)
  std::string work_dir;  // scratch directory for store cells
  std::string trace_out; // Chrome trace JSON written by the traced run
};

/// The registry config of `scenario` for `runs` runs, reseeded when `seed`
/// is set, with the default VM core and every other field as registered.
proxima::casestudy::CampaignConfig
scenario_config(const std::string& scenario, std::uint32_t runs,
                std::optional<std::uint64_t> seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation prints as its last line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit);
  /// Count runs the benchmark simulated or re-rendered.
  void attempt(std::uint64_t runs) { attempted += runs; }
  /// An output check: when `ok` is false, `bad_runs` runs failed; the
  /// report becomes incorrect and the reason goes to stderr.
  void expect(bool ok, std::uint64_t bad_runs, const std::string& what);
  /// Human-readable table followed by the one-line JSON result.
  void print() const;
};

/// In-memory span recorder.  Spans are recorded from the benchmark's own
/// thread only; a span's parent is the span open when it began.  Written
/// at exit as Chrome trace_event JSON (the shape `proxima --trace-out`
/// writes), with id, parent, run id and self time in each event's args.
class Tracer {
public:
  Tracer();
  int begin(std::string name, std::int64_t run = -1);
  void end(int id);

  void write_chrome_json(const std::string& path) const;

private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::int64_t run = -1; // run index, -1 for spans over many runs
  };

  double duration_us(int id) const;
  /// Duration minus the time covered by the span's direct children.
  double self_us(int id) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<double> child_us_; // summed direct-child durations per span
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced run), but the
/// scope still measures its own duration.
class Scope {
public:
  Scope(Tracer* tracer, std::string name, std::int64_t run = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Close the span now and return its duration in seconds (idempotent).
  double stop();

private:
  Tracer* tracer_;
  int id_ = -1;
  Clock::time_point start_;
  std::optional<double> seconds_;
};

/// Run one workload; throws std::invalid_argument on an unknown name.
Report run_workload(const Options& options);

/// Layer probes of the traced run (probes.cpp): isolated calls into the
/// VM, hierarchy, guest memory, DSR runtime and MBPTA fit.
void run_layer_probes(Report& report, Tracer* tracer);

} // namespace perfbench
