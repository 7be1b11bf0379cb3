// proxima_perfbench — the campaign benchmark's measuring program.
//
//   proxima_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --expected FILE --work-dir DIR [--trace-out FILE]
//
// Prints a human-readable table and, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when untraced, the per-layer metrics when traced.  Exit 0 when
// every output check passed, 1 when one failed (the result line is still
// printed), 2 on a usage error or an unexpected fault (no result line).
// perfbench/run.py builds this program and is the intended entry point.
#include "bench.hpp"

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "proxima_perfbench: " << message
            << "\nusage: proxima_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --expected FILE --work-dir DIR "
               "[--trace-out FILE]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  try {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used, 10);
    if (used == text.size() && text.front() != '-') {
      return value;
    }
  } catch (const std::exception&) {
  }
  usage(flag + ": expected a non-negative integer, got '" + text + "'");
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool seeded = false;
  bool timed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(flag + ": missing value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = parse_u64(flag, value);
      seeded = true;
    } else if (flag == "--seconds") {
      const std::uint64_t seconds = parse_u64(flag, value);
      if (seconds == 0 || seconds > 600) {
        usage("--seconds: expected 1..600");
      }
      options.seconds = static_cast<double>(seconds);
      timed = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage("--trace: expected 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--expected") {
      options.expected = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || !seeded || !timed ||
      options.expected.empty() || options.work_dir.empty()) {
    usage("--workload, --seed, --seconds, --expected and --work-dir are "
          "required");
  }
  return options;
}

} // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  try {
    const perfbench::Report report = perfbench::run_workload(options);
    report.print();
    return report.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "proxima_perfbench: " << error.what() << '\n';
    return 2;
  }
}
