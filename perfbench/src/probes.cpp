// Layer probes of the traced run: each layer's public entry point called
// in isolation on a fixed, seed-independent input, so a change to one
// layer shows here even when it is a small share of a workload.  Every
// probe repeats its measurement and reports the median repeat.
#include "bench.hpp"

#include "casestudy/control_task.hpp"
#include "casestudy/measured_target.hpp"
#include "core/dsr_pass.hpp"
#include "core/dsr_runtime.hpp"
#include "exec/seed.hpp"
#include "isa/builder.hpp"
#include "isa/linker.hpp"
#include "mbpta/mbpta.hpp"
#include "mem/guest_memory.hpp"
#include "mem/hierarchy.hpp"
#include "rng/distributions.hpp"
#include "rng/mwc.hpp"
#include "trace/trace.hpp"
#include "vm/vm.hpp"

#include <stdexcept>
#include <string>

namespace perfbench {
namespace {

using namespace proxima;

constexpr int kRepeats = 5;
constexpr std::uint32_t kDataBase = 0x4000'0000;

/// Repeat `once` (which returns one sample) and return the median.
template <typename Fn>
double median_of(Tracer* tracer, const std::string& span, int repeats,
                 Fn&& once) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    Scope scope(tracer, span);
    samples.push_back(once());
  }
  return median(samples);
}

/// Guest Mi/s of Vm::run on a three-instruction countdown loop that never
/// leaves the L1 caches or the TLBs.
double dispatch_mips(Tracer* tracer) {
  constexpr std::int32_t kIterations = 4'000'000;
  isa::Program program;
  isa::FunctionBuilder fb("main");
  fb.li(isa::kO0, kIterations);
  fb.label("top");
  fb.subcci(isa::kO0, 1);
  fb.subi(isa::kO0, isa::kO0, 1);
  fb.bg("top");
  fb.halt();
  program.functions.push_back(std::move(fb).build());
  program.entry = "main";
  const isa::LinkedImage image = isa::link(program);
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  vm::Vm cpu(memory, hierarchy);
  image.load_into(memory);
  return median_of(tracer, "probe.vm.run", kRepeats, [&] {
    cpu.reset(image.entry_addr(), casestudy::kControlStackTop);
    const auto start = Clock::now();
    const vm::RunResult result = cpu.run();
    const double seconds = seconds_since(start);
    if (result.stop != vm::RunResult::Stop::kHalt ||
        result.instructions < 3ULL * (kIterations - 1)) {
      throw std::runtime_error("dispatch probe loop did not run to halt");
    }
    return static_cast<double>(result.instructions) / seconds / 1e6;
  });
}

/// ns per MemoryHierarchy::load over `lines` consecutive 32-byte lines,
/// cycled `passes` times after one untimed warming pass.
double load_ns(Tracer* tracer, const std::string& span, std::uint32_t lines,
               std::uint32_t passes) {
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  std::uint64_t sink = 0;
  for (std::uint32_t line = 0; line < lines; ++line) {
    sink += hierarchy.load(kDataBase + line * 32);
  }
  const double ns = median_of(tracer, span, kRepeats, [&] {
    const auto start = Clock::now();
    for (std::uint32_t pass = 0; pass < passes; ++pass) {
      for (std::uint32_t line = 0; line < lines; ++line) {
        sink += hierarchy.load(kDataBase + line * 32);
      }
    }
    return seconds_since(start) * 1e9 / (static_cast<double>(lines) * passes);
  });
  if (sink == 0) {
    throw std::runtime_error("hierarchy probe charged no cycles");
  }
  return ns;
}

/// µs per MemoryHierarchy::flush_all on a hierarchy whose caches and TLBs
/// were just filled by a 64 KiB instruction and data sweep.
double flush_all_us(Tracer* tracer) {
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  std::vector<double> samples;
  for (int i = 0; i < 50; ++i) {
    for (std::uint32_t offset = 0; offset < 64 * 1024; offset += 32) {
      hierarchy.fetch(kDataBase + offset);
      hierarchy.load(kDataBase + 0x10'0000 + offset);
    }
    Scope scope(tracer, "probe.mem.flush_all");
    hierarchy.flush_all();
    samples.push_back(scope.stop() * 1e6);
  }
  return median(samples);
}

/// ns per GuestMemory::read_u32 / write_u32 over a 64 KiB region.
std::pair<double, double> guest_memory_ns(Tracer* tracer) {
  constexpr std::uint32_t kWords = 16 * 1024;
  constexpr std::uint32_t kPasses = 64;
  mem::GuestMemory memory;
  const double write_ns = median_of(tracer, "probe.mem.guest.write", kRepeats,
                                    [&] {
    const auto start = Clock::now();
    for (std::uint32_t pass = 0; pass < kPasses; ++pass) {
      for (std::uint32_t word = 0; word < kWords; ++word) {
        memory.write_u32(kDataBase + word * 4, word ^ pass);
      }
    }
    return seconds_since(start) * 1e9 / (double{kWords} * kPasses);
  });
  std::uint64_t sum = 0;
  const double read_ns = median_of(tracer, "probe.mem.guest.read", kRepeats,
                                   [&] {
    const auto start = Clock::now();
    for (std::uint32_t pass = 0; pass < kPasses; ++pass) {
      for (std::uint32_t word = 0; word < kWords; ++word) {
        sum += memory.read_u32(kDataBase + word * 4);
      }
    }
    return seconds_since(start) * 1e9 / (double{kWords} * kPasses);
  });
  if (sum == 0) {
    throw std::runtime_error("guest memory probe read back nothing");
  }
  return {read_ns, write_ns};
}

/// µs per DsrRuntime::rerandomise on the control platform of
/// control/operation-dsr, built as a campaign runner builds it (no
/// activations run in between).
double reseed_us(Tracer* tracer) {
  constexpr std::uint64_t kReseeds = 500;
  const casestudy::CampaignConfig config =
      scenario_config("control/operation-dsr", 1, std::nullopt);
  isa::Program program = casestudy::build_control_program(config.control);
  trace::instrument_function(program, "control_step");
  dsr::apply_pass(program, config.pass_options);
  const isa::LinkedImage image = isa::link(
      program, casestudy::control_layout(config.control, config.layout,
                                         casestudy::kControlStackTop));
  mem::GuestMemory memory;
  mem::MemoryHierarchy hierarchy(mem::leon3_hierarchy_config());
  vm::VmConfig vm_config;
  vm_config.core = config.vm_core;
  vm::Vm cpu(memory, hierarchy, vm_config);
  image.load_into(memory);
  cpu.predecode(image.code_begin(), image.code_end() - image.code_begin());
  rng::Mwc layout_rng(1);
  dsr::DsrRuntime runtime(memory, hierarchy, image, layout_rng,
                          config.dsr_options);
  runtime.attach(cpu);
  std::uint64_t run = 0;
  return median_of(tracer, "probe.dsr.rerandomise", kRepeats, [&] {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kReseeds; ++i, ++run) {
      layout_rng.seed(exec::derive_run_seed(
          config.layout_seed, exec::SeedStream::kLayout, run));
      runtime.rerandomise();
    }
    return seconds_since(start) * 1e6 / static_cast<double>(kReseeds);
  });
}

/// ms per mbpta::analyse on `n` Gumbel-distributed samples (auto block
/// size, as the CLI fits a campaign of n runs).
double analyse_ms(Tracer* tracer, std::size_t n) {
  rng::Mwc source(2017);
  std::vector<double> samples;
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(rng::sample_gumbel(source, 100000.0, 250.0));
  }
  mbpta::MbptaConfig config;
  config.block_size = mbpta::auto_block_size(n);
  return median_of(tracer, "mbpta.analyse", 7, [&] {
    const auto start = Clock::now();
    const mbpta::MbptaAnalysis analysis = mbpta::analyse(samples, config);
    const double ms = seconds_since(start) * 1e3;
    if (!(analysis.pwcet(1e-12) > analysis.summary.max)) {
      throw std::runtime_error("MBPTA probe fit below the sample maximum");
    }
    return ms;
  });
}

} // namespace

void run_layer_probes(Report& report, Tracer* tracer) {
  Scope probes(tracer, "bench.probes");
  report.add("vm.dispatch_mips", dispatch_mips(tracer), "Minstr/s");
  // 128 lines (4 KiB) stay in DL1 and one TLB page; 32768 lines (1 MiB)
  // overflow the 32 KiB L2 and the 256 KiB TLB reach on every pass.
  report.add("mem.hit_ns", load_ns(tracer, "probe.mem.hit", 128, 4000), "ns");
  report.add("mem.miss_ns", load_ns(tracer, "probe.mem.miss", 32768, 16),
             "ns");
  report.add("mem.flush_all_us", flush_all_us(tracer), "us");
  const auto [read_ns, write_ns] = guest_memory_ns(tracer);
  report.add("mem.guest.read_ns", read_ns, "ns");
  report.add("mem.guest.write_ns", write_ns, "ns");
  report.add("core.dsr.reseed_us", reseed_us(tracer), "us");
  report.add("mbpta.analyse_ms.n1000", analyse_ms(tracer, 1000), "ms");
  report.add("mbpta.analyse_ms.n10000", analyse_ms(tracer, 10000), "ms");
}

} // namespace perfbench
