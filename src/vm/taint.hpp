// Dynamic taint-tracking state for the address-leak analyzer.
//
// One shadow bit per visible integer register, per FP register, and per
// guest-memory *word* tracks whether a value is layout-derived: produced
// from the program counter (kCall/kJmpl return addresses) or loaded from a
// declared source range (the DSR function/stack-offset tables, whose
// contents are exactly the randomised layout).  Both execution cores drive
// the same transfer function (Vm::taint_execute in taint_vm.cpp), so the
// reference core doubles as the differential oracle for the fast core's
// taint propagation.  Sinks are scenario-declared "observable" output
// ranges; a store of a tainted value into a sink is a confirmed leak.
//
// The lattice is the two-point chain {clean, layout-derived}: joins are
// boolean OR, so propagation is monotone and the shadow state is a pure
// function of the executed instruction stream.  Tracking is purely
// observational — no cycle, counter or architectural effect — and costs
// nothing when off (the fast core hoists the TaintState pointer exactly
// like the instruction-mix hook).
#pragma once

#include "mem/page_table.hpp"
#include "vm/windows.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace proxima::vm {

/// Half-open guest address range [base, base + length).
struct TaintRange {
  std::uint32_t base = 0;
  std::uint32_t length = 0;
};

/// Cumulative event counters; the campaign runner snapshots them around
/// the measured window to publish per-run `leak.*` deltas.
struct TaintStats {
  std::uint64_t pc_taints = 0;      // kCall/kJmpl return-address writes
  std::uint64_t source_loads = 0;   // loads that hit a declared source range
  std::uint64_t tainted_stores = 0; // stores of a tainted value, anywhere
  std::uint64_t sink_stores = 0;    // ... into a declared observable range
};

class TaintState {
public:
  explicit TaintState(std::uint32_t nwindows)
      : nwindows_(nwindows),
        windowed_(static_cast<std::size_t>(nwindows) * 16, 0) {}

  void add_source_range(std::uint32_t base, std::uint32_t length) {
    if (length != 0) {
      sources_.push_back(TaintRange{base, length});
    }
  }
  void add_sink_range(std::uint32_t base, std::uint32_t length) {
    if (length != 0) {
      sinks_.push_back(TaintRange{base, length});
    }
  }
  void clear_ranges() {
    sources_.clear();
    sinks_.clear();
  }

  bool in_source(std::uint32_t addr) const { return in(sources_, addr); }
  bool in_sink(std::uint32_t addr) const { return in(sinks_, addr); }

  /// Drop register shadows (matches Vm::reset zeroing the register file).
  void clear_registers() {
    globals_.fill(0);
    std::fill(windowed_.begin(), windowed_.end(), 0);
    fregs_.fill(0);
  }
  /// Drop the guest-memory shadow; the runner calls this at the start of
  /// every run so per-run leak metrics are a pure function of that run.
  void clear_memory() { pages_.clear(); }

  // Visible-register shadow access through the same RegisterWindow as
  // Vm::visible (%g0 reads clean, writes are discarded).
  bool reg(std::uint8_t index, std::uint32_t cwp) const {
    if (index == 0) {
      return false;
    }
    return const_cast<TaintState*>(this)->slot(index, cwp) != 0;
  }
  void set_reg(std::uint8_t index, std::uint32_t cwp, bool tainted) {
    if (index == 0) {
      return;
    }
    slot(index, cwp) = tainted ? 1 : 0;
  }
  bool freg(std::uint8_t index) const {
    return index < fregs_.size() && fregs_[index] != 0;
  }
  void set_freg(std::uint8_t index, bool tainted) {
    if (index < fregs_.size()) { // out-of-range faults in execute()
      fregs_[index] = tainted ? 1 : 0;
    }
  }

  // Physical windowed-slot access for the spill/fill mirror.
  bool windowed_slot(std::size_t slot) const { return windowed_[slot] != 0; }
  void set_windowed_slot(std::size_t slot, bool tainted) {
    windowed_[slot] = tainted ? 1 : 0;
  }

  /// Shadow of the aligned word containing `addr`.
  bool mem_word(std::uint32_t addr) const {
    const ShadowPage* page = pages_.find(addr >> kPageShift);
    return page != nullptr && (*page)[word_index(addr)] != 0;
  }
  void set_mem_word(std::uint32_t addr, bool tainted) {
    if (tainted) {
      pages_.get(addr >> kPageShift)[word_index(addr)] = 1;
    } else if (ShadowPage* page = pages_.find(addr >> kPageShift)) {
      (*page)[word_index(addr)] = 0;
    }
  }

  TaintStats& stats() { return stats_; }
  const TaintStats& stats() const { return stats_; }

  /// Layout information currently exposed in the observable ranges:
  /// 32 bits per distinct tainted sink word.
  std::uint64_t sink_tainted_bits() const {
    std::uint64_t bits = 0;
    for (const TaintRange& range : sinks_) {
      const std::uint32_t first = range.base & ~3U;
      for (std::uint32_t addr = first; addr < range.base + range.length;
           addr += 4) {
        if (mem_word(addr)) {
          bits += 32;
        }
      }
    }
    return bits;
  }

private:
  static constexpr std::uint32_t kPageShift = 12; // match GuestMemory pages
  static constexpr std::size_t kWordsPerPage = 1U << (kPageShift - 2);
  using ShadowPage = std::array<std::uint8_t, kWordsPerPage>;

  static std::size_t word_index(std::uint32_t addr) {
    return (addr & ((1U << kPageShift) - 1)) >> 2;
  }
  static bool in(const std::vector<TaintRange>& ranges, std::uint32_t addr) {
    for (const TaintRange& r : ranges) {
      if (addr - r.base < r.length) {
        return true;
      }
    }
    return false;
  }

  std::uint8_t& slot(std::uint8_t index, std::uint32_t cwp) {
    return RegisterWindow<std::uint8_t>(globals_.data(), windowed_.data(), cwp,
                                        nwindows_)[index];
  }

  std::uint32_t nwindows_;
  std::array<std::uint8_t, 8> globals_{};
  std::vector<std::uint8_t> windowed_; // nwindows * 16, matches Vm layout
  std::array<std::uint8_t, 16> fregs_{};
  std::vector<TaintRange> sources_;
  std::vector<TaintRange> sinks_;
  mem::PageTable<ShadowPage> pages_;
  TaintStats stats_;
};

} // namespace proxima::vm
