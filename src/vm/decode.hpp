// Predecoded program representation for the fast-dispatch VM core.
//
// A DecodedOp is an isa::Instruction resolved into a flat, dispatch-ready
// form: the opcode collapsed to a dense handler index (the Opcode value
// itself — the enum is already dense), operand fields pre-extracted, and
// the immediate pre-sign-extended.  DecodedOps live in a DecodeCache keyed
// by guest address: 4 KiB pages of 1024 entries in a mem::PageTable,
// materialised on demand, with a one-entry MRU page memo so the dispatch
// loop's lookup is an index computation in the common case.
//
// Coherence: the cache registers itself as a mem::MemoryWriteListener, so
// ANY write into guest memory — the DSR runtime's relocation copies, a
// static re-link reloading the image, a lazy-relocation trap patching the
// function table, or a guest store into code — resets the covered entries
// to "undecoded" before they can be dispatched again.  This is the
// software analogue of the invalidation discipline the paper's runtime
// needs on real SPARC hardware, applied to the host-side decoded form.
#pragma once

#include "isa/instruction.hpp"
#include "mem/guest_memory.hpp"
#include "mem/page_table.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace proxima::vm {

/// One predecoded instruction slot (8 bytes).
struct DecodedOp {
  /// Dense handler index: the isa::Opcode value, or one of the sentinels.
  std::uint8_t handler = 0;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;
};

/// Sentinel handlers (outside the valid opcode range).
inline constexpr std::uint8_t kUndecodedOp = 0xff; // slot not decoded yet
inline constexpr std::uint8_t kInvalidOp = 0xfe;   // word failed to decode
static_assert(static_cast<std::uint8_t>(isa::Opcode::kOpcodeCount) <
              kInvalidOp);

/// X-macro over every executable opcode, in enum order.  The fast core's
/// computed-goto label table is generated from this list; a static_assert
/// in fast_vm.cpp verifies the order matches the enum values.
#define PROXIMA_VM_FOREACH_OPCODE(X)                                          \
  X(kNop)                                                                     \
  X(kAdd) X(kSub) X(kAnd) X(kOr) X(kXor) X(kSll) X(kSrl) X(kSra)              \
  X(kMul) X(kDiv) X(kAddcc) X(kSubcc) X(kOrcc)                                \
  X(kAddi) X(kSubi) X(kAndi) X(kOri) X(kXori) X(kSlli) X(kSrli) X(kSrai)      \
  X(kMuli) X(kDivi) X(kAddcci) X(kSubcci) X(kOrlo) X(kSethi)                  \
  X(kLd) X(kLdx) X(kSt) X(kStx) X(kLdb) X(kLdbx) X(kStb) X(kStbx)             \
  X(kLdd) X(kLddx) X(kStd) X(kStdx) X(kLdf) X(kLdfx) X(kStf) X(kStfx)         \
  X(kCall) X(kJmpl)                                                           \
  X(kBa) X(kBn) X(kBe) X(kBne) X(kBg) X(kBle) X(kBge) X(kBl)                  \
  X(kBgu) X(kBleu) X(kBcc) X(kBcs) X(kBpos) X(kBneg)                          \
  X(kFbe) X(kFbne) X(kFbl) X(kFbg) X(kFble) X(kFbge)                          \
  X(kSave) X(kSavex) X(kRestore)                                              \
  X(kFaddd) X(kFsubd) X(kFmuld) X(kFdivd) X(kFsqrtd) X(kFcmpd)                \
  X(kFitod) X(kFdtoi) X(kFmovd) X(kFnegd) X(kFabsd)                           \
  X(kRdtick) X(kIpoint) X(kFlush) X(kHalt) X(kTrapReloc)

/// One entry of a superblock's per-op execution plan: the deterministic
/// cycle charge folded at formation time plus the op's memory-access plan
/// for instruction fetch.
///
/// `pre_cycles` is the charge the op-at-a-time core books *unconditionally
/// before any faultable work*: the 1-cycle base for every op, with the
/// fixed multiply latency folded in for kMul/kMuli (their extra charge has
/// no fault check in front of it).  Every charge that sits behind a fault
/// check (divide, load-use, store drain, FP latency behind the fp-register
/// range checks) stays in the executor's handler, after the same check, so
/// a faulting op charges exactly what op-at-a-time execution charges.
struct SuperblockOp {
  std::uint16_t pre_cycles = 1;
  /// First op fetched from a new instruction-cache line (or the block
  /// head): the executor performs a real timed fetch here; subsequent
  /// same-line fetches may be deferred when proven trivial.
  bool new_line = false;
};

/// A fused maximal straight-line run of decoded ops within one page —
/// terminated by any control transfer (branch/call/jmpl), window op,
/// trap, ipoint/rdtick/flush/halt, an undecoded or undecodable slot, or
/// the page boundary.  Lives beside its page's DecodedOps and dies with
/// them: the guest-memory write listener kills any block covering a
/// written slot (live=false, head unhooked) without moving storage, so an
/// executor mid-block can detect the kill and bail exactly.
struct Superblock {
  std::uint16_t begin = 0; // first op slot within the page
  std::uint16_t count = 0; // fused ops (>= DecodeCache::kMinSuperblockOps)
  bool live = true;
  std::vector<SuperblockOp> plan; // count entries
};

/// Address-indexed store of DecodedOps, coherent with guest memory.
class DecodeCache final : public mem::MemoryWriteListener {
public:
  static constexpr std::uint32_t kPageShift = 12; // 4 KiB, 1024 ops
  static constexpr std::uint32_t kOpsPerPage = (1u << kPageShift) / 4;
  /// Pages kept before the cache is dropped wholesale (bounds the decoded
  /// footprint when DSR relocation scatters code across the 32 MiB pool
  /// over thousands of partition reboots).
  static constexpr std::size_t kMaxPages = 1024; // 8 MiB of DecodedOps
  /// Shortest run worth fusing: the block entry cost (lookup + gating +
  /// exit sync) must amortise over the per-op dispatch it eliminates.
  static constexpr std::uint32_t kMinSuperblockOps = 4;
  /// Dead-block compaction threshold per page (kills under DSR rewriting
  /// leave dead records behind; live blocks can never exceed
  /// kOpsPerPage / kMinSuperblockOps = 256).
  static constexpr std::size_t kMaxBlocksPerPage = 512;

  /// Deterministic cycle-cost model folded into superblock plans at
  /// formation time.  Mirrors the VmConfig fields of the owning Vm (the
  /// cache itself is config-agnostic; the Vm constructor injects these).
  struct SuperblockCosts {
    std::uint32_t mul_cycles = 4;
    /// Instruction-cache line size in words — the granularity of the
    /// per-op fetch plan (new_line flags).  From the hierarchy's IL1.
    std::uint32_t fetch_line_words = 8;
  };

  /// Cache activity counters (observability).  All increments live on the
  /// already-slow paths (decode miss, invalidation walk), never in the
  /// dispatch loop's hit path.  NOTE for telemetry consumers: these depend
  /// on cache *state*, which persists across runs within one runner — the
  /// same global run executed by a different worker sharding can hit or
  /// miss differently.  Only `write_invalidation_events` (listener-call
  /// count, a pure function of the guest's writes) is worker-count
  /// deterministic; the rest are reported as wall-class gauges.
  struct Stats {
    std::uint64_t decodes = 0;                  // slots decoded (incl. re-)
    std::uint64_t write_invalidation_events = 0; // on_memory_written calls
    std::uint64_t invalidated_slots = 0;        // decoded slots flipped back
    std::uint64_t full_invalidations = 0;       // wholesale drops
    // Superblock tier (vm.superblock.* gauges; all zero under kFast).
    std::uint64_t superblocks_formed = 0;
    std::uint64_t superblocks_entered = 0;
    std::uint64_t superblock_ops_retired = 0;
    std::uint64_t superblocks_invalidated = 0; // live blocks killed
  };

  DecodeCache() = default;
  DecodeCache(const DecodeCache&) = delete;
  DecodeCache& operator=(const DecodeCache&) = delete;

  /// The decoded slot for a (word-aligned) pc, decoding on first use.
  /// The returned reference stays valid until the next invalidation.
  const DecodedOp& at(std::uint32_t pc, const mem::GuestMemory& memory) {
    const std::uint32_t index = pc >> kPageShift;
    if (index != mru_index_ || mru_ == nullptr) [[unlikely]] {
      mru_ = &page_slow(index);
      mru_index_ = index;
    }
    DecodedOp& op = mru_->ops[(pc & ((1u << kPageShift) - 1)) >> 2];
    if (op.handler == kUndecodedOp) [[unlikely]] {
      ++stats_.decodes;
      decode_into(op, pc, memory);
    }
    return op;
  }

  /// One-time warm pass: decode every word of [addr, addr+length) up
  /// front (undecodable words become kInvalidOp slots, faulting only if
  /// executed — data interleaved with code must not throw here).
  void predecode_range(const mem::GuestMemory& memory, std::uint32_t addr,
                       std::uint32_t length);

  /// Inject the owning Vm's deterministic cost model (must precede any
  /// superblock formation; re-injecting drops formed blocks and clears
  /// declined marks — their plans embedded the old costs).
  void set_superblock_costs(const SuperblockCosts& costs) {
    costs_ = costs;
    pages_.for_each([](Page& page) {
      page.sb_head.fill(kSbUnexplored);
      page.superblocks.clear();
    });
  }

  /// Superblock lookup for the fast-sb dispatch level.  Returns the live
  /// superblock anchored at (word-aligned) `pc` — forming it on first
  /// query once the run is decoded — or nullptr when the slot is not a
  /// profitable block head.  On success `*ops_out` points at the owning
  /// page's op array (`(*ops_out)[slot]` for slots begin..begin+count);
  /// both pointers stay valid until the next decode-cache structural
  /// change (page drop / cost re-injection), which never happens while
  /// the executor is inside a block — mid-block writes only flip `live`.
  const Superblock* superblock_at(std::uint32_t pc,
                                  const DecodedOp** ops_out) {
    const std::uint32_t index = pc >> kPageShift;
    if (index != mru_index_ || mru_ == nullptr) [[unlikely]] {
      mru_ = &page_slow(index);
      mru_index_ = index;
    }
    const std::uint32_t slot = (pc & ((1u << kPageShift) - 1)) >> 2;
    std::uint16_t head = mru_->sb_head[slot];
    if (head == kSbUnexplored) [[unlikely]] {
      head = form_superblock(*mru_, slot);
      if (head == kSbUnexplored) {
        return nullptr;
      }
    }
    if (head == kSbDeclined) {
      return nullptr;
    }
    *ops_out = mru_->ops.data();
    return &mru_->superblocks[head - 1u];
  }

  /// Book a completed (or bailed/faulted) superblock entry that retired
  /// `ops` instructions (executor stats path).
  void count_superblock_entry(std::uint32_t ops) noexcept {
    ++stats_.superblocks_entered;
    stats_.superblock_ops_retired += ops;
  }

  void invalidate_all();

  /// Reset every decoded slot covering [addr, addr+length) and kill every
  /// live superblock overlapping it, in one walk.  This is the body of
  /// on_memory_written without the listener-event accounting: batching
  /// callers (the DSR runtime's coalesced reseed ranges) invalidate the
  /// same slots and blocks as the equivalent per-word notifications,
  /// bit-exactly, with one traversal per range instead of one per store.
  void invalidate_range(std::uint32_t addr, std::uint32_t length);

  /// Decoded pages currently materialised (observability/tests).
  std::size_t resident_pages() const noexcept { return pages_.size(); }

  const Stats& stats() const noexcept { return stats_; }

  // mem::MemoryWriteListener
  void on_memory_written(std::uint32_t addr, std::uint32_t length) override;
  void on_memory_cleared() override { invalidate_all(); }

private:
  /// Per-slot superblock head marker: not yet explored.
  static constexpr std::uint16_t kSbUnexplored = 0;
  /// Explored and found unprofitable (run shorter than kMinSuperblockOps
  /// for a reason other than hitting an undecoded slot).
  static constexpr std::uint16_t kSbDeclined = 0xffff;

  struct Page {
    std::array<DecodedOp, kOpsPerPage> ops;
    /// Per-slot superblock anchor: kSbUnexplored, kSbDeclined, or the
    /// anchored block's index in `superblocks` plus one.  A non-sentinel
    /// value always names a *live* block (kills reset the head).
    std::array<std::uint16_t, kOpsPerPage> sb_head;
    std::vector<Superblock> superblocks;
    Page() { reset(); }
    void reset() {
      for (DecodedOp& op : ops) {
        op = DecodedOp{kUndecodedOp, 0, 0, 0, 0};
      }
      sb_head.fill(kSbUnexplored);
      superblocks.clear();
    }
  };

  Page& page_slow(std::uint32_t index);
  static void decode_into(DecodedOp& op, std::uint32_t pc,
                          const mem::GuestMemory& memory);

  /// Walk the decoded run starting at `slot`, fusing while fusable.
  /// Returns the new sb_head value for the slot: a block id+1, or
  /// kSbDeclined, or kSbUnexplored when the verdict must wait (run cut
  /// short by a not-yet-decoded slot — formation never decodes, so the
  /// `decodes` gauge stays identical across the fast cores).
  std::uint16_t form_superblock(Page& page, std::uint32_t slot);

  /// Drop dead block records and re-anchor the survivors' heads (runs only
  /// from form_superblock, never while an executor is inside a block, so
  /// moving the storage is safe).
  static void compact_superblocks(Page& page);

  mem::PageTable<Page> pages_;
  Page* mru_ = nullptr;
  std::uint32_t mru_index_ = 0xffff'ffff;
  Stats stats_;
  SuperblockCosts costs_;
};

} // namespace proxima::vm
