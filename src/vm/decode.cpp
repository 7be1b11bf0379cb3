#include "decode.hpp"

namespace proxima::vm {

namespace {

/// Ops a superblock may fuse: straight-line work with no control transfer,
/// register-window traffic, trap, or service handler.  [kNop..kStfx] is
/// exactly nop + ALU + mul/div + every load/store; the FP arithmetic block
/// is contiguous further up.  Everything else — branches, kCall/kJmpl,
/// kSave/kSavex/kRestore, kRdtick/kIpoint/kFlush/kHalt/kTrapReloc and the
/// kUndecodedOp/kInvalidOp sentinels — terminates formation.
bool fusable_handler(std::uint8_t handler) {
  return handler <= static_cast<std::uint8_t>(isa::Opcode::kStfx) ||
         (handler >= static_cast<std::uint8_t>(isa::Opcode::kFaddd) &&
          handler <= static_cast<std::uint8_t>(isa::Opcode::kFabsd));
}

} // namespace

DecodeCache::Page& DecodeCache::page_slow(std::uint32_t index) {
  if (Page* page = pages_.find(index)) {
    return *page;
  }
  if (pages_.size() >= kMaxPages) {
    // Footprint cap: drop everything rather than track per-page LRU —
    // re-decoding is cheap and this fires only after DSR relocation has
    // visited thousands of distinct pool pages.
    invalidate_all();
  }
  return pages_.get(index);
}

void DecodeCache::decode_into(DecodedOp& op, std::uint32_t pc,
                              const mem::GuestMemory& memory) {
  const std::uint32_t word = memory.read_u32(pc);
  try {
    const isa::Instruction instr = isa::decode(word);
    op.handler = static_cast<std::uint8_t>(instr.op);
    op.rd = instr.rd;
    op.rs1 = instr.rs1;
    op.rs2 = instr.rs2;
    op.imm = instr.imm;
  } catch (const isa::DecodeError&) {
    op = DecodedOp{kInvalidOp, 0, 0, 0, 0};
  }
}

void DecodeCache::predecode_range(const mem::GuestMemory& memory,
                                  std::uint32_t addr, std::uint32_t length) {
  if (length == 0) {
    return;
  }
  const std::uint32_t first = addr & ~3u;
  const std::uint32_t last = (addr + length - 1) & ~3u;
  for (std::uint32_t pc = first;; pc += 4) {
    Page& page = page_slow(pc >> kPageShift);
    DecodedOp& op = page.ops[(pc & ((1u << kPageShift) - 1)) >> 2];
    ++stats_.decodes;
    decode_into(op, pc, memory);
    if (pc == last) {
      break;
    }
  }
}

std::uint16_t DecodeCache::form_superblock(Page& page, std::uint32_t slot) {
  std::uint32_t end = slot;
  while (end < kOpsPerPage && fusable_handler(page.ops[end].handler)) {
    ++end;
  }
  const std::uint32_t count = end - slot;
  if (count < kMinSuperblockOps) {
    if (end < kOpsPerPage && page.ops[end].handler == kUndecodedOp) {
      // Run cut short by a slot nobody has decoded yet: no verdict —
      // retry once the op-at-a-time path decodes it.  Formation itself
      // never decodes, so the `decodes` gauge stays identical between the
      // fast and fast-sb cores.
      return kSbUnexplored;
    }
    page.sb_head[slot] = kSbDeclined;
    return kSbDeclined;
  }
  if (page.superblocks.size() >= kMaxBlocksPerPage) {
    compact_superblocks(page);
  }
  Superblock sb;
  sb.begin = static_cast<std::uint16_t>(slot);
  sb.count = static_cast<std::uint16_t>(count);
  sb.plan.resize(count);
  const std::uint32_t line_words =
      costs_.fetch_line_words == 0 ? 1 : costs_.fetch_line_words;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t handler = page.ops[slot + i].handler;
    SuperblockOp& op = sb.plan[i];
    // The unconditional pre-fault charge: the 1-cycle dispatch base, plus
    // the full multiply latency for kMul/kMuli (the only extra charge the
    // op-at-a-time core books with no fault check in front of it).  Every
    // other latency stays behind its fault check in the executor.
    op.pre_cycles =
        (handler == static_cast<std::uint8_t>(isa::Opcode::kMul) ||
         handler == static_cast<std::uint8_t>(isa::Opcode::kMuli))
            ? static_cast<std::uint16_t>(costs_.mul_cycles)
            : std::uint16_t{1};
    // Pages are 4 KiB-aligned, a multiple of any line size, so a line
    // boundary is simply a slot index divisible by the line's word count.
    op.new_line = i == 0 || (slot + i) % line_words == 0;
  }
  page.superblocks.push_back(std::move(sb));
  const std::uint16_t head = static_cast<std::uint16_t>(page.superblocks.size());
  page.sb_head[slot] = head;
  ++stats_.superblocks_formed;
  return head;
}

void DecodeCache::compact_superblocks(Page& page) {
  std::vector<Superblock> live;
  live.reserve(page.superblocks.size() / 2);
  for (Superblock& sb : page.superblocks) {
    if (sb.live) {
      live.push_back(std::move(sb));
    }
  }
  page.superblocks = std::move(live);
  for (std::uint16_t& head : page.sb_head) {
    if (head != kSbDeclined) {
      head = kSbUnexplored;
    }
  }
  for (std::size_t i = 0; i < page.superblocks.size(); ++i) {
    page.sb_head[page.superblocks[i].begin] =
        static_cast<std::uint16_t>(i + 1);
  }
}

void DecodeCache::invalidate_all() {
  ++stats_.full_invalidations;
  pages_.for_each([this](const Page& page) {
    for (const Superblock& sb : page.superblocks) {
      if (sb.live) {
        ++stats_.superblocks_invalidated;
      }
    }
  });
  pages_.clear();
  mru_ = nullptr;
  mru_index_ = 0xffff'ffff;
}

void DecodeCache::on_memory_written(std::uint32_t addr, std::uint32_t length) {
  if (length == 0) {
    return;
  }
  ++stats_.write_invalidation_events;
  invalidate_range(addr, length);
}

void DecodeCache::invalidate_range(std::uint32_t addr, std::uint32_t length) {
  if (length == 0) {
    return;
  }
  const std::uint32_t first_word = addr >> 2;
  const std::uint32_t last_word = (addr + length - 1) >> 2;
  const std::uint32_t first_page = first_word >> (kPageShift - 2);
  const std::uint32_t last_page = last_word >> (kPageShift - 2);
  for (std::uint32_t index = first_page;; ++index) {
    if (Page* found = pages_.find(index)) {
      Page& page = *found;
      const std::uint32_t begin =
          index == first_page ? first_word & (kOpsPerPage - 1) : 0;
      const std::uint32_t end =
          index == last_page ? (last_word & (kOpsPerPage - 1)) + 1
                             : kOpsPerPage;
      // Kill every live superblock overlapping the written slots before
      // resetting them: a block's ops are about to change under it.  The
      // record stays in place (an executor mid-block polls `live` after
      // stores and bails); only the head anchor is unhooked.
      for (Superblock& sb : page.superblocks) {
        if (sb.live && sb.begin < end &&
            static_cast<std::uint32_t>(sb.begin) + sb.count > begin) {
          sb.live = false;
          page.sb_head[sb.begin] = kSbUnexplored;
          ++stats_.superblocks_invalidated;
        }
      }
      for (std::uint32_t slot = begin; slot < end; ++slot) {
        if (page.ops[slot].handler != kUndecodedOp) {
          ++stats_.invalidated_slots;
        }
        page.ops[slot].handler = kUndecodedOp;
        // Written slots also drop any declined/explored mark: the slot's
        // contents changed, so yesterday's verdict is void.
        page.sb_head[slot] = kSbUnexplored;
      }
    }
    if (index == last_page) {
      break;
    }
  }
}

} // namespace proxima::vm
