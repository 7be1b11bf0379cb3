// Unit tests for the DecodeCache's two invalidation shapes — the per-slot
// write-listener walk (which must also kill covering superblocks) and the
// kMaxPages wholesale drop (which must reset the MRU page memo and every
// superblock, never leaving a dangling pointer) — plus the superblock
// formation rules the fast-sb dispatch tier relies on.
#include "isa/instruction.hpp"
#include "mem/guest_memory.hpp"
#include "vm/decode.hpp"

#include <gtest/gtest.h>

namespace {

using namespace proxima;
using vm::DecodeCache;

constexpr std::uint8_t kAddHandler =
    static_cast<std::uint8_t>(isa::Opcode::kAdd);

std::uint32_t add_word() {
  return isa::encode(isa::make_r(isa::Opcode::kAdd, 9, 9, 10));
}

std::uint32_t halt_word() {
  return isa::encode(isa::make_r(isa::Opcode::kHalt, 0, 0, 0));
}

std::uint32_t page_pc(std::size_t page) {
  return static_cast<std::uint32_t>(page << DecodeCache::kPageShift);
}

// Exceeding kMaxPages drops the whole cache: full_invalidations increments
// once, the page map restarts from the page that tripped the cap, and the
// one-entry MRU memo is reset — a lookup of a pre-drop page must
// re-materialise and re-decode it (to the same DecodedOp), not read freed
// storage.
TEST(DecodeCache, PageCapWholesaleDropResetsMemoAndRedecodes) {
  mem::GuestMemory memory;
  DecodeCache cache;
  for (std::size_t page = 0; page <= DecodeCache::kMaxPages; ++page) {
    memory.write_u32(page_pc(page), add_word());
  }

  for (std::size_t page = 0; page < DecodeCache::kMaxPages; ++page) {
    ASSERT_EQ(cache.at(page_pc(page), memory).handler, kAddHandler);
  }
  // Copy (not reference) the last pre-drop slot: the drop frees its page.
  const vm::DecodedOp before =
      cache.at(page_pc(DecodeCache::kMaxPages - 1), memory);
  EXPECT_EQ(cache.resident_pages(), DecodeCache::kMaxPages);
  EXPECT_EQ(cache.stats().full_invalidations, 0u);
  EXPECT_EQ(cache.stats().decodes, DecodeCache::kMaxPages);

  // One page past the cap: wholesale drop, then the new page comes in.
  const std::uint32_t over_pc = page_pc(DecodeCache::kMaxPages);
  EXPECT_EQ(cache.at(over_pc, memory).handler, kAddHandler);
  EXPECT_EQ(cache.stats().full_invalidations, 1u);
  EXPECT_EQ(cache.resident_pages(), 1u);

  // The memo now holds the new page; same-page lookups stay on it.
  EXPECT_EQ(cache.at(over_pc, memory).handler, kAddHandler);
  EXPECT_EQ(cache.stats().decodes, DecodeCache::kMaxPages + 1);

  // A dropped page re-decodes to a bit-identical DecodedOp — the drop is
  // invisible to execution semantics.
  const vm::DecodedOp& after =
      cache.at(page_pc(DecodeCache::kMaxPages - 1), memory);
  EXPECT_EQ(after.handler, before.handler);
  EXPECT_EQ(after.rd, before.rd);
  EXPECT_EQ(after.rs1, before.rs1);
  EXPECT_EQ(after.rs2, before.rs2);
  EXPECT_EQ(after.imm, before.imm);
  EXPECT_EQ(cache.stats().decodes, DecodeCache::kMaxPages + 2);
  EXPECT_EQ(cache.resident_pages(), 2u);
}

// The wholesale drop also retires live superblocks (counted into
// superblocks_invalidated) and the next query re-forms them from the
// re-decoded slots.
TEST(DecodeCache, PageCapDropKillsAndReformsSuperblocks) {
  mem::GuestMemory memory;
  DecodeCache cache;
  // Page 0: a fusable run of 8 adds terminated by a halt.
  for (std::uint32_t slot = 0; slot < 8; ++slot) {
    memory.write_u32(slot * 4, add_word());
  }
  memory.write_u32(8 * 4, halt_word());
  for (std::uint32_t slot = 0; slot <= 8; ++slot) {
    cache.at(slot * 4, memory); // formation never decodes; warm the run
  }

  const vm::DecodedOp* ops = nullptr;
  const vm::Superblock* block = cache.superblock_at(0, &ops);
  ASSERT_NE(block, nullptr);
  EXPECT_TRUE(block->live);
  EXPECT_EQ(block->begin, 0u);
  EXPECT_EQ(block->count, 8u);
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops[0].handler, kAddHandler);
  EXPECT_EQ(cache.stats().superblocks_formed, 1u);

  // Trip the page cap from other pages.
  for (std::size_t page = 1; page <= DecodeCache::kMaxPages; ++page) {
    memory.write_u32(page_pc(page), add_word());
    cache.at(page_pc(page), memory);
  }
  EXPECT_EQ(cache.stats().full_invalidations, 1u);
  EXPECT_EQ(cache.stats().superblocks_invalidated, 1u);

  // Re-decode the run; the block re-forms identically.
  for (std::uint32_t slot = 0; slot <= 8; ++slot) {
    cache.at(slot * 4, memory);
  }
  block = cache.superblock_at(0, &ops);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->count, 8u);
  EXPECT_EQ(cache.stats().superblocks_formed, 2u);
}

// The write-listener walk must kill a live superblock covering a written
// slot IN PLACE (live flips false, storage unmoved) — that is what lets a
// mid-block executor poll for the kill and bail exactly.
TEST(DecodeCache, WriteInvalidationKillsCoveringSuperblockInPlace) {
  mem::GuestMemory memory;
  DecodeCache cache;
  for (std::uint32_t slot = 0; slot < 8; ++slot) {
    memory.write_u32(slot * 4, add_word());
  }
  memory.write_u32(8 * 4, halt_word());
  for (std::uint32_t slot = 0; slot <= 8; ++slot) {
    cache.at(slot * 4, memory);
  }
  const vm::DecodedOp* ops = nullptr;
  const vm::Superblock* block = cache.superblock_at(0, &ops);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->count, 8u);

  // Overwrite the middle of the block, as a self-modifying store would.
  memory.write_u32(4 * 4, halt_word());
  cache.on_memory_written(4 * 4, 4);
  EXPECT_FALSE(block->live) << "kill must flip the existing record";
  EXPECT_EQ(cache.stats().superblocks_invalidated, 1u);
  EXPECT_EQ(cache.stats().invalidated_slots, 1u);

  // The anchor slot was unhooked, and the re-formed block (after the
  // written slot is re-decoded) stops at the new halt.
  for (std::uint32_t slot = 0; slot <= 8; ++slot) {
    cache.at(slot * 4, memory);
  }
  const vm::Superblock* reformed = cache.superblock_at(0, &ops);
  ASSERT_NE(reformed, nullptr);
  EXPECT_TRUE(reformed->live);
  EXPECT_EQ(reformed->count, 4u) << "run now ends at the patched halt";
}

// Runs shorter than kMinSuperblockOps are declined, and a run cut short by
// a not-yet-decoded slot stays undecided (formation never decodes, so the
// decode counter remains core-independent).
TEST(DecodeCache, FormationDeclinesShortRunsAndDefersUndecodedCuts) {
  mem::GuestMemory memory;
  DecodeCache cache;
  // Slot 0-1: adds, slot 2: halt — a 2-op run, below kMinSuperblockOps.
  memory.write_u32(0, add_word());
  memory.write_u32(4, add_word());
  memory.write_u32(8, halt_word());
  cache.at(0, memory);
  cache.at(4, memory);
  cache.at(8, memory);
  const vm::DecodedOp* ops = nullptr;
  EXPECT_EQ(cache.superblock_at(0, &ops), nullptr);
  EXPECT_EQ(cache.stats().superblocks_formed, 0u);

  // Slot 16.. : two decoded adds followed by an UNDECODED slot — the
  // verdict must wait (could still grow past the minimum once decoded).
  memory.write_u32(16 * 4, add_word());
  memory.write_u32(17 * 4, add_word());
  memory.write_u32(18 * 4, add_word());
  memory.write_u32(19 * 4, add_word());
  memory.write_u32(20 * 4, halt_word());
  cache.at(16 * 4, memory);
  cache.at(17 * 4, memory);
  EXPECT_EQ(cache.superblock_at(16 * 4, &ops), nullptr);
  const std::uint64_t decodes = cache.stats().decodes;
  // Decode the rest: the same query now succeeds with the full run.
  cache.at(18 * 4, memory);
  cache.at(19 * 4, memory);
  cache.at(20 * 4, memory);
  const vm::Superblock* block = cache.superblock_at(16 * 4, &ops);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->count, 4u);
  EXPECT_EQ(cache.stats().decodes, decodes + 3)
      << "superblock_at must never decode slots itself";
}

// Decoded pages live in a two-level radix table (1024 leaves of 1024
// pages).  Pages in different leaves decode, count and invalidate
// independently, and a write into a leaf the cache never touched is a
// no-op.
TEST(DecodeCache, PagesInDifferentRadixLeaves) {
  mem::GuestMemory memory;
  DecodeCache cache;
  const std::uint32_t pcs[] = {0x0000'0000, 0x003f'f000, 0xffff'f000};
  for (const std::uint32_t pc : pcs) {
    memory.write_u32(pc, add_word());
    ASSERT_EQ(cache.at(pc, memory).handler, kAddHandler);
  }
  EXPECT_EQ(cache.resident_pages(), 3u);

  cache.on_memory_written(0x8000'0000, 4); // untouched leaf
  cache.on_memory_written(0x0040'0000, 4); // untouched leaf, next to page 2
  EXPECT_EQ(cache.stats().invalidated_slots, 0u);
  EXPECT_EQ(cache.resident_pages(), 3u);

  cache.on_memory_written(0x003f'f000, 4);
  EXPECT_EQ(cache.stats().invalidated_slots, 1u);
  EXPECT_EQ(cache.at(0x0000'0000, memory).handler, kAddHandler);
  EXPECT_EQ(cache.at(0xffff'f000, memory).handler, kAddHandler);
  EXPECT_EQ(cache.stats().decodes, 3u) << "other leaves stay decoded";
  EXPECT_EQ(cache.at(0x003f'f000, memory).handler, kAddHandler);
  EXPECT_EQ(cache.stats().decodes, 4u);
}

// A word written at page offset 4092 covers only the page's last slot; one
// at offset 4093 straddles into the next page (here: the next radix leaf)
// and must reset the last slot of one page and the first slot of the next.
TEST(DecodeCache, WritesAtEndOfPage) {
  mem::GuestMemory memory;
  DecodeCache cache;
  const std::uint32_t page = 0x0040'0000 - (1u << DecodeCache::kPageShift);
  const std::uint32_t last = page + 4092;
  const std::uint32_t next = page + 4096;
  memory.write_u32(last, add_word());
  memory.write_u32(next, add_word());
  cache.at(last, memory);
  cache.at(next, memory);
  EXPECT_EQ(cache.resident_pages(), 2u);

  cache.on_memory_written(last, 4);
  EXPECT_EQ(cache.stats().invalidated_slots, 1u);
  cache.at(last, memory);

  cache.on_memory_written(page + 4093, 4);
  EXPECT_EQ(cache.stats().invalidated_slots, 3u);
  const std::uint64_t decodes = cache.stats().decodes;
  cache.at(last, memory);
  cache.at(next, memory);
  EXPECT_EQ(cache.stats().decodes, decodes + 2);
}

// A guest-memory wipe drops every decoded page through the listener.
TEST(DecodeCache, ResidentPagesAcrossClear) {
  mem::GuestMemory memory;
  DecodeCache cache;
  memory.add_write_listener(&cache);
  EXPECT_EQ(cache.resident_pages(), 0u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    memory.write_u32(i * 0x0100'0000, add_word()); // four different leaves
    cache.at(i * 0x0100'0000, memory);
  }
  EXPECT_EQ(cache.resident_pages(), 4u);
  memory.clear();
  EXPECT_EQ(cache.resident_pages(), 0u);
  EXPECT_EQ(cache.stats().full_invalidations, 1u);
  // The slot re-decodes from the wiped (zero) word: a nop.
  EXPECT_EQ(cache.at(0x0100'0000, memory).handler,
            static_cast<std::uint8_t>(isa::Opcode::kNop));
  EXPECT_EQ(cache.resident_pages(), 1u);
  memory.remove_write_listener(&cache);
}

// The kMaxPages cap counts pages, not leaves: pages scattered one per leaf
// trip the wholesale drop at exactly the same point as adjacent pages.
TEST(DecodeCache, PageCapFiresAtCapAcrossLeaves) {
  mem::GuestMemory memory;
  DecodeCache cache;
  const auto scattered_pc = [](std::size_t i) {
    return page_pc(i * 1023 + 5); // a different leaf for nearly every i
  };
  for (std::size_t i = 0; i < DecodeCache::kMaxPages; ++i) {
    memory.write_u32(scattered_pc(i), add_word());
    cache.at(scattered_pc(i), memory);
  }
  EXPECT_EQ(cache.resident_pages(), DecodeCache::kMaxPages);
  EXPECT_EQ(cache.stats().full_invalidations, 0u);
  // Revisiting a resident page does not count toward the cap.
  cache.at(scattered_pc(0), memory);
  EXPECT_EQ(cache.stats().full_invalidations, 0u);

  memory.write_u32(scattered_pc(DecodeCache::kMaxPages), add_word());
  cache.at(scattered_pc(DecodeCache::kMaxPages), memory);
  EXPECT_EQ(cache.stats().full_invalidations, 1u);
  EXPECT_EQ(cache.resident_pages(), 1u);
}

} // namespace
