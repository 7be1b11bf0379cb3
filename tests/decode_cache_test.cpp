// Unit tests for the DecodeCache's two invalidation shapes — the per-slot
// write-listener walk and the kMaxPages wholesale drop (which must reset
// the MRU page memo, never leaving a dangling pointer) — and for its radix
// page table.
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
