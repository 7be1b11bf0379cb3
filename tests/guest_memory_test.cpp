// Unit tests for the sparse big-endian guest memory.
#include "mem/guest_memory.hpp"

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <utility>
#include <vector>

namespace {

using proxima::mem::GuestMemory;

/// Records every listener notification.
struct RecordingListener : proxima::mem::MemoryWriteListener {
  void on_memory_written(std::uint32_t addr, std::uint32_t length) override {
    writes.emplace_back(addr, length);
  }
  void on_memory_cleared() override {}
  std::vector<std::pair<std::uint32_t, std::uint32_t>> writes;
};

TEST(GuestMemory, ZeroInitialised) {
  GuestMemory mem;
  EXPECT_EQ(mem.read_u8(0x1000), 0u);
  EXPECT_EQ(mem.read_u32(0xdeadbeec), 0u);
  EXPECT_EQ(mem.resident_pages(), 0u); // reads do not materialise pages
}

TEST(GuestMemory, ByteRoundTrip) {
  GuestMemory mem;
  mem.write_u8(0x42, 0xab);
  EXPECT_EQ(mem.read_u8(0x42), 0xab);
}

TEST(GuestMemory, WordIsBigEndian) {
  GuestMemory mem;
  mem.write_u32(0x100, 0x11223344);
  EXPECT_EQ(mem.read_u8(0x100), 0x11);
  EXPECT_EQ(mem.read_u8(0x101), 0x22);
  EXPECT_EQ(mem.read_u8(0x102), 0x33);
  EXPECT_EQ(mem.read_u8(0x103), 0x44);
  EXPECT_EQ(mem.read_u32(0x100), 0x11223344u);
}

TEST(GuestMemory, HalfwordRoundTrip) {
  GuestMemory mem;
  mem.write_u16(0x200, 0xbeef);
  EXPECT_EQ(mem.read_u16(0x200), 0xbeef);
  EXPECT_EQ(mem.read_u8(0x200), 0xbe);
}

TEST(GuestMemory, DoublewordRoundTrip) {
  GuestMemory mem;
  mem.write_u64(0x300, 0x0102030405060708ULL);
  EXPECT_EQ(mem.read_u64(0x300), 0x0102030405060708ULL);
  EXPECT_EQ(mem.read_u32(0x300), 0x01020304u);
  EXPECT_EQ(mem.read_u32(0x304), 0x05060708u);
}

TEST(GuestMemory, DoubleRoundTrip) {
  GuestMemory mem;
  mem.write_f64(0x400, 3.14159265358979);
  EXPECT_DOUBLE_EQ(mem.read_f64(0x400), 3.14159265358979);
  mem.write_f64(0x408, -0.0);
  EXPECT_EQ(std::signbit(mem.read_f64(0x408)), true);
}

TEST(GuestMemory, CrossPageWord) {
  GuestMemory mem;
  const std::uint32_t addr = GuestMemory::kPageBytes - 2;
  mem.write_u32(addr, 0xcafebabe);
  EXPECT_EQ(mem.read_u32(addr), 0xcafebabeu);
  EXPECT_EQ(mem.resident_pages(), 2u);
}

TEST(GuestMemory, CopyNonOverlapping) {
  GuestMemory mem;
  for (std::uint32_t i = 0; i < 64; ++i) {
    mem.write_u8(0x1000 + i, static_cast<std::uint8_t>(i * 3));
  }
  mem.copy(0x2000, 0x1000, 64);
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_EQ(mem.read_u8(0x2000 + i), static_cast<std::uint8_t>(i * 3));
  }
}

TEST(GuestMemory, CopyOverlappingForward) {
  GuestMemory mem;
  for (std::uint32_t i = 0; i < 16; ++i) {
    mem.write_u8(0x100 + i, static_cast<std::uint8_t>(i));
  }
  mem.copy(0x104, 0x100, 16); // dst > src overlap
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_EQ(mem.read_u8(0x104 + i), i);
  }
}

TEST(GuestMemory, CopyOverlappingBackward) {
  GuestMemory mem;
  for (std::uint32_t i = 0; i < 16; ++i) {
    mem.write_u8(0x100 + i, static_cast<std::uint8_t>(i));
  }
  mem.copy(0xfc, 0x100, 16); // dst < src overlap
  for (std::uint32_t i = 0; i < 16; ++i) {
    ASSERT_EQ(mem.read_u8(0xfc + i), i);
  }
}

TEST(GuestMemory, FillAndLoad) {
  GuestMemory mem;
  mem.fill(0x500, 32, 0x5a);
  EXPECT_EQ(mem.read_u8(0x500), 0x5a);
  EXPECT_EQ(mem.read_u8(0x51f), 0x5a);
  EXPECT_EQ(mem.read_u8(0x520), 0u);

  mem.load(0x600, {1, 2, 3, 4});
  EXPECT_EQ(mem.read_u32(0x600), 0x01020304u);
}

TEST(GuestMemory, ClearDropsEverything) {
  GuestMemory mem;
  mem.write_u32(0x700, 0x12345678);
  mem.clear();
  EXPECT_EQ(mem.read_u32(0x700), 0u);
  EXPECT_EQ(mem.resident_pages(), 0u);
}

// Pages live in a two-level radix table: 1024 leaves of 1024 pages.  These
// three addresses sit in the first leaf's first page, the first leaf's last
// page and the last leaf's last page.
TEST(GuestMemory, PagesInDifferentRadixLeaves) {
  GuestMemory mem;
  const std::uint32_t addrs[] = {0x0000'0000, 0x003f'f000, 0xffff'f000};
  std::uint32_t value = 0x1020'3040;
  for (const std::uint32_t addr : addrs) {
    mem.write_u32(addr + 8, value++);
  }
  EXPECT_EQ(mem.resident_pages(), 3u);
  value = 0x1020'3040;
  for (const std::uint32_t addr : addrs) {
    EXPECT_EQ(mem.read_u32(addr + 8), value++);
    EXPECT_EQ(mem.read_u32(addr), 0u);
  }
  // Neighbouring pages, one in an unallocated leaf, read as zero and are
  // not materialised by the read.
  EXPECT_EQ(mem.read_u32(0x0040'0008), 0u);
  EXPECT_EQ(mem.read_u32(0x003f'e008), 0u);
  EXPECT_EQ(mem.read_u32(0xfffe'f008), 0u);
  EXPECT_EQ(mem.resident_pages(), 3u);
}

// Offset 4092 is the last word that fits in one page (the inline path);
// offset 4093 straddles into the next page (the byte path).  Both must be
// big-endian and agree byte for byte.
TEST(GuestMemory, WordsAtEndOfPage) {
  GuestMemory mem;
  const std::uint32_t page = 0x0040'0000 - GuestMemory::kPageBytes;
  mem.write_u32(page + 4092, 0xa1b2c3d4);
  EXPECT_EQ(mem.resident_pages(), 1u);
  EXPECT_EQ(mem.read_u32(page + 4092), 0xa1b2c3d4u);
  EXPECT_EQ(mem.read_u8(page + 4095), 0xd4u);

  // The next page begins a new radix leaf.
  mem.write_u32(page + 4093, 0x01020304);
  EXPECT_EQ(mem.resident_pages(), 2u);
  EXPECT_EQ(mem.read_u32(page + 4093), 0x01020304u);
  EXPECT_EQ(mem.read_u8(page + 4093), 0x01u);
  EXPECT_EQ(mem.read_u8(page + 4095), 0x03u);
  EXPECT_EQ(mem.read_u8(page + 4096), 0x04u);
  EXPECT_EQ(mem.read_u32(page + 4092), 0xa1010203u);
}

TEST(GuestMemory, ResidentPagesAcrossClear) {
  GuestMemory mem;
  EXPECT_EQ(mem.resident_pages(), 0u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    mem.write_u8(i * 0x0100'0000, 1); // five different leaves
  }
  EXPECT_EQ(mem.resident_pages(), 5u);
  mem.clear();
  EXPECT_EQ(mem.resident_pages(), 0u);
  EXPECT_EQ(mem.read_u8(0x0100'0000), 0u);
  // Pages re-materialise zeroed after the wipe.
  mem.write_u8(0x0100'0001, 7);
  EXPECT_EQ(mem.resident_pages(), 1u);
  EXPECT_EQ(mem.read_u32(0x0100'0000), 0x0007'0000u);
}

// load and fill write one page span at a time.  Spans that start
// unaligned and cross two page boundaries (in the second case one is a
// radix-leaf boundary, in the third the 0xffffffff -> 0 wrap) must leave memory exactly as
// a byte-by-byte write does, and notify listeners once for the whole range.
TEST(GuestMemory, BulkWritesMatchByteByByteReference) {
  const std::uint32_t starts[] = {0x0000'1ffd, 0x003f'effd, 0xffff'effd};
  // Three bytes, a whole page, then eight bytes: three pages.
  constexpr std::uint32_t kLength = GuestMemory::kPageBytes + 11;
  std::vector<std::uint8_t> image(kLength);
  for (std::uint32_t i = 0; i < kLength; ++i) {
    image[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  for (const std::uint32_t start : starts) {
    SCOPED_TRACE(start);
    GuestMemory bulk;
    GuestMemory reference;
    RecordingListener listener;
    bulk.add_write_listener(&listener);

    bulk.load(start, image);
    bulk.fill(start + 1, kLength - 2, 0x5a);
    for (std::uint32_t i = 0; i < kLength; ++i) {
      reference.write_u8(start + i, image[i]);
    }
    for (std::uint32_t i = 1; i < kLength - 1; ++i) {
      reference.write_u8(start + i, 0x5a);
    }

    EXPECT_EQ(bulk.resident_pages(), 3u);
    EXPECT_EQ(bulk.resident_pages(), reference.resident_pages());
    // One page of margin either side must stay zero too.
    for (std::uint32_t i = 0; i < kLength + 2 * GuestMemory::kPageBytes;
         ++i) {
      const std::uint32_t addr = start - GuestMemory::kPageBytes + i;
      ASSERT_EQ(bulk.read_u8(addr), reference.read_u8(addr)) << addr;
    }
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> expected = {
        {start, kLength}, {start + 1, kLength - 2}};
    EXPECT_EQ(listener.writes, expected);
    bulk.remove_write_listener(&listener);
  }
}

TEST(GuestMemory, EmptyBulkWritesTouchNothing) {
  GuestMemory mem;
  RecordingListener listener;
  mem.add_write_listener(&listener);
  mem.load(0x1000, {});
  mem.fill(0x1000, 0, 0xff);
  EXPECT_EQ(mem.resident_pages(), 0u);
  EXPECT_TRUE(listener.writes.empty());
  mem.remove_write_listener(&listener);
}

TEST(GuestMemory, HighAddressesWork) {
  GuestMemory mem;
  mem.write_u32(0xfffffff8, 0x99aabbcc);
  EXPECT_EQ(mem.read_u32(0xfffffff8), 0x99aabbccu);
}

} // namespace
