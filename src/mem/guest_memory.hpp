// Sparse 32-bit guest physical memory.
//
// Backing store for the LEON3-class platform model.  SPARC v8 is big-endian;
// all multi-byte accessors use big-endian byte order so that relocated code
// images are bit-exact copies of the originals, as they would be on the real
// target.
#pragma once

#include "mem/page_table.hpp"

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace proxima::mem {

/// Observer of guest-memory mutations.  The fast VM core's decode cache
/// registers one so that any write behind its back — DSR relocation, a
/// static re-link reload, a guest store into code — invalidates the
/// affected predecoded instructions before they can be dispatched again.
class MemoryWriteListener {
public:
  virtual ~MemoryWriteListener() = default;
  /// [addr, addr+length) was (re)written.
  virtual void on_memory_written(std::uint32_t addr, std::uint32_t length) = 0;
  /// The whole address space was dropped (partition image wipe).
  virtual void on_memory_cleared() = 0;
};

class GuestMemory {
public:
  static constexpr std::uint32_t kPageBytes = 4096;

  std::uint8_t read_u8(std::uint32_t addr) const;
  std::uint16_t read_u16(std::uint32_t addr) const;
  std::uint64_t read_u64(std::uint32_t addr) const;
  double read_f64(std::uint32_t addr) const;

  /// Word read.  A word inside one page (the dispatch loop's case) is
  /// inlined; a word straddling two pages takes the byte path.
  std::uint32_t read_u32(std::uint32_t addr) const {
    const std::uint32_t offset = addr % kPageBytes;
    if (offset <= kPageBytes - 4) [[likely]] {
      const Page* page = pages_.find(addr / kPageBytes);
      return page == nullptr ? 0 : load_be32(page->data() + offset);
    }
    return (static_cast<std::uint32_t>(read_u16(addr)) << 16) |
           read_u16(addr + 2);
  }

  void write_u8(std::uint32_t addr, std::uint8_t value);
  void write_u16(std::uint32_t addr, std::uint16_t value);
  void write_u64(std::uint32_t addr, std::uint64_t value);
  void write_f64(std::uint32_t addr, double value);

  /// Word write, inlined like read_u32 when the word sits in one page.
  void write_u32(std::uint32_t addr, std::uint32_t value) {
    const std::uint32_t offset = addr % kPageBytes;
    if (offset <= kPageBytes - 4) [[likely]] {
      store_be32(pages_.get(addr / kPageBytes).data() + offset, value);
    } else {
      poke_u32_straddling(addr, value);
    }
    if (!listeners_.empty()) {
      notify_written(addr, 4);
    }
  }

  /// Copy `length` bytes from `src` to `dst` inside guest memory.  Used by
  /// the DSR runtime's eager relocation loop.  Non-overlapping ranges take
  /// a page-span memmove fast path (the relocation hot loop); overlapping
  /// ranges fall back to the ordered byte loop.
  void copy(std::uint32_t dst, std::uint32_t src, std::uint32_t length);

  /// Store `count` consecutive big-endian words starting at `addr` (the
  /// DSR metadata-table flush).  Exactly equivalent to `count` calls of
  /// write_u32 except that listeners get ONE notification for the whole
  /// span instead of one per word.
  void write_u32_span(std::uint32_t addr, const std::uint32_t* values,
                      std::uint32_t count);

  /// Fill a range with a byte value (e.g. zeroing a fresh pool chunk).
  /// Like load, one memset per page span and one listener notification.
  void fill(std::uint32_t addr, std::uint32_t length, std::uint8_t value);

  /// Bulk load (program images): one memcpy per page span, then one
  /// listener notification for the whole range.
  void load(std::uint32_t addr, const std::vector<std::uint8_t>& bytes);

  /// Number of physical pages currently materialised.
  std::size_t resident_pages() const noexcept { return pages_.size(); }

  /// Drop all contents (partition reboot wipes the partition image before
  /// the loader rewrites it).
  void clear() {
    pages_.clear();
    for (MemoryWriteListener* listener : listeners_) {
      listener->on_memory_cleared();
    }
  }

  /// Register / deregister a mutation observer.  Listeners are notified on
  /// every write; with none registered the notification cost is one branch.
  void add_write_listener(MemoryWriteListener* listener);
  void remove_write_listener(MemoryWriteListener* listener);

private:
  using Page = std::array<std::uint8_t, kPageBytes>;

  static std::uint32_t load_be32(const std::uint8_t* bytes) noexcept {
    return (static_cast<std::uint32_t>(bytes[0]) << 24) |
           (static_cast<std::uint32_t>(bytes[1]) << 16) |
           (static_cast<std::uint32_t>(bytes[2]) << 8) |
           static_cast<std::uint32_t>(bytes[3]);
  }
  static void store_be32(std::uint8_t* bytes, std::uint32_t value) noexcept {
    bytes[0] = static_cast<std::uint8_t>(value >> 24);
    bytes[1] = static_cast<std::uint8_t>(value >> 16);
    bytes[2] = static_cast<std::uint8_t>(value >> 8);
    bytes[3] = static_cast<std::uint8_t>(value);
  }

  Page& page_for(std::uint32_t addr) { return pages_.get(addr / kPageBytes); }
  const Page* page_if_present(std::uint32_t addr) const {
    return pages_.find(addr / kPageBytes);
  }

  void notify_written(std::uint32_t addr, std::uint32_t length) {
    for (MemoryWriteListener* listener : listeners_) {
      listener->on_memory_written(addr, length);
    }
  }

  /// Non-notifying byte write used by the bulk operations, which notify
  /// once for the whole range instead of once per byte.
  void poke_u8(std::uint32_t addr, std::uint8_t value) {
    page_for(addr)[addr % kPageBytes] = value;
  }
  /// Non-notifying big-endian word write across a page boundary.
  void poke_u32_straddling(std::uint32_t addr, std::uint32_t value);
  /// Split [addr, addr+length) at page boundaries, materialising each page,
  /// and call `fn(page_bytes, done, span)` once per span in address order.
  template <typename Fn>
  void for_each_page_span(std::uint32_t addr, std::size_t length, Fn&& fn);

  PageTable<Page> pages_;
  std::vector<MemoryWriteListener*> listeners_;
};

} // namespace proxima::mem
