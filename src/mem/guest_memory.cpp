#include "guest_memory.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace proxima::mem {

std::uint8_t GuestMemory::read_u8(std::uint32_t addr) const {
  const Page* page = page_if_present(addr);
  return page == nullptr ? 0 : (*page)[addr % kPageBytes];
}

std::uint16_t GuestMemory::read_u16(std::uint32_t addr) const {
  return static_cast<std::uint16_t>((read_u8(addr) << 8) | read_u8(addr + 1));
}

std::uint64_t GuestMemory::read_u64(std::uint32_t addr) const {
  return (static_cast<std::uint64_t>(read_u32(addr)) << 32) | read_u32(addr + 4);
}

double GuestMemory::read_f64(std::uint32_t addr) const {
  return std::bit_cast<double>(read_u64(addr));
}

void GuestMemory::write_u8(std::uint32_t addr, std::uint8_t value) {
  poke_u8(addr, value);
  if (!listeners_.empty()) {
    notify_written(addr, 1);
  }
}

void GuestMemory::write_u16(std::uint32_t addr, std::uint16_t value) {
  poke_u8(addr, static_cast<std::uint8_t>(value >> 8));
  poke_u8(addr + 1, static_cast<std::uint8_t>(value));
  if (!listeners_.empty()) {
    notify_written(addr, 2);
  }
}

void GuestMemory::poke_u32_straddling(std::uint32_t addr,
                                      std::uint32_t value) {
  poke_u8(addr, static_cast<std::uint8_t>(value >> 24));
  poke_u8(addr + 1, static_cast<std::uint8_t>(value >> 16));
  poke_u8(addr + 2, static_cast<std::uint8_t>(value >> 8));
  poke_u8(addr + 3, static_cast<std::uint8_t>(value));
}

void GuestMemory::write_u64(std::uint32_t addr, std::uint64_t value) {
  write_u32(addr, static_cast<std::uint32_t>(value >> 32));
  write_u32(addr + 4, static_cast<std::uint32_t>(value));
}

void GuestMemory::write_f64(std::uint32_t addr, double value) {
  write_u64(addr, std::bit_cast<std::uint64_t>(value));
}

void GuestMemory::copy(std::uint32_t dst, std::uint32_t src,
                       std::uint32_t length) {
  const bool overlaps =
      length != 0 && dst < src + length && src < dst + length;
  if (!overlaps) {
    // Relocation hot path: move whole page spans with memcpy.  An absent
    // source page reads as zero, matching the byte loop's read_u8.
    std::uint32_t done = 0;
    while (done < length) {
      const std::uint32_t s = src + done;
      const std::uint32_t d = dst + done;
      const std::uint32_t span =
          std::min({length - done, kPageBytes - s % kPageBytes,
                    kPageBytes - d % kPageBytes});
      std::uint8_t* out = page_for(d).data() + d % kPageBytes;
      if (const Page* page = page_if_present(s)) {
        std::memcpy(out, page->data() + s % kPageBytes, span);
      } else {
        std::memset(out, 0, span);
      }
      done += span;
    }
  } else if (dst <= src) {
    for (std::uint32_t i = 0; i < length; ++i) {
      poke_u8(dst + i, read_u8(src + i));
    }
  } else {
    for (std::uint32_t i = length; i-- > 0;) {
      poke_u8(dst + i, read_u8(src + i));
    }
  }
  if (length != 0 && !listeners_.empty()) {
    notify_written(dst, length);
  }
}

void GuestMemory::write_u32_span(std::uint32_t addr,
                                 const std::uint32_t* values,
                                 std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t word_addr = addr + 4 * i;
    const std::uint32_t offset = word_addr % kPageBytes;
    if (offset <= kPageBytes - 4) {
      store_be32(page_for(word_addr).data() + offset, values[i]);
    } else {
      poke_u32_straddling(word_addr, values[i]);
    }
  }
  if (count != 0 && !listeners_.empty()) {
    notify_written(addr, 4 * count);
  }
}

template <typename Fn>
void GuestMemory::for_each_page_span(std::uint32_t addr, std::size_t length,
                                     Fn&& fn) {
  std::size_t done = 0;
  while (done < length) {
    // Unsigned wrap: a range running past 0xffffffff continues at page 0.
    const std::uint32_t at = addr + static_cast<std::uint32_t>(done);
    const std::uint32_t offset = at % kPageBytes;
    const std::size_t span =
        std::min<std::size_t>(length - done, kPageBytes - offset);
    fn(page_for(at).data() + offset, done, span);
    done += span;
  }
}

void GuestMemory::fill(std::uint32_t addr, std::uint32_t length,
                       std::uint8_t value) {
  for_each_page_span(addr, length,
                     [value](std::uint8_t* out, std::size_t, std::size_t span) {
                       std::memset(out, value, span);
                     });
  if (length != 0 && !listeners_.empty()) {
    notify_written(addr, length);
  }
}

void GuestMemory::load(std::uint32_t addr,
                       const std::vector<std::uint8_t>& bytes) {
  for_each_page_span(
      addr, bytes.size(),
      [&bytes](std::uint8_t* out, std::size_t done, std::size_t span) {
        std::memcpy(out, bytes.data() + done, span);
      });
  if (!bytes.empty() && !listeners_.empty()) {
    notify_written(addr, static_cast<std::uint32_t>(bytes.size()));
  }
}

void GuestMemory::add_write_listener(MemoryWriteListener* listener) {
  if (listener != nullptr) {
    listeners_.push_back(listener);
  }
}

void GuestMemory::remove_write_listener(MemoryWriteListener* listener) {
  std::erase(listeners_, listener);
}

} // namespace proxima::mem
