// Two-level radix table of lazily allocated pages, indexed by the 20-bit
// page number of a 32-bit guest address.
//
// The root is a fixed array of 1024 leaf pointers held inline (8 KiB); each
// leaf is 1024 page pointers (8 KiB) allocated on the first page created
// under it, and each page is allocated on first creation.  A lookup is two
// dependent loads with no hashing, and a miss on an absent region costs one
// null root probe.  GuestMemory, the fast core's DecodeCache and the taint
// shadow all key their per-access state by page number through this one
// type.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace proxima::mem {

template <typename Page>
class PageTable {
public:
  /// The page at `index`, or nullptr when it was never created.
  Page* find(std::uint32_t index) const noexcept {
    const Leaf* leaf = root_[(index >> kLeafBits) % kRootEntries].get();
    return leaf == nullptr ? nullptr
                           : (*leaf)[index & (kLeafEntries - 1)].get();
  }

  /// The page at `index`, value-initialised on first use.
  Page& get(std::uint32_t index) {
    if (Page* page = find(index)) [[likely]] {
      return *page;
    }
    return create(index);
  }

  /// Pages currently allocated.
  std::size_t size() const noexcept { return size_; }

  /// Free every page and leaf.
  void clear() noexcept {
    for (std::unique_ptr<Leaf>& leaf : root_) {
      leaf.reset();
    }
    size_ = 0;
  }

  /// Call `fn(page)` for every allocated page.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::unique_ptr<Leaf>& leaf : root_) {
      if (leaf != nullptr) {
        for (const std::unique_ptr<Page>& page : *leaf) {
          if (page != nullptr) {
            fn(*page);
          }
        }
      }
    }
  }

private:
  static constexpr std::uint32_t kLeafBits = 10;
  static constexpr std::uint32_t kLeafEntries = 1u << kLeafBits;
  /// Page numbers are 20 bits: 32-bit addresses over 4 KiB pages.
  static constexpr std::uint32_t kRootEntries = 1u << (20 - kLeafBits);

  using Leaf = std::array<std::unique_ptr<Page>, kLeafEntries>;

  Page& create(std::uint32_t index) {
    std::unique_ptr<Leaf>& leaf = root_[(index >> kLeafBits) % kRootEntries];
    if (leaf == nullptr) {
      leaf = std::make_unique<Leaf>();
    }
    std::unique_ptr<Page>& page = (*leaf)[index & (kLeafEntries - 1)];
    page = std::make_unique<Page>();
    ++size_;
    return *page;
  }

  std::array<std::unique_ptr<Leaf>, kRootEntries> root_{};
  std::size_t size_ = 0;
};

} // namespace proxima::mem
