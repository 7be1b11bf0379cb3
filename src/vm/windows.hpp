// SPARC register-window addressing, shared by both cores and the taint
// shadow.
//
// The windowed register file holds nwindows slices of 16 slots: window w's
// outs occupy [16w, 16w+8) and its locals [16w+8, 16w+16).  Its ins are the
// outs of window w+1 (mod nwindows), so a SAVE's outs become the callee's
// ins without a copy.  Every window op keeps cwp < nwindows, so the outs and
// locals of a window never wrap; only the ins of window nwindows-1 wrap, to
// window 0.  A visible register is therefore one of three bases plus a
// constant offset, and the bases change only when cwp does.
#pragma once

#include <cstdint>

namespace proxima::vm {

/// First physical slot of window `w`'s outs (its locals follow at +8).
constexpr std::uint32_t window_base(std::uint32_t w) { return w * 16; }

/// First physical slot of window `w`'s ins: the outs of window w+1.
constexpr std::uint32_t window_ins_base(std::uint32_t w,
                                        std::uint32_t nwindows) {
  return window_base(w + 1 == nwindows ? 0 : w + 1);
}

/// The 32 registers visible through window `cwp`, as four groups of eight:
/// %g0-%g7 from the globals, %o0-%o7 and %l0-%l7 from the window's own
/// slice, %i0-%i7 from the next window's outs.  Requires cwp < nwindows.
/// Indexing is two loads with no branch on the register number; an index
/// of 32 or more wraps to index % 32.  Holds plain pointers, so the fast
/// core keeps one in locals and rebuilds it only after a window op moves
/// cwp.
template <typename T>
class RegisterWindow {
public:
  RegisterWindow(T* globals, T* windowed, std::uint32_t cwp,
                 std::uint32_t nwindows)
      : groups_{globals, windowed + window_base(cwp),
                windowed + window_base(cwp) + 8,
                windowed + window_ins_base(cwp, nwindows)} {}

  T& operator[](std::uint8_t index) const {
    return groups_[(index >> 3) & 3][index & 7];
  }

private:
  T* groups_[4];
};

} // namespace proxima::vm
