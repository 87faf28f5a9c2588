// save/load helpers for the gs common primitives (Rng, Ewma). gs_common
// stays ckpt-free: the primitives expose raw-state accessors and this
// header, owned by gs_ckpt, does the encoding.
#pragma once

#include "ckpt/state_io.hpp"
#include "common/ewma.hpp"
#include "common/rng.hpp"

namespace gs::ckpt {

inline void save_rng(StateWriter& w, const Rng& rng) {
  for (const std::uint64_t word : rng.state()) w.u64(word);
}

inline void load_rng(StateReader& r, Rng& rng) {
  std::array<std::uint64_t, 4> s{};
  for (auto& word : s) word = r.u64();
  rng.set_state(s);
}

inline void save_ewma(StateWriter& w, const Ewma& e) {
  w.f64(e.raw_value());
  w.boolean(e.primed());
}

inline void load_ewma(StateReader& r, Ewma& e) {
  const double value = r.f64();
  const bool primed = r.boolean();
  e.restore(value, primed);
}

}  // namespace gs::ckpt
