// save/load helpers for the gs common primitive Ewma. gs_common stays
// ckpt-free: Ewma exposes raw-state accessors and this header, owned by
// gs_ckpt, does the encoding.
#pragma once

#include "ckpt/state_io.hpp"
#include "common/ewma.hpp"

namespace gs::ckpt {

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
