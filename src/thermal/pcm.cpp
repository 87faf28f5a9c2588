#include "thermal/pcm.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"

namespace gs::thermal {

PcmBuffer::PcmBuffer(PcmConfig cfg) : cfg_(cfg) {
  GS_REQUIRE(cfg_.latent_capacity.value() > 0.0,
             "PCM capacity must be positive");
  GS_REQUIRE(cfg_.sustained_cooling.value() > 0.0,
             "cooling capacity must be positive");
}

bool PcmBuffer::absorb(Watts power, Seconds dt) {
  GS_REQUIRE(power.value() >= 0.0, "power must be non-negative");
  GS_REQUIRE(dt.value() > 0.0, "dt must be positive");
  const Watts excess = power - cfg_.sustained_cooling;
  if (excess.value() > 0.0) {
    stored_ += excess * dt;
    if (stored_ > cfg_.latent_capacity) {
      stored_ = cfg_.latent_capacity;
      return false;
    }
    return true;
  }
  // Below sustained cooling: spare capacity plus the refreeze loop drains
  // the buffer.
  const Watts drain = Watts(-excess.value()) + cfg_.refreeze_rate;
  stored_ -= drain * dt;
  stored_ = std::max(stored_, Joules(0.0));
  return true;
}

double PcmBuffer::fill_fraction() const {
  return stored_ / cfg_.latent_capacity;
}

bool PcmBuffer::saturated() const {
  return stored_.value() >= cfg_.latent_capacity.value() * (1.0 - 1e-9);
}

Seconds PcmBuffer::time_to_saturation(Watts power) const {
  const Watts excess = power - cfg_.sustained_cooling;
  if (excess.value() <= 0.0) {
    return Seconds(std::numeric_limits<double>::infinity());
  }
  return (cfg_.latent_capacity - stored_) / excess;
}

}  // namespace gs::thermal
