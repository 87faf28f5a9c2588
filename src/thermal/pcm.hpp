// Phase-change-material thermal buffer (paper Section II, "Thermal
// concerns"). The paper assumes servers carry a PCM package (Skach et al.,
// ISCA'15) that absorbs sprint heat and "can delay the onset of thermal
// limits by hours"; GreenSprint treats thermal headroom as given. We model
// the assumption so it is checkable: a lumped latent-heat reservoir that
// absorbs power above the sustained cooling capacity and releases it when
// load drops. An ablation bench explores how small the PCM mass can get
// before 60-minute sprints hit the thermal wall.
#pragma once

#include "common/units.hpp"

namespace gs::thermal {

struct PcmConfig {
  /// Heat the server's baseline cooling removes continuously. Sprint power
  /// above this must be buffered by the PCM.
  Watts sustained_cooling{105.0};
  /// Latent-heat budget of the PCM package. Paraffin-class PCM stores
  /// ~200 kJ/kg; a few kg per server buffers an hour-scale sprint
  /// (55 W excess * 3600 s = 198 kJ ~ 1 kg).
  Joules latent_capacity{1.2e6};
  /// Extra heat extraction while below sustained cooling (re-freeze rate).
  Watts refreeze_rate{40.0};
};

/// Lumped thermal buffer; absorb() advances one epoch and reports whether
/// the server stayed within thermal limits.
class PcmBuffer {
 public:
  explicit PcmBuffer(PcmConfig cfg);

  /// Advance dt with the server dissipating `power`. Returns false when the
  /// PCM is saturated and the chip would exceed its thermal limit (the
  /// sprint must stop).
  bool absorb(Watts power, Seconds dt);

  /// Stored sprint heat (0 = fully frozen).
  [[nodiscard]] Joules stored() const { return stored_; }
  [[nodiscard]] double fill_fraction() const;
  [[nodiscard]] bool saturated() const;

  /// Longest sprint at `power` starting from the current state.
  [[nodiscard]] Seconds time_to_saturation(Watts power) const;

  [[nodiscard]] const PcmConfig& config() const { return cfg_; }

 private:
  PcmConfig cfg_;
  Joules stored_{0.0};
};

}  // namespace gs::thermal
