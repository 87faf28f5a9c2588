// Alternative renewable-supply forecasters.
//
// The paper uses an EWMA (Equation 1) and remarks that "most solar
// prediction algorithms are accurate when weather conditions are stable".
// This header provides the comparison set that remark invites:
//
//  * EwmaForecaster       — the paper's Equation 1 (alpha = 0.3),
//  * PersistenceForecaster — tomorrow-equals-today at minute scale
//    (predict exactly the last observation; the classic baseline),
//  * ClearSkyForecaster   — EWMA on the *clear-sky index* obs/envelope(t):
//    the diurnal ramp is predicted deterministically from geometry and
//    only the cloud transmittance is smoothed. Standard practice in solar
//    forecasting; it removes the systematic lag EWMA shows at dawn/dusk.
//
// bench/abl_predictor quantifies the error differences on the synthetic
// traces; the controller keeps the paper's EWMA as the default.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string_view>

#include "common/ewma.hpp"
#include "common/units.hpp"

namespace gs::core {

/// Interface: observe production at an absolute trace time, predict the
/// next epoch's supply.
class RenewableForecaster {
 public:
  virtual ~RenewableForecaster() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  virtual void observe(Watts production, Seconds now) = 0;
  /// Forecast for the epoch starting at `next` (0 before any observation).
  [[nodiscard]] virtual Watts predict(Seconds next) const = 0;
};

class EwmaForecaster final : public RenewableForecaster {
 public:
  explicit EwmaForecaster(double alpha = 0.3) : ewma_(alpha) {}
  [[nodiscard]] std::string_view name() const override { return "EWMA"; }
  void observe(Watts production, Seconds) override {
    ewma_.observe(production.value());
  }
  [[nodiscard]] Watts predict(Seconds) const override {
    return Watts(ewma_.primed() ? ewma_.prediction() : 0.0);
  }

 private:
  Ewma ewma_;
};

class PersistenceForecaster final : public RenewableForecaster {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "Persistence";
  }
  void observe(Watts production, Seconds) override { last_ = production; }
  [[nodiscard]] Watts predict(Seconds) const override { return last_; }

 private:
  Watts last_{0.0};
};

/// EWMA over the clear-sky index. `envelope` maps an absolute time to the
/// cloudless normalized output in [0,1]; `peak` scales it to watts.
class ClearSkyForecaster final : public RenewableForecaster {
 public:
  using EnvelopeFn = std::function<double(Seconds)>;
  ClearSkyForecaster(EnvelopeFn envelope, Watts peak, double alpha = 0.3)
      : envelope_(std::move(envelope)), peak_(peak), index_(alpha) {}

  [[nodiscard]] std::string_view name() const override { return "ClearSky"; }

  void observe(Watts production, Seconds now) override {
    const double env = envelope_(now);
    if (env > 1e-3) {
      // Clamp: sensor noise can push the index slightly above 1.
      const double idx =
          std::min(1.5, production.value() / (peak_.value() * env));
      index_.observe(idx);
    }
    // Night samples carry no cloud information; the index persists.
  }

  [[nodiscard]] Watts predict(Seconds next) const override {
    const double env = envelope_(next);
    const double idx = index_.primed() ? index_.prediction() : 0.0;
    return Watts(peak_.value() * env * idx);
  }

 private:
  EnvelopeFn envelope_;
  Watts peak_;
  Ewma index_;
};

enum class ForecasterKind { Ewma, Persistence, ClearSky };

[[nodiscard]] const char* to_string(ForecasterKind k);

/// Factory. ClearSky needs the envelope + peak; the others ignore them.
[[nodiscard]] std::unique_ptr<RenewableForecaster> make_forecaster(
    ForecasterKind kind, ClearSkyForecaster::EnvelopeFn envelope = {},
    Watts peak = Watts(0.0));

}  // namespace gs::core
