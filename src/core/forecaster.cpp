#include "core/forecaster.hpp"

#include "common/assert.hpp"

namespace gs::core {

const char* to_string(ForecasterKind k) {
  switch (k) {
    case ForecasterKind::Ewma:
      return "EWMA";
    case ForecasterKind::Persistence:
      return "Persistence";
    case ForecasterKind::ClearSky:
      return "ClearSky";
  }
  return "?";
}

std::unique_ptr<RenewableForecaster> make_forecaster(
    ForecasterKind kind, ClearSkyForecaster::EnvelopeFn envelope,
    Watts peak) {
  switch (kind) {
    case ForecasterKind::Ewma:
      return std::make_unique<EwmaForecaster>();
    case ForecasterKind::Persistence:
      return std::make_unique<PersistenceForecaster>();
    case ForecasterKind::ClearSky:
      GS_REQUIRE(bool(envelope), "ClearSky forecaster needs an envelope");
      GS_REQUIRE(peak.value() > 0.0,
                 "ClearSky forecaster needs a positive peak");
      return std::make_unique<ClearSkyForecaster>(std::move(envelope), peak);
  }
  GS_REQUIRE(false, "unknown forecaster kind");
  return nullptr;
}

}  // namespace gs::core
