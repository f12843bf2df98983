#include "devices/apn.hpp"

#include <array>
#include <string_view>

namespace tl::devices {

namespace {

constexpr std::array<std::string_view, 6> kIotApns{
    "m2m.operator.net",      "iot.operator.net",       "smart-meter.energy.net",
    "fleet.telemetry.net",   "scada.industrial.net",   "vending.m2m.net",
};

constexpr std::array<std::string_view, 4> kConsumerApns{
    "internet.operator.net",
    "web.operator.net",
    "wap.operator.net",
    "broadband.operator.net",
};

}  // namespace

std::string sample_apn(DeviceType type, util::Rng& rng) {
  if (type == DeviceType::kM2mIot) {
    // ~88% of M2M devices are provisioned on vertical APNs; the rest ride
    // consumer APNs (retail SIMs in routers etc.).
    if (rng.chance(0.88)) {
      return std::string{kIotApns[rng.below(kIotApns.size())]};
    }
    return std::string{kConsumerApns[rng.below(kConsumerApns.size())]};
  }
  return std::string{kConsumerApns[rng.below(kConsumerApns.size())]};
}

}  // namespace tl::devices
