#pragma once

// Access Point Names (§3.1).
//
// The paper classifies devices by combining GSMA catalog attributes with
// the APN configured for the UE: APNs of IoT verticals carry recognizable
// keywords ("m2m", "smart-meter", ...). We synthesize realistic APNs per
// device; the simulated population carries its ground-truth type, so no
// classifier runs on them.

#include <string>

#include "devices/device_type.hpp"
#include "util/rng.hpp"

namespace tl::devices {

/// Synthesizes an APN string for a device of the given ground-truth type.
/// Most M2M devices receive an IoT-vertical APN; consumer devices get the
/// generic internet APNs. A minority of M2M UEs use consumer APNs, which is
/// exactly what makes classification a heuristic.
std::string sample_apn(DeviceType type, util::Rng& rng);

}  // namespace tl::devices
