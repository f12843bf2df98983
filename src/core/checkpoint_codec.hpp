#pragma once

// Binary (de)serialization of DayCheckpoint: the one checkpoint format,
// embedded inside the durable record log's day commit markers — the
// simulator's one resume path.
//
// Persisting the checkpoint *inside* the marker is what makes "records
// through day D" and "resume state after day D" a single atomic unit: the
// marker frame either survives (CRC-valid, behind an fsync) carrying both,
// or recovery discards both together. There is no ordering window between
// two files to reconcile.

#include <cstdint>
#include <span>
#include <vector>

#include "core/simulator.hpp"

namespace tl::core {

/// Fixed-layout little-endian encoding with a CRC32C trailer.
std::vector<std::uint8_t> encode_checkpoint(const DayCheckpoint& checkpoint);

/// Throws std::runtime_error on truncation, bad magic/version, or CRC
/// mismatch — a corrupt checkpoint never partially restores.
DayCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes);

}  // namespace tl::core
