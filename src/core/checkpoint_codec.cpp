#include "core/checkpoint_codec.hpp"

#include <stdexcept>

#include "util/byte_codec.hpp"
#include "util/crc32c.hpp"

namespace tl::core {
namespace {

constexpr std::uint8_t kMagic[4] = {'T', 'L', 'C', 'P'};
// v1: fixed layout, no quarantine list. v2 appends `u32 count` plus `count`
// ascending u32 UE ids between the region counters and the CRC trailer, so
// the quarantined set commits atomically with the records and the cursor.
constexpr std::uint16_t kVersionV1 = 1;
constexpr std::uint16_t kVersionV2 = 2;

using util::get_u16;
using util::get_u32;
using util::get_u64;
using util::put_u16;
using util::put_u32;
using util::put_u64;

// magic + version + next_day + seed + records + 13 counters per region
constexpr std::size_t kRegionCounters = 13;
constexpr std::size_t kFixedSize =
    4 + 2 + 4 + 8 + 8 + geo::kAllRegions.size() * kRegionCounters * 8;
constexpr std::size_t kV1Size = kFixedSize + 4;  // + crc

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const DayCheckpoint& cp) {
  std::vector<std::uint8_t> out;
  out.reserve(kFixedSize + 8 + cp.quarantined_ues.size() * 4);
  out.insert(out.end(), kMagic, kMagic + sizeof kMagic);
  put_u16(out, kVersionV2);
  put_u32(out, static_cast<std::uint32_t>(cp.next_day));
  put_u64(out, cp.seed);
  put_u64(out, cp.records_emitted);
  for (const auto region : geo::kAllRegions) {
    const auto& mme = cp.core.mme(region);
    const auto& sgsn = cp.core.sgsn(region);
    const auto& msc = cp.core.msc(region);
    const auto& sgw = cp.core.sgw(region);
    put_u64(out, mme.handovers.procedures);
    put_u64(out, mme.handovers.successes);
    put_u64(out, mme.handovers.failures);
    put_u64(out, mme.path_switches.procedures);
    put_u64(out, mme.path_switches.successes);
    put_u64(out, mme.path_switches.failures);
    put_u64(out, sgsn.relocations.procedures);
    put_u64(out, sgsn.relocations.successes);
    put_u64(out, sgsn.relocations.failures);
    put_u64(out, msc.srvcc.procedures);
    put_u64(out, msc.srvcc.successes);
    put_u64(out, msc.srvcc.failures);
    put_u64(out, sgw.bearer_modifications);
  }
  put_u32(out, static_cast<std::uint32_t>(cp.quarantined_ues.size()));
  for (const auto ue : cp.quarantined_ues) put_u32(out, ue);
  put_u32(out, util::mask_crc32c(util::crc32c(out.data(), out.size())));
  return out;
}

DayCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
  const auto corrupt = [] {
    return std::runtime_error{"decode_checkpoint: corrupt checkpoint bytes"};
  };
  // Structure first (so the CRC offset is trustworthy), CRC second, field
  // parse last: truncation and extension fail the exact-size checks, bit
  // flips fail either the structure checks or the CRC.
  if (bytes.size() < kV1Size) throw corrupt();
  const std::uint8_t* p = bytes.data();
  if (p[0] != kMagic[0] || p[1] != kMagic[1] || p[2] != kMagic[2] || p[3] != kMagic[3]) {
    throw corrupt();
  }
  const std::uint16_t version = get_u16(p + 4);
  std::uint32_t quarantine_count = 0;
  if (version == kVersionV1) {
    if (bytes.size() != kV1Size) throw corrupt();
  } else if (version == kVersionV2) {
    if (bytes.size() < kFixedSize + 8) throw corrupt();
    quarantine_count = get_u32(p + kFixedSize);
    // Exact-size check against the declared count: a flipped count byte (or
    // a truncated/extended list) can no longer masquerade as valid.
    const std::uint64_t expected =
        static_cast<std::uint64_t>(kFixedSize) + 8 +
        static_cast<std::uint64_t>(quarantine_count) * 4;
    if (bytes.size() != expected) throw corrupt();
  } else {
    throw corrupt();
  }
  const std::uint32_t stored = util::unmask_crc32c(get_u32(p + bytes.size() - 4));
  if (stored != util::crc32c(p, bytes.size() - 4)) throw corrupt();

  DayCheckpoint cp;
  cp.next_day = static_cast<int>(get_u32(p + 6));
  cp.seed = get_u64(p + 10);
  cp.records_emitted = get_u64(p + 18);
  std::size_t offset = 26;
  for (const auto region : geo::kAllRegions) {
    auto& mme = cp.core.mme(region);
    auto& sgsn = cp.core.sgsn(region);
    auto& msc = cp.core.msc(region);
    auto& sgw = cp.core.sgw(region);
    std::uint64_t* fields[kRegionCounters] = {
        &mme.handovers.procedures,   &mme.handovers.successes,
        &mme.handovers.failures,     &mme.path_switches.procedures,
        &mme.path_switches.successes, &mme.path_switches.failures,
        &sgsn.relocations.procedures, &sgsn.relocations.successes,
        &sgsn.relocations.failures,  &msc.srvcc.procedures,
        &msc.srvcc.successes,        &msc.srvcc.failures,
        &sgw.bearer_modifications};
    for (auto* field : fields) {
      *field = get_u64(p + offset);
      offset += 8;
    }
  }
  if (version == kVersionV2) {
    cp.quarantined_ues.reserve(quarantine_count);
    offset = kFixedSize + 4;
    for (std::uint32_t i = 0; i < quarantine_count; ++i) {
      const std::uint32_t ue = get_u32(p + offset);
      offset += 4;
      // The set is canonical (sorted, unique) by construction; anything else
      // behind a valid CRC would be an encoder bug — reject it.
      if (!cp.quarantined_ues.empty() && ue <= cp.quarantined_ues.back()) {
        throw corrupt();
      }
      cp.quarantined_ues.push_back(ue);
    }
  }
  return cp;
}

}  // namespace tl::core
