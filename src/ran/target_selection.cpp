#include "ran/target_selection.hpp"

namespace tl::ran {

using topology::ObservedRat;
using topology::Rat;

namespace {

/// How pick_sector sees a site's sector: not a candidate, an NR sector the
/// UE can use, or a non-NR sector of the requested class.
enum class Kind { kNone, kNr, kOther };

}  // namespace

TargetDecision TargetSelector::decide(const devices::Ue& ue, geo::PostcodeId pc,
                                      bool voice_active, util::Rng& rng) const {
  const CoverageProfile& profile = coverage_.at(pc);
  const double mult = CoverageMap::device_fallback_multiplier(ue.type);

  TargetDecision decision;

  // Voice raises the fallback pressure: where VoLTE coverage is thin the
  // network moves active calls to the circuit-switched 3G layer via SRVCC.
  const double voice_boost =
      voice_active && profile.has_rat[static_cast<std::size_t>(Rat::kG3)] ? 1.6 : 1.0;

  const double u = rng.uniform();
  if (u < profile.p_fallback_2g * mult &&
      profile.has_rat[static_cast<std::size_t>(Rat::kG2)]) {
    decision.target_rat = ObservedRat::kG2;
  } else if (u < (profile.p_fallback_2g + profile.p_fallback_3g * voice_boost) * mult &&
             profile.has_rat[static_cast<std::size_t>(Rat::kG3)]) {
    decision.target_rat = ObservedRat::kG3;
    // A fallback carrying an active call is executed as SRVCC (PS -> CS).
    decision.srvcc = voice_active;
  } else {
    decision.target_rat = ObservedRat::kG45Nsa;
  }
  return decision;
}

std::optional<topology::SectorId> TargetSelector::pick_sector(topology::SiteId site_id,
                                                              ObservedRat rat_class,
                                                              const devices::Ue& ue,
                                                              util::Rng& rng) const {
  const auto& site = deployment_.site(site_id);
  // Count the NR and other sectors of the class, draw, then walk to the
  // drawn one. The draws, chance(0.8) then below(count), are part of the
  // golden record stream: keep their order and arguments.
  const bool nr_capable = topology::supports(ue.rat_support, Rat::kG5Nr);
  const auto kind_of = [&](topology::SectorId sid) {
    const auto& sector = deployment_.sector(sid);
    if (topology::observe(sector.rat) != rat_class) return Kind::kNone;
    if (sector.rat != Rat::kG5Nr) return Kind::kOther;
    return nr_capable ? Kind::kNr : Kind::kNone;
  };
  std::uint64_t n_nr = 0;
  std::uint64_t n_other = 0;
  for (const topology::SectorId sid : site.sectors) {
    const Kind kind = kind_of(sid);
    n_nr += kind == Kind::kNr ? 1 : 0;
    n_other += kind == Kind::kOther ? 1 : 0;
  }
  // EN-DC: a 5G-capable UE on a site with an NR layer anchors there.
  Kind pick_kind = Kind::kNone;
  if (n_nr > 0 && rng.chance(0.8)) {
    pick_kind = Kind::kNr;
  } else if (n_other > 0) {
    pick_kind = Kind::kOther;
  } else if (n_nr > 0) {
    pick_kind = Kind::kNr;
  } else {
    return std::nullopt;
  }
  std::uint64_t pick = rng.below(pick_kind == Kind::kNr ? n_nr : n_other);
  for (const topology::SectorId sid : site.sectors) {
    if (kind_of(sid) == pick_kind && pick-- == 0) return sid;
  }
  return std::nullopt;  // unreachable: the pick indexes a counted sector
}

}  // namespace tl::ran
