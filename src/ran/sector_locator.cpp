#include "ran/sector_locator.hpp"

namespace tl::ran {

std::span<const topology::SiteId> SectorLocator::near_sites(const util::GeoPoint& position,
                                                            NearSites& buffer) const {
  return std::span{buffer}.first(deployment_.site_index().nearest_k(position, buffer));
}

topology::SectorId SectorLocator::locate(std::span<const topology::SiteId> near,
                                         topology::ObservedRat rat_class,
                                         const devices::Ue& ue, int day, int bin,
                                         util::Rng& rng) const {
  for (const topology::SiteId site : near) {
    const auto sector = selector_.pick_sector(site, rat_class, ue, rng);
    if (!sector) continue;
    const auto& s = deployment_.sector(*sector);
    if (energy_.is_active(s, day, bin)) return *sector;
    // Inactive: an asleep booster, or a scripted outage. Fall back to any
    // active always-on sector of the same class on this site.
    for (const topology::SectorId sid : deployment_.site(site).sectors) {
      const auto& alt = deployment_.sector(sid);
      if (!alt.capacity_booster && topology::observe(alt.rat) == rat_class &&
          topology::supports(ue.rat_support, alt.rat) && energy_.is_active(alt, day, bin)) {
        return sid;
      }
    }
    // A plainly sleeping booster wakes for the HO; a faulted sector cannot —
    // the outage suppresses this site and the UE tries the next-nearest one.
    const bool faulted =
        faults_ != nullptr && !faults_->empty() && faults_->forced_off(s, day, bin);
    if (!faulted) return *sector;
  }
  return topology::kInvalidSector;
}

topology::SectorId SectorLocator::locate(const util::GeoPoint& position,
                                         topology::ObservedRat rat_class,
                                         const devices::Ue& ue, int day, int bin,
                                         util::Rng& rng) const {
  NearSites buffer;
  return locate(near_sites(position, buffer), rat_class, ue, day, bin, rng);
}

void SectorLocator::candidates(std::span<const topology::SiteId> near,
                               topology::ObservedRat rat_class, const devices::Ue& ue,
                               int day, int bin,
                               std::vector<topology::SectorId>& out) const {
  out.clear();
  for (const topology::SiteId site : near) {
    for (const topology::SectorId sid : deployment_.site(site).sectors) {
      const auto& s = deployment_.sector(sid);
      if (topology::observe(s.rat) != rat_class) continue;
      if (!topology::supports(ue.rat_support, s.rat)) continue;
      if (faults_ != nullptr && !faults_->empty() && faults_->forced_off(s, day, bin)) {
        continue;
      }
      // A sleeping booster wakes for the HO, so inactivity alone does not
      // disqualify a candidate — only a scripted outage (above) does.
      out.push_back(sid);
    }
  }
}

}  // namespace tl::ran
