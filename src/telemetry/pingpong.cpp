#include "telemetry/pingpong.hpp"

namespace tl::telemetry {

void PingPongDetector::consume(const HandoverRecord& record) {
  if (!record.success) return;
  const analysis::HandoverHop hop{record.anon_user_id, record.timestamp,
                                  record.source_sector, record.target_sector};
  if (hops_.observe(hop)) wasted_ms_ += record.duration_ms;
}

}  // namespace tl::telemetry
