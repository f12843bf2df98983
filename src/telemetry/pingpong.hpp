#pragma once

// Ping-pong handover detection (related work §7: [15], [55]).
//
// A ping-pong (PP) HO bounces a UE from source to target and back to the
// source within a short window — wasted signaling plus two service
// interruptions. The paper's related work measures PP on operator data; this
// sink feeds the record stream to the one PP definition,
// analysis::PingPongDetector, and exposes the knob those studies sweep (the
// return-window threshold).

#include <cstdint>

#include "analysis/pingpong.hpp"
#include "telemetry/sinks.hpp"

namespace tl::telemetry {

class PingPongDetector : public RecordSink {
 public:
  /// `window_ms`: maximum time between the outbound HO and the return HO
  /// for the pair to count as a ping-pong (commonly a few seconds).
  explicit PingPongDetector(util::TimestampMs window_ms = 5'000) : hops_(window_ms) {}

  /// Failed HOs do not move the UE, so only successful records are hops.
  void consume(const HandoverRecord& record) override;

  std::uint64_t total_handovers() const noexcept { return hops_.hops(); }
  std::uint64_t ping_pongs() const noexcept { return hops_.ping_pongs(); }
  std::uint64_t bouncing_ues() const noexcept { return hops_.bouncing_ues(); }
  double ping_pong_rate() const noexcept { return hops_.rate(); }

  /// Wasted signaling time (ms) spent on the returning leg of PP pairs.
  double wasted_signaling_ms() const noexcept { return wasted_ms_; }

 private:
  analysis::PingPongDetector hops_;
  double wasted_ms_ = 0.0;
};

}  // namespace tl::telemetry
