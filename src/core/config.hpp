#pragma once

// Study configuration: one knob tree for the whole pipeline, with presets
// for test scale (seconds) and bench scale (the default for regenerating
// the paper's tables and figures).

#include <cstdint>

#include "devices/catalog.hpp"
#include "devices/population.hpp"
#include "faults/recovery.hpp"
#include "geo/census.hpp"
#include "policy/config.hpp"
#include "ran/coverage.hpp"
#include "topology/deployment.hpp"

namespace tl::core {

struct StudyConfig {
  /// Linear scale versus the real study (40M UEs / 24k sites / 350k+
  /// sectors). Shares and shapes are scale-invariant.
  double scale = 0.004;

  int days = 7;
  std::uint64_t seed = 42;

  /// Worker threads for the parallel execution engine (src/exec): each study
  /// day is sharded by UE across this many workers and merged back in
  /// canonical UE order, so the emitted record stream — including durable
  /// log bytes — is byte-identical at every thread count. 1 = serial
  /// (in-place, no sharding), 0 = all hardware threads.
  unsigned threads = 1;

  /// Reuse per-shard staging state (CoreNetwork + record/metrics buffers)
  /// across days instead of reallocating it every day. Byte-identical
  /// either way (each shard resets on entry); false restores the old
  /// fresh-allocation-per-day behavior and exists for the reuse
  /// equivalence tests and as an escape hatch.
  bool reuse_shard_state = true;

  geo::CensusConfig census;
  topology::DeploymentConfig deployment;
  devices::CatalogConfig catalog;
  devices::PopulationConfig population;
  ran::CoverageConfig coverage;

  /// Probability that a HO happens during an active voice call, per device
  /// type {smartphone, M2M/IoT, feature phone}: the SRVCC trigger.
  double voice_share[3] = {0.10, 0.004, 0.38};

  /// Handover decision policy (src/policy). The default calibrated baseline
  /// reproduces the stock pipeline's record stream byte-for-byte; any other
  /// kind is seeded-deterministic but produces its own stream.
  policy::PolicyConfig policy;

  /// Ping-pong suppression (related work [15]: "sub cell movement
  /// detection"): the RAN holds a UE on its serving sector when the chosen
  /// target is the sector it just left within the window. Off by default —
  /// the ablation bench measures what the policy buys.
  bool suppress_ping_pong = false;
  std::int64_t ping_pong_window_ms = 5'000;

  /// Post-HOF UE recovery modeling (RRC re-establishment vs fallback to
  /// source, capped-exponential re-attempt backoff, temporary target
  /// barring). Off by default: the stock pipeline's output is untouched.
  faults::RecoveryConfig recovery;

  /// Applies `scale` and `seed` consistently across the nested configs.
  /// Call after editing scale/seed/days.
  void finalize();

  /// Tiny deployment for unit tests (runs in well under a second).
  static StudyConfig test_scale();
  /// Default bench scale: large enough for stable national statistics.
  static StudyConfig bench_scale();

  /// Full-scale reference values used when reporting "equivalent" national
  /// numbers (Table 1).
  static constexpr double kFullScaleUes = 40e6;
  static constexpr double kFullScaleSites = 24'000;
  static constexpr double kFullScaleDailyHos = 1.7e9;
};

}  // namespace tl::core
