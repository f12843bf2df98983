#pragma once

// Per-shard telemetry buffers for the deterministic execution engine.
//
// A worker thread never touches the study's real sinks: it writes into a
// private RecordBuffer / MetricsBuffer, and the merge step replays those
// buffers into the real sinks on the caller's thread, shard by shard in
// canonical UE order. Consumers therefore observe exactly the serial
// stream — same records, same order, same bytes — regardless of how many
// workers produced it.
//
// These buffers are the engine's dominant transient allocation (every
// staging slot holds one), so they report their vector capacities to the
// resource governor: each buffer resolves a shared named Accountant at
// construction (null-safe no-op without a governor) and syncs on capacity
// changes — a relaxed atomic delta, safe from worker threads, paid only
// when the vector actually grows.
//
// Buffers are built to be REUSED across shards and days: clear() empties the
// contents but keeps the allocation (and its governor accounting) in place,
// so a warm buffer's capacity — and therefore its byte accounting — is what
// push-growth reached for the largest run it ever held. Rebuilding the
// staging every day was the root of the sharded path's allocation churn
// (see DESIGN §4's post-mortem); the simulator keeps one window of staging
// slots for the whole study.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "govern/governor.hpp"
#include "telemetry/records.hpp"
#include "telemetry/sinks.hpp"

namespace tl::exec {

namespace detail {

/// Capacity-accounting mixin for the two buffer types. Movable (the moved-
/// from buffer stops accounting), deliberately not copyable — a copy would
/// need its own accounted capacity and nothing copies these.
template <typename T>
class AccountedVector {
 public:
  explicit AccountedVector(const char* account_name)
      : account_(govern::account(account_name)) {}
  ~AccountedVector() { account_.sub(accounted_bytes_); }

  AccountedVector(AccountedVector&& other) noexcept
      : items_(std::move(other.items_)),
        account_(other.account_),
        accounted_capacity_(other.accounted_capacity_),
        accounted_bytes_(other.accounted_bytes_) {
    other.items_.clear();
    other.accounted_capacity_ = 0;
    other.accounted_bytes_ = 0;
  }
  AccountedVector& operator=(AccountedVector&& other) noexcept {
    if (this != &other) {
      account_.sub(accounted_bytes_);
      items_ = std::move(other.items_);
      account_ = other.account_;
      accounted_capacity_ = other.accounted_capacity_;
      accounted_bytes_ = other.accounted_bytes_;
      other.items_.clear();
      other.accounted_capacity_ = 0;
      other.accounted_bytes_ = 0;
    }
    return *this;
  }
  AccountedVector(const AccountedVector&) = delete;
  AccountedVector& operator=(const AccountedVector&) = delete;

  void push(const T& item) {
    items_.push_back(item);
    // Governor sync is batched behind capacity changes: the hot path pays a
    // single pointer-sized compare per push, and the (atomic) accounting
    // delta only when the vector actually reallocates — which a warm buffer
    // rarely does.
    if (items_.capacity() != accounted_capacity_) sync();
  }

  /// Empties the contents but keeps the allocation: the reuse primitive.
  /// Accounting is unchanged (capacity is what's accounted).
  void clear() noexcept { items_.clear(); }

  const std::vector<T>& items() const noexcept { return items_; }

 private:
  void sync() {
    accounted_capacity_ = items_.capacity();
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(accounted_capacity_) * sizeof(T);
    if (bytes >= accounted_bytes_) {
      account_.add(bytes - accounted_bytes_);
    } else {
      account_.sub(accounted_bytes_ - bytes);
    }
    accounted_bytes_ = bytes;
  }

  std::vector<T> items_;
  govern::Accountant account_;
  std::size_t accounted_capacity_ = 0;
  std::uint64_t accounted_bytes_ = 0;
};

}  // namespace detail

class RecordBuffer final : public telemetry::RecordSink {
 public:
  RecordBuffer() : buffer_("exec_record_buffers") {}

  void consume(const telemetry::HandoverRecord& record) override {
    buffer_.push(record);
  }

  /// Hands the whole buffered run to each sink in order (one consume_span
  /// per sink — batch merge, not per-record replay), then clears the buffer
  /// KEEPING its capacity: the slot's next shard writes into warm memory
  /// instead of re-paying allocation growth. Destroying the buffer gives
  /// the memory (and its accounting) back.
  void drain_to(std::span<telemetry::RecordSink* const> sinks) {
    for (auto* sink : sinks) sink->consume_span(buffer_.items());
    buffer_.clear();
  }

  /// Empties without releasing capacity (reuse) — the simulate callback
  /// resets its slot on entry so a retried attempt can never double-emit.
  void clear() noexcept { buffer_.clear(); }

  std::size_t size() const noexcept { return buffer_.items().size(); }
  const std::vector<telemetry::HandoverRecord>& records() const noexcept {
    return buffer_.items();
  }

 private:
  detail::AccountedVector<telemetry::HandoverRecord> buffer_;
};

class MetricsBuffer final : public telemetry::MetricsSink {
 public:
  MetricsBuffer() : buffer_("exec_metrics_buffers") {}

  void consume(const telemetry::UeDayMetrics& metrics) override {
    buffer_.push(metrics);
  }

  void drain_to(std::span<telemetry::MetricsSink* const> sinks) {
    for (auto* sink : sinks) sink->consume_span(buffer_.items());
    buffer_.clear();
  }

  void clear() noexcept { buffer_.clear(); }

  std::size_t size() const noexcept { return buffer_.items().size(); }

 private:
  detail::AccountedVector<telemetry::UeDayMetrics> buffer_;
};

}  // namespace tl::exec
