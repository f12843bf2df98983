#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tl::obs {

namespace detail {

std::size_t shard_index() noexcept {
  // Threads draw a shard lazily, round-robin, once for their lifetime. The
  // assignment is process-wide (not per registry): it only spreads writers,
  // so sharing the sequence across registries is harmless.
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t mine =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return mine;
}

void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
  }
}

HistogramFamily::HistogramFamily(std::string name_in, std::string help_in,
                                 analysis::Histogram bins_in)
    : name(std::move(name_in)), help(std::move(help_in)), bins(std::move(bins_in)) {
  for (Shard& shard : shards) {
    // +3 trailing slots: underflow, overflow, nan.
    shard.buckets = std::vector<std::atomic<std::uint64_t>>(bins.bins().size() + 3);
  }
}

}  // namespace detail

void Histogram::observe(double value) const noexcept {
  if (!live()) return;
  detail::HistogramFamily::Shard& shard =
      family_->shards[detail::shard_index()];
  const std::size_t bins = family_->bins.bins().size();
  std::size_t slot;
  const std::size_t idx = family_->bins.bin_index(value);
  if (idx != analysis::Histogram::npos) {
    slot = idx;
  } else if (std::isnan(value)) {
    slot = bins + 2;
  } else if (value < family_->bins.bins().front().lo) {
    slot = bins;
  } else {
    slot = bins + 1;
  }
  shard.buckets[slot].fetch_add(1, std::memory_order_relaxed);
  if (slot != bins + 2) detail::atomic_add(shard.sum, value);
}

Counter MetricsRegistry::counter(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock{mutex_};
  for (auto& family : counters_) {
    if (family.name == name) return Counter{&family, &enabled_};
  }
  for (const auto& [existing, kind] : names_) {
    if (existing == name && kind != Kind::kCounter) {
      throw std::logic_error{"MetricsRegistry: " + name +
                             " already registered as a different kind"};
    }
  }
  counters_.emplace_back();
  counters_.back().name = name;
  counters_.back().help = help;
  names_.emplace_back(name, Kind::kCounter);
  return Counter{&counters_.back(), &enabled_};
}

Gauge MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock{mutex_};
  for (auto& family : gauges_) {
    if (family.name == name) return Gauge{&family, &enabled_};
  }
  for (const auto& [existing, kind] : names_) {
    if (existing == name && kind != Kind::kGauge) {
      throw std::logic_error{"MetricsRegistry: " + name +
                             " already registered as a different kind"};
    }
  }
  gauges_.emplace_back();
  gauges_.back().name = name;
  gauges_.back().help = help;
  names_.emplace_back(name, Kind::kGauge);
  return Gauge{&gauges_.back(), &enabled_};
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> edges,
                                     const std::string& help) {
  // Validate before taking the lock: the analysis::Histogram constructor
  // throws std::invalid_argument on < 2 or non-monotone edges.
  analysis::Histogram bins{std::move(edges)};
  std::lock_guard<std::mutex> lock{mutex_};
  for (auto& family : histograms_) {
    if (family->name == name) return Histogram{family.get(), &enabled_};
  }
  for (const auto& [existing, kind] : names_) {
    if (existing == name && kind != Kind::kHistogram) {
      throw std::logic_error{"MetricsRegistry: " + name +
                             " already registered as a different kind"};
    }
  }
  histograms_.push_back(std::make_unique<detail::HistogramFamily>(
      name, help, std::move(bins)));
  names_.emplace_back(name, Kind::kHistogram);
  return Histogram{histograms_.back().get(), &enabled_};
}

std::vector<double> MetricsRegistry::exponential_edges(double lo, double factor,
                                                       std::size_t count) {
  if (!(lo > 0.0) || !(factor > 1.0) || count < 1) {
    throw std::invalid_argument{"MetricsRegistry::exponential_edges: bad spec"};
  }
  std::vector<double> edges(count + 1);
  double edge = lo;
  for (std::size_t i = 0; i <= count; ++i) {
    edges[i] = edge;
    edge *= factor;
  }
  return edges;
}

std::vector<double> MetricsRegistry::latency_edges_s() {
  // 100 us .. 100 s in x2.5 steps: fine enough for shard/day timings, coarse
  // enough that a snapshot stays one screen.
  return exponential_edges(100e-6, 2.5, 15);
}

MetricsSnapshot MetricsRegistry::scrape() const {
  std::lock_guard<std::mutex> lock{mutex_};
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& family : counters_) {
    CounterSnapshot c;
    c.name = family.name;
    c.help = family.help;
    for (const auto& cell : family.cells) {
      c.value += cell.value.load(std::memory_order_relaxed);
    }
    snapshot.counters.push_back(std::move(c));
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& family : gauges_) {
    snapshot.gauges.push_back(
        {family.name, family.help, family.value.load(std::memory_order_relaxed)});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& family : histograms_) {
    HistogramSnapshot h;
    h.name = family->name;
    h.help = family->help;
    const auto& bins = family->bins.bins();
    h.edges.reserve(bins.size() + 1);
    for (const auto& bin : bins) h.edges.push_back(bin.lo);
    h.edges.push_back(bins.back().hi);
    h.counts.assign(bins.size(), 0);
    for (const auto& shard : family->shards) {
      for (std::size_t i = 0; i < bins.size(); ++i) {
        h.counts[i] += shard.buckets[i].load(std::memory_order_relaxed);
      }
      h.underflow += shard.buckets[bins.size()].load(std::memory_order_relaxed);
      h.overflow += shard.buckets[bins.size() + 1].load(std::memory_order_relaxed);
      h.nan += shard.buckets[bins.size() + 2].load(std::memory_order_relaxed);
      h.sum += shard.sum.load(std::memory_order_relaxed);
    }
    for (const std::uint64_t c : h.counts) h.count += c;
    h.count += h.underflow + h.overflow;
    snapshot.histograms.push_back(std::move(h));
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(), by_name);
  return snapshot;
}

double HistogramSnapshot::quantile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument{"HistogramSnapshot::quantile: q outside [0,1]"};
  }
  if (count == 0) return 0.0;
  const std::uint64_t target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t cumulative = underflow;
  if (cumulative >= target) return edges.front();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= target) return edges[i + 1];
  }
  return edges.back();
}

const CounterSnapshot* MetricsSnapshot::find_counter(
    const std::string& name) const noexcept {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* MetricsSnapshot::find_gauge(
    const std::string& name) const noexcept {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    const std::string& name) const noexcept {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

namespace {
std::atomic<MetricsRegistry*> g_registry{nullptr};
std::atomic<std::uint64_t> g_epoch{0};
}  // namespace

MetricsRegistry* global_registry() noexcept {
  return g_registry.load(std::memory_order_acquire);
}

void set_global_registry(MetricsRegistry* registry) noexcept {
  g_registry.store(registry, std::memory_order_release);
  g_epoch.fetch_add(1, std::memory_order_release);
}

std::uint64_t global_epoch() noexcept {
  return g_epoch.load(std::memory_order_acquire);
}

Counter counter(const std::string& name, const std::string& help) {
  MetricsRegistry* reg = global_registry();
  return reg != nullptr ? reg->counter(name, help) : Counter{};
}

Gauge gauge(const std::string& name, const std::string& help) {
  MetricsRegistry* reg = global_registry();
  return reg != nullptr ? reg->gauge(name, help) : Gauge{};
}

Histogram histogram(const std::string& name, std::vector<double> edges,
                    const std::string& help) {
  MetricsRegistry* reg = global_registry();
  return reg != nullptr ? reg->histogram(name, std::move(edges), help) : Histogram{};
}

}  // namespace tl::obs
