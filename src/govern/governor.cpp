#include "govern/governor.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace tl::govern {

const char* to_string(PressureLevel level) noexcept {
  switch (level) {
    case PressureLevel::kSteady: return "steady";
    case PressureLevel::kElevated: return "elevated";
    case PressureLevel::kCritical: return "critical";
  }
  return "?";
}

// --- Accountant --------------------------------------------------------------

void Accountant::add(std::uint64_t bytes) const noexcept {
  if (slot_ == nullptr || bytes == 0) return;
  slot_->bytes.fetch_add(bytes, std::memory_order_relaxed);
  MemoryBudget* owner = slot_->owner;
  const std::uint64_t used =
      owner->used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  // CAS-max for the high-water mark; contention is rare (capacity changes,
  // not per-record traffic), so the loop virtually never retries.
  std::uint64_t peak = owner->peak_.load(std::memory_order_relaxed);
  while (used > peak &&
         !owner->peak_.compare_exchange_weak(peak, used,
                                             std::memory_order_relaxed)) {
  }
}

void Accountant::sub(std::uint64_t bytes) const noexcept {
  if (slot_ == nullptr || bytes == 0) return;
  slot_->bytes.fetch_sub(bytes, std::memory_order_relaxed);
  slot_->owner->used_.fetch_sub(bytes, std::memory_order_relaxed);
}

std::uint64_t Accountant::bytes() const noexcept {
  return slot_ == nullptr ? 0 : slot_->bytes.load(std::memory_order_relaxed);
}

// --- PressurePlan ------------------------------------------------------------

PressurePlan PressurePlan::chaos(std::uint64_t seed,
                                 std::uint64_t horizon_ticks,
                                 std::uint64_t base_bytes,
                                 std::uint64_t floor_bytes, double clamp_rate) {
  PressurePlan plan;
  if (horizon_ticks == 0 || base_bytes == 0) return plan;
  const std::uint64_t floor = std::min(floor_bytes, base_bytes);
  util::Rng rng = util::Rng::derive(seed, 0x90be44ULL);
  for (std::uint64_t t = 1; t <= horizon_ticks; ++t) {
    if (!rng.chance(clamp_rate)) continue;
    // One draw in four restores the full budget, so schedules exercise
    // recovery (downgrade hysteresis) as well as clamping.
    const std::uint64_t budget =
        rng.below(4) == 0 ? base_bytes
                          : floor + rng.below(base_bytes - floor + 1);
    plan.add(t, budget);
  }
  return plan;
}

const BudgetClamp* PressurePlan::at(std::uint64_t tick) const noexcept {
  const auto it = std::upper_bound(
      clamps_.begin(), clamps_.end(), tick,
      [](std::uint64_t t, const BudgetClamp& c) { return t < c.tick; });
  if (it == clamps_.begin()) return nullptr;
  return &*(it - 1);
}

// --- MemoryBudget ------------------------------------------------------------

static_assert(0.0 < MemoryBudget::kElevatedFraction &&
              MemoryBudget::kElevatedFraction < MemoryBudget::kCriticalFraction &&
              MemoryBudget::kCriticalFraction <= 1.0);
static_assert(0.0 <= MemoryBudget::kHysteresisFraction &&
              MemoryBudget::kHysteresisFraction < MemoryBudget::kElevatedFraction);

Accountant MemoryBudget::accountant(const std::string& name) {
  std::lock_guard<std::mutex> lock{mutex_};
  for (Accountant::Slot& slot : slots_) {
    if (slot.name == name) return Accountant{&slot};
  }
  Accountant::Slot& slot = slots_.emplace_back();
  slot.name = name;
  slot.owner = this;
  return Accountant{&slot};
}

std::uint64_t MemoryBudget::used_bytes() const noexcept {
  return used_.load(std::memory_order_relaxed);
}

std::uint64_t MemoryBudget::peak_bytes() const noexcept {
  return peak_.load(std::memory_order_relaxed);
}

std::uint64_t MemoryBudget::budget_bytes() const {
  std::lock_guard<std::mutex> lock{mutex_};
  const BudgetClamp* clamp = plan_.at(ticks_);
  return clamp != nullptr ? clamp->budget_bytes : options_.budget_bytes;
}

PressureLevel MemoryBudget::level() {
  std::lock_guard<std::mutex> lock{mutex_};
  return level_locked();
}

PressureLevel MemoryBudget::level_locked() {
  resolve_obs_locked();
  const BudgetClamp* clamp = plan_.at(ticks_);
  const std::uint64_t budget =
      clamp != nullptr ? clamp->budget_bytes : options_.budget_bytes;
  const std::uint64_t used = used_.load(std::memory_order_relaxed);

  PressureLevel next = last_level_;
  if (budget == 0) {
    next = PressureLevel::kSteady;  // unlimited: accounting only
  } else {
    const double b = static_cast<double>(budget);
    const double elevated = kElevatedFraction * b;
    const double critical = kCriticalFraction * b;
    const double hysteresis = kHysteresisFraction * b;
    const double u = static_cast<double>(used);
    // Upgrade at the threshold; downgrade only once clear of it by the
    // hysteresis margin. One step per observation in either direction is
    // enough: decisions are made at the same boundaries ticks advance.
    switch (last_level_) {
      case PressureLevel::kSteady:
        if (u >= critical) next = PressureLevel::kCritical;
        else if (u >= elevated) next = PressureLevel::kElevated;
        break;
      case PressureLevel::kElevated:
        if (u >= critical) next = PressureLevel::kCritical;
        else if (u < elevated - hysteresis) next = PressureLevel::kSteady;
        break;
      case PressureLevel::kCritical:
        if (u < critical - hysteresis) {
          next = u >= elevated ? PressureLevel::kElevated
                               : PressureLevel::kSteady;
        }
        break;
    }
  }
  if (ticks_ < alloc_hold_until_ && next < PressureLevel::kCritical) {
    next = PressureLevel::kCritical;
  }
  if (next != last_level_) obs_level_changes_.inc();
  last_level_ = next;

  obs_used_.set(static_cast<double>(used_.load(std::memory_order_relaxed)));
  obs_budget_.set(static_cast<double>(budget));
  obs_level_.set(static_cast<double>(static_cast<std::uint8_t>(next)));
  return next;
}

void MemoryBudget::set_plan(PressurePlan plan) {
  for (std::size_t i = 1; i < plan.clamps().size(); ++i) {
    if (plan.clamps()[i].tick <= plan.clamps()[i - 1].tick) {
      throw std::invalid_argument{
          "MemoryBudget::set_plan: clamps must be tick-ascending"};
    }
  }
  std::lock_guard<std::mutex> lock{mutex_};
  plan_ = std::move(plan);
}

void MemoryBudget::tick() {
  std::lock_guard<std::mutex> lock{mutex_};
  ++ticks_;
}

void MemoryBudget::set_tick(std::uint64_t tick) {
  std::lock_guard<std::mutex> lock{mutex_};
  ticks_ = tick;
  alloc_hold_until_ = 0;
}

std::uint64_t MemoryBudget::ticks() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return ticks_;
}

void MemoryBudget::set_level(PressureLevel level) {
  std::lock_guard<std::mutex> lock{mutex_};
  last_level_ = level;
}

void MemoryBudget::record_allocation_failure() {
  alloc_failures_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock{mutex_};
  alloc_hold_until_ =
      std::max(alloc_hold_until_, ticks_ + kAllocFailureHoldTicks);
  resolve_obs_locked();
  obs_alloc_failures_.inc();
}

std::uint64_t MemoryBudget::allocation_failures() const noexcept {
  return alloc_failures_.load(std::memory_order_relaxed);
}

MemoryBudget::Snapshot MemoryBudget::snapshot() {
  Snapshot snap;
  snap.level = level();  // refreshes gauges too
  std::lock_guard<std::mutex> lock{mutex_};
  snap.used_bytes = used_.load(std::memory_order_relaxed);
  snap.peak_bytes = peak_.load(std::memory_order_relaxed);
  const BudgetClamp* clamp = plan_.at(ticks_);
  snap.budget_bytes =
      clamp != nullptr ? clamp->budget_bytes : options_.budget_bytes;
  snap.ticks = ticks_;
  snap.allocation_failures = alloc_failures_.load(std::memory_order_relaxed);
  for (const Accountant::Slot& slot : slots_) {
    snap.accounts.push_back(
        {slot.name, slot.bytes.load(std::memory_order_relaxed)});
  }
  std::sort(snap.accounts.begin(), snap.accounts.end(),
            [](const AccountSnapshot& a, const AccountSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

void MemoryBudget::resolve_obs_locked() {
  const std::uint64_t epoch = obs::global_epoch();
  if (epoch == obs_epoch_) return;
  obs_epoch_ = epoch;
  obs_used_ = obs::gauge("tl_govern_used_bytes", "accounted bytes in use");
  obs_budget_ =
      obs::gauge("tl_govern_budget_bytes", "effective memory budget (0=off)");
  obs_level_ = obs::gauge("tl_govern_pressure_level",
                          "0=steady 1=elevated 2=critical");
  obs_level_changes_ = obs::counter("tl_govern_level_changes_total",
                                    "hysteretic pressure-level transitions");
  obs_alloc_failures_ = obs::counter("tl_govern_allocation_failures_total",
                                     "bad_alloc events reported for escalation");
}

// --- global governor ---------------------------------------------------------

namespace {
std::atomic<MemoryBudget*> g_governor{nullptr};
std::atomic<std::uint64_t> g_epoch{0};
}  // namespace

MemoryBudget* global_governor() noexcept {
  return g_governor.load(std::memory_order_acquire);
}

void set_global_governor(MemoryBudget* governor) noexcept {
  g_governor.store(governor, std::memory_order_release);
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

std::uint64_t global_epoch() noexcept {
  return g_epoch.load(std::memory_order_acquire);
}

Accountant account(const std::string& name) {
  MemoryBudget* governor = global_governor();
  return governor != nullptr ? governor->accountant(name) : Accountant{};
}

// --- BackpressureGate --------------------------------------------------------

BackpressureGate::BackpressureGate(std::size_t window) : window_(window) {}

bool BackpressureGate::acquire(std::size_t unit) {
  if (window_ == 0) return true;
  std::unique_lock<std::mutex> lock{mutex_};
  if (!open_ && unit >= retired_ + window_) {
    waits_.fetch_add(1, std::memory_order_relaxed);
    admitted_.wait(lock, [&] { return open_ || unit < retired_ + window_; });
  }
  return !open_;
}

void BackpressureGate::release() {
  if (window_ == 0) return;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    ++retired_;
  }
  admitted_.notify_all();
}

void BackpressureGate::open() {
  if (window_ == 0) return;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    open_ = true;
  }
  admitted_.notify_all();
}

}  // namespace tl::govern
