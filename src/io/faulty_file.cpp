#include "io/faulty_file.hpp"

#include <algorithm>
#include <atomic>

namespace tl::io {

const char* to_string(IoFaultKind kind) noexcept {
  switch (kind) {
    case IoFaultKind::kShortWrite: return "short write";
    case IoFaultKind::kIoError: return "io error";
    case IoFaultKind::kSyncFailure: return "sync failure";
    case IoFaultKind::kCrash: return "crash";
    case IoFaultKind::kBitRot: return "bit rot";
    case IoFaultKind::kReadError: return "read error";
  }
  return "?";
}

IoFaultPlan IoFaultPlan::chaos(std::uint64_t seed, std::uint64_t horizon_ops,
                               double transient_rate) {
  IoFaultPlan plan;
  if (horizon_ops == 0) return plan;
  util::Rng rng = util::Rng::derive(seed, 0x10fa017ULL);
  const std::uint64_t crash_op = rng.below(horizon_ops);
  for (std::uint64_t op = 0; op < crash_op; ++op) {
    if (transient_rate > 0.0 && rng.chance(transient_rate)) {
      static constexpr IoFaultKind kTransients[3] = {
          IoFaultKind::kShortWrite, IoFaultKind::kIoError, IoFaultKind::kSyncFailure};
      plan.add(op, kTransients[rng.below(3)]);
    }
  }
  plan.add(crash_op, IoFaultKind::kCrash);
  return plan;
}

IoFaultPlan IoFaultPlan::read_chaos(std::uint64_t seed, std::uint64_t horizon_ops,
                                    double fault_rate) {
  IoFaultPlan plan;
  if (horizon_ops == 0 || fault_rate <= 0.0) return plan;
  util::Rng rng = util::Rng::derive(seed, 0xb17507ULL);
  for (std::uint64_t op = 0; op < horizon_ops; ++op) {
    if (rng.chance(fault_rate)) {
      plan.add(op, rng.below(2) == 0 ? IoFaultKind::kBitRot
                                     : IoFaultKind::kReadError);
    }
  }
  return plan;
}

const IoFault* IoFaultPlan::at(std::uint64_t op_index) const noexcept {
  // Plans are built in ascending op order; binary search keeps the per-op
  // cost negligible even for dense transient schedules.
  const auto it = std::lower_bound(
      faults_.begin(), faults_.end(), op_index,
      [](const IoFault& f, std::uint64_t op) { return f.op_index < op; });
  if (it == faults_.end() || it->op_index != op_index) return nullptr;
  return &*it;
}

namespace {
class FaultyFile;
}  // namespace

struct FaultyFileSystem::State {
  FileSystem& inner;
  IoFaultPlan plan;
  IoFaultPlan read_plan;
  util::Rng rng;
  std::uint64_t ops = 0;
  std::uint64_t read_ops = 0;
  bool dead = false;
  std::atomic<bool> disk_full{false};
  std::vector<IoFault> fired;
  std::vector<FaultyFile*> open_files;

  State(FileSystem& fs, IoFaultPlan p, std::uint64_t seed)
      : inner(fs), plan(std::move(p)), rng(util::Rng::derive(seed, 0xc4a5ULL)) {}

  void ensure_alive() const {
    if (dead) throw SimulatedCrash{};
  }

  /// Consumes one mutating-op tick; returns the fault scheduled for it.
  const IoFault* tick() {
    const IoFault* fault = plan.at(ops++);
    if (fault != nullptr) fired.push_back(*fault);
    return fault;
  }

  /// Consumes one read-op tick against the read plan.
  const IoFault* read_tick() {
    const IoFault* fault = read_plan.at(read_ops++);
    if (fault != nullptr) fired.push_back(*fault);
    return fault;
  }

  [[noreturn]] void crash();
};

namespace {

class FaultyFile final : public File {
 public:
  FaultyFile(std::shared_ptr<FaultyFileSystem::State> state, std::unique_ptr<File> inner,
             std::string path, bool writable)
      : state_(std::move(state)),
        inner_(std::move(inner)),
        path_(std::move(path)),
        writable_(writable) {
    if (writable_) {
      written_size_ = inner_->size();
      synced_size_ = written_size_;
    }
    state_->open_files.push_back(this);
  }

  ~FaultyFile() override {
    auto& files = state_->open_files;
    files.erase(std::remove(files.begin(), files.end(), this), files.end());
  }

  std::size_t write(const void* data, std::size_t size) override {
    state_->ensure_alive();
    // Checked before tick(): a full disk rejects the write without
    // consuming a plan op (see set_disk_full).
    if (state_->disk_full.load(std::memory_order_relaxed)) return 0;
    const IoFault* fault = state_->tick();
    if (fault == nullptr) {
      const std::size_t n = inner_->write(data, size);
      written_size_ += n;
      return n;
    }
    switch (fault->kind) {
      case IoFaultKind::kShortWrite: {
        const std::size_t keep =
            size == 0 ? 0 : static_cast<std::size_t>(state_->rng.below(size));
        written_size_ += inner_->write(data, keep);
        return keep;
      }
      case IoFaultKind::kIoError:
      case IoFaultKind::kSyncFailure:
        throw IoError{"injected EIO on write to " + path_};
      case IoFaultKind::kCrash: {
        // The dying write lands a seeded prefix, like a real torn page.
        const std::size_t keep =
            size == 0 ? 0 : static_cast<std::size_t>(state_->rng.below(size + 1));
        written_size_ += inner_->write(data, keep);
        state_->crash();
      }
      case IoFaultKind::kBitRot:
      case IoFaultKind::kReadError: {
        // Read-side kinds are inert in a write plan: the write succeeds.
        const std::size_t n = inner_->write(data, size);
        written_size_ += n;
        return n;
      }
    }
    return 0;  // unreachable
  }

  std::size_t read(void* data, std::size_t size) override {
    state_->ensure_alive();
    const IoFault* fault = state_->read_tick();
    if (fault == nullptr) return inner_->read(data, size);
    switch (fault->kind) {
      case IoFaultKind::kBitRot: {
        // The bytes on disk are fine; what came off the wire is not.
        const std::size_t n = inner_->read(data, size);
        if (n > 0) {
          const std::uint64_t bit = state_->rng.below(n * 8);
          static_cast<std::uint8_t*>(data)[bit / 8] ^=
              static_cast<std::uint8_t>(1u << (bit % 8));
        }
        return n;
      }
      case IoFaultKind::kCrash:
        state_->crash();
      default:
        throw IoError{"injected " + std::string{to_string(fault->kind)} +
                      " on read of " + path_};
    }
  }

  void seek(std::uint64_t offset) override {
    state_->ensure_alive();
    inner_->seek(offset);
  }

  void flush() override {
    state_->ensure_alive();
    const IoFault* fault = state_->tick();
    if (fault != nullptr) {
      if (fault->kind == IoFaultKind::kCrash) state_->crash();
      throw IoError{"injected " + std::string{to_string(fault->kind)} + " on flush of " +
                    path_};
    }
    inner_->flush();
  }

  void sync() override {
    state_->ensure_alive();
    const IoFault* fault = state_->tick();
    if (fault != nullptr) {
      if (fault->kind == IoFaultKind::kCrash) state_->crash();
      // A failed fsync leaves durability unknown: the bytes stay in the
      // inner file (they MAY have hit disk) but synced_size_ is not
      // advanced, so a later crash is free to roll them back.
      throw IoError{"injected " + std::string{to_string(fault->kind)} + " on fsync of " +
                    path_};
    }
    inner_->sync();
    synced_size_ = written_size_;
  }

  std::uint64_t size() override {
    state_->ensure_alive();
    return inner_->size();
  }

  void close() override {
    if (inner_ != nullptr && !state_->dead) inner_->close();
  }

  /// Crash handling: everything past the last successful sync may or may
  /// not have hit the platters; pick a survival point uniformly in that
  /// window, exactly like a kernel dropping dirty pages.
  void roll_back_to_crash_point() {
    if (!writable_ || inner_ == nullptr) return;
    inner_->flush();  // make written_size_ real before truncating under it
    const std::uint64_t window = written_size_ - synced_size_;
    const std::uint64_t survive =
        synced_size_ + (window == 0 ? 0 : state_->rng.below(window + 1));
    inner_->close();
    state_->inner.truncate(path_, survive);
    inner_.reset();
  }

  void abandon() { inner_.reset(); }

 private:
  std::shared_ptr<FaultyFileSystem::State> state_;
  std::unique_ptr<File> inner_;
  std::string path_;
  bool writable_;
  std::uint64_t written_size_ = 0;  // bytes actually forwarded to the inner file
  std::uint64_t synced_size_ = 0;   // written_size_ at the last successful sync()
};

}  // namespace

void FaultyFileSystem::State::crash() {
  dead = true;
  for (FaultyFile* file : open_files) file->roll_back_to_crash_point();
  for (FaultyFile* file : open_files) file->abandon();
  throw SimulatedCrash{};
}

FaultyFileSystem::FaultyFileSystem(FileSystem& inner, IoFaultPlan plan,
                                   std::uint64_t seed)
    : state_(std::make_shared<State>(inner, std::move(plan), seed)) {}

FaultyFileSystem::~FaultyFileSystem() = default;

std::unique_ptr<File> FaultyFileSystem::open(const std::string& path, OpenMode mode) {
  state_->ensure_alive();
  auto inner = state_->inner.open(path, mode);
  return std::make_unique<FaultyFile>(state_, std::move(inner), path,
                                      mode != OpenMode::kRead);
}

bool FaultyFileSystem::exists(const std::string& path) {
  state_->ensure_alive();
  return state_->inner.exists(path);
}

std::uint64_t FaultyFileSystem::file_size(const std::string& path) {
  state_->ensure_alive();
  return state_->inner.file_size(path);
}

void FaultyFileSystem::rename(const std::string& from, const std::string& to) {
  state_->ensure_alive();
  const IoFault* fault = state_->tick();
  if (fault != nullptr) {
    if (fault->kind == IoFaultKind::kCrash) state_->crash();
    throw IoError{"injected " + std::string{to_string(fault->kind)} + " on rename of " +
                  from};
  }
  state_->inner.rename(from, to);
}

void FaultyFileSystem::remove(const std::string& path) {
  state_->ensure_alive();
  const IoFault* fault = state_->tick();
  if (fault != nullptr) {
    if (fault->kind == IoFaultKind::kCrash) state_->crash();
    throw IoError{"injected " + std::string{to_string(fault->kind)} + " on remove of " +
                  path};
  }
  state_->inner.remove(path);
}

void FaultyFileSystem::truncate(const std::string& path, std::uint64_t size) {
  state_->ensure_alive();
  const IoFault* fault = state_->tick();
  if (fault != nullptr) {
    if (fault->kind == IoFaultKind::kCrash) state_->crash();
    throw IoError{"injected " + std::string{to_string(fault->kind)} + " on truncate of " +
                  path};
  }
  state_->inner.truncate(path, size);
}

void FaultyFileSystem::create_directories(const std::string& path) {
  state_->ensure_alive();
  state_->inner.create_directories(path);
}

std::vector<std::string> FaultyFileSystem::list(const std::string& dir,
                                                const std::string& prefix) {
  state_->ensure_alive();
  return state_->inner.list(dir, prefix);
}

void FaultyFileSystem::set_disk_full(bool full) noexcept {
  state_->disk_full.store(full, std::memory_order_relaxed);
}
bool FaultyFileSystem::disk_full() const noexcept {
  return state_->disk_full.load(std::memory_order_relaxed);
}

void FaultyFileSystem::set_read_fault_plan(IoFaultPlan plan) noexcept {
  state_->read_plan = std::move(plan);
}

std::uint64_t FaultyFileSystem::ops() const noexcept { return state_->ops; }
std::uint64_t FaultyFileSystem::read_ops() const noexcept {
  return state_->read_ops;
}
bool FaultyFileSystem::dead() const noexcept { return state_->dead; }
const std::vector<IoFault>& FaultyFileSystem::fired() const noexcept {
  return state_->fired;
}

void inject_bit_rot(FileSystem& fs, const std::string& path,
                    std::uint64_t offset, std::uint8_t mask) {
  if (mask == 0) throw IoError{"inject_bit_rot: zero mask would be a no-op"};
  std::vector<std::uint8_t> bytes = read_file(fs, path);
  if (offset >= bytes.size()) {
    throw IoError{"inject_bit_rot: offset " + std::to_string(offset) +
                  " past end of " + path};
  }
  bytes[offset] ^= mask;
  auto file = fs.open(path, OpenMode::kTruncate);
  if (file->write(bytes.data(), bytes.size()) != bytes.size()) {
    throw IoError{"inject_bit_rot: short write of " + path};
  }
  file->sync();
  file->close();
}

}  // namespace tl::io
