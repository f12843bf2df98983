#include "perfbench.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "core/simulator.hpp"

namespace tl::perfbench {

core::StudyConfig world_config(double scale, std::uint32_t ues, int days,
                               std::uint64_t seed) {
  core::StudyConfig cfg;
  cfg.scale = scale;
  cfg.days = days;
  cfg.census.districts = 320;
  cfg.census.total_population = 47'000'000;
  // Country and deployment first, from the fixed world seed ...
  cfg.seed = kWorldSeed;
  cfg.finalize();
  const geo::CensusConfig census = cfg.census;
  const topology::DeploymentConfig deployment = cfg.deployment;
  // ... then everything else from the run's seed.
  cfg.seed = seed;
  cfg.finalize();
  cfg.census = census;
  cfg.deployment = deployment;
  cfg.population.count = ues;
  return cfg;
}

void DigestSink::consume(const telemetry::HandoverRecord& record) {
  scratch_.clear();
  telemetry::RecordLog::encode_record(record, scratch_);
  crc_.update(scratch_.data(), scratch_.size());
  ++open_records_;
  ++total_;
}

void DigestSink::on_day_end(int day) {
  days_.push_back(DayDigest{day, open_records_, crc_.value()});
  crc_ = util::Crc32c{};
  open_records_ = 0;
}

bool rerun_day_matches(core::Simulator& sim, const DayDigest& expected,
                       unsigned threads) {
  DigestSink check;
  sim.add_sink(&check);
  sim.set_threads(threads);
  try {
    sim.run_day(expected.day);
  } catch (...) {
    sim.remove_sink(&check);
    throw;
  }
  sim.remove_sink(&check);
  return check.days().size() == 1 && check.days().front() == expected;
}

std::uint64_t wal_mismatched_days(io::FileSystem& fs, const std::string& directory,
                                  const std::vector<DayDigest>& live) {
  DigestSink replayed;
  try {
    telemetry::RecordLog::replay(fs, directory, replayed);
  } catch (const std::exception&) {
    return live.size();
  }
  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (i >= replayed.days().size() || !(replayed.days()[i] == live[i])) ++mismatched;
  }
  return mismatched;
}

std::uint64_t replay_mismatched_days(const std::vector<DayDigest>& simulated,
                                     const LayerStats& replay) {
  std::uint64_t mismatched = 0;
  for (const DayDigest& day : simulated) {
    const auto it = replay.records_by_day.find(day.day);
    if (it == replay.records_by_day.end()) {
      ++mismatched;  // the replay never ran this day
      continue;
    }
    DigestSink replayed;
    for (const auto& record : it->second) replayed.consume(record);
    replayed.on_day_end(day.day);
    if (!(replayed.days().front() == day)) ++mismatched;
  }
  return mismatched;
}

telemetry::HandoverRecord serve_record(const std::vector<PoolDay>& pool, int day,
                                       std::size_t i) {
  const PoolDay& source = pool[static_cast<std::size_t>(day) % pool.size()];
  telemetry::HandoverRecord record = source.records[i];
  record.timestamp += static_cast<util::TimestampMs>(day - source.day) * util::kMsPerDay;
  return record;
}

bool serve_state_matches(const std::vector<PoolDay>& pool, int days,
                         const serve::StreamAggregates::Options& options,
                         const std::vector<std::uint8_t>& tailer_state) {
  serve::StreamAggregates batch{options};
  for (int day = 0; day < days; ++day) {
    const std::size_t n = pool[static_cast<std::size_t>(day) % pool.size()].records.size();
    for (std::size_t i = 0; i < n; ++i) batch.consume(serve_record(pool, day, i));
    batch.on_day_end(day);
  }
  std::vector<std::uint8_t> state;
  batch.serialize(state);
  return state == tailer_state;
}

namespace {

bool is_checkpoint(const std::string& path) {
  return path.find(TimedFileSystem::kCheckpointMarker) != std::string::npos;
}

/// Runs `call`; on a checkpoint file, books its duration however it leaves.
template <typename F>
auto timed_call(TimedFileSystem& fs, bool checkpoint, F&& call) {
  if (!checkpoint) return call();
  struct Book {
    TimedFileSystem& fs;
    Clock::time_point start;
    ~Book() { fs.mutable_stats().checkpoint_s += seconds_between(start, Clock::now()); }
  } book{fs, Clock::now()};
  return call();
}

/// Decorated file: counts bytes and write calls, times fsyncs, and times
/// every call when the file is a checkpoint.
class TimedFile final : public io::File {
 public:
  TimedFile(std::unique_ptr<io::File> inner, TimedFileSystem& fs, bool checkpoint)
      : inner_(std::move(inner)), fs_(fs), checkpoint_(checkpoint) {}

  std::size_t write(const void* data, std::size_t size) override {
    const std::size_t written =
        timed_call(fs_, checkpoint_, [&] { return inner_->write(data, size); });
    fs_.mutable_stats().write_bytes += written;
    ++fs_.mutable_stats().write_calls;
    return written;
  }
  std::size_t read(void* data, std::size_t size) override {
    const std::size_t got =
        timed_call(fs_, checkpoint_, [&] { return inner_->read(data, size); });
    fs_.mutable_stats().read_bytes += got;
    return got;
  }
  void seek(std::uint64_t offset) override {
    timed_call(fs_, checkpoint_, [&] { inner_->seek(offset); });
  }
  void flush() override { timed_call(fs_, checkpoint_, [&] { inner_->flush(); }); }
  void sync() override {
    const auto start = Clock::now();
    inner_->sync();
    const double took = seconds_between(start, Clock::now());
    fs_.mutable_stats().fsync_s.push_back(took);
    if (checkpoint_) fs_.mutable_stats().checkpoint_s += took;
  }
  std::uint64_t size() override {
    return timed_call(fs_, checkpoint_, [&] { return inner_->size(); });
  }
  void close() override { timed_call(fs_, checkpoint_, [&] { inner_->close(); }); }

 private:
  std::unique_ptr<io::File> inner_;
  TimedFileSystem& fs_;
  bool checkpoint_;
};

}  // namespace

std::unique_ptr<io::File> TimedFileSystem::open(const std::string& path,
                                                io::OpenMode mode) {
  const bool checkpoint = is_checkpoint(path);
  auto file = timed_call(*this, checkpoint, [&] { return inner_.open(path, mode); });
  return std::make_unique<TimedFile>(std::move(file), *this, checkpoint);
}

bool TimedFileSystem::exists(const std::string& path) {
  return timed_call(*this, is_checkpoint(path), [&] { return inner_.exists(path); });
}

std::uint64_t TimedFileSystem::file_size(const std::string& path) {
  return timed_call(*this, is_checkpoint(path), [&] { return inner_.file_size(path); });
}

void TimedFileSystem::rename(const std::string& from, const std::string& to) {
  timed_call(*this, is_checkpoint(to), [&] { inner_.rename(from, to); });
}

void TimedFileSystem::remove(const std::string& path) {
  timed_call(*this, is_checkpoint(path), [&] { inner_.remove(path); });
}

void TimedFileSystem::truncate(const std::string& path, std::uint64_t size) {
  timed_call(*this, is_checkpoint(path), [&] { inner_.truncate(path, size); });
}

void TimedFileSystem::create_directories(const std::string& path) {
  inner_.create_directories(path);
}

std::vector<std::string> TimedFileSystem::list(const std::string& dir,
                                               const std::string& prefix) {
  return inner_.list(dir, prefix);
}

std::int32_t SpanLog::open(const char* name, std::uint64_t ue_day) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, ns(Clock::now()), 0,
                        stack_.empty() ? -1 : stack_.back(), ue_day});
  stack_.push_back(index);
  return index;
}

void SpanLog::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = ns(Clock::now());
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanLog::add(const char* name, Clock::time_point start, Clock::time_point end,
                  std::uint64_t ue_day) {
  spans_.push_back(
      Span{name, ns(start), ns(end), stack_.empty() ? -1 : stack_.back(), ue_day});
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  out << "name\tstart_ns\tend_ns\tparent\tue_day\n";
  for (const Span& s : spans_) {
    out << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.parent << '\t'
        << s.ue_day << '\n';
  }
  if (!out) throw std::runtime_error{"perfbench: cannot write spans to " + path};
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  throw std::runtime_error{"perfbench: VmHWM not found in /proc/self/status"};
}

}  // namespace tl::perfbench
