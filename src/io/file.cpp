#include "io/file.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif
#ifdef __linux__
#include <fcntl.h>
#endif

namespace tl::io {
namespace {

namespace stdfs = std::filesystem;

/// A file that has taken this many bytes since its last hint or sync asks
/// the kernel to start writing its dirty pages back.
constexpr std::size_t kWritebackHintBytes = std::size_t{1} << 20;

[[noreturn]] void throw_errno(const std::string& op, const std::string& path) {
  throw IoError{op + " failed on " + path + ": " + std::strerror(errno)};
}

/// Starts writeback of the file's dirty pages and returns without waiting
/// (Linux only; elsewhere sync() writes everything). No WAIT flag, so a
/// writeback error is neither waited on nor consumed here: it stays recorded
/// on the file for the next fsync() to report. The result is ignored because
/// the hint promises nothing; pages it did not submit are still dirty.
void start_writeback(std::FILE* f) noexcept {
#ifdef __linux__
  (void)::sync_file_range(fileno(f), 0, 0, SYNC_FILE_RANGE_WRITE);
#else
  (void)f;
#endif
}

class StdioFile final : public File {
 public:
  StdioFile(std::FILE* f, std::string path) : f_(f), path_(std::move(path)) {}
  ~StdioFile() override { close(); }

  std::size_t write(const void* data, std::size_t size) override {
    const std::size_t n = std::fwrite(data, 1, size, f_);
    if (n < size && std::ferror(f_)) throw_errno("write", path_);
    unhinted_ += n;
    if (unhinted_ >= kWritebackHintBytes) {
      start_writeback(f_);
      unhinted_ = 0;
    }
    return n;
  }

  std::size_t read(void* data, std::size_t size) override {
    const std::size_t n = std::fread(data, 1, size, f_);
    if (n < size && std::ferror(f_)) throw_errno("read", path_);
    return n;
  }

  void seek(std::uint64_t offset) override {
    if (std::fseek(f_, static_cast<long>(offset), SEEK_SET) != 0) {
      throw_errno("seek", path_);
    }
  }

  void flush() override {
    if (std::fflush(f_) != 0) throw_errno("flush", path_);
  }

  void sync() override {
    flush();
#ifdef _WIN32
    if (_commit(_fileno(f_)) != 0) throw_errno("fsync", path_);
#else
    if (::fsync(fileno(f_)) != 0) throw_errno("fsync", path_);
#endif
    unhinted_ = 0;
  }

  std::uint64_t size() override {
    const long pos = std::ftell(f_);
    if (pos < 0) throw_errno("ftell", path_);
    if (std::fseek(f_, 0, SEEK_END) != 0) throw_errno("seek", path_);
    const long end = std::ftell(f_);
    if (end < 0) throw_errno("ftell", path_);
    if (std::fseek(f_, pos, SEEK_SET) != 0) throw_errno("seek", path_);
    return static_cast<std::uint64_t>(end);
  }

  void close() override {
    if (f_ == nullptr) return;
    std::fclose(f_);  // close errors intentionally swallowed; see File::close
    f_ = nullptr;
  }

 private:
  std::FILE* f_;
  std::string path_;
  std::size_t unhinted_ = 0;  // bytes written since the last hint or sync
};

const char* mode_string(OpenMode mode) noexcept {
  switch (mode) {
    case OpenMode::kRead: return "rb";
    case OpenMode::kTruncate: return "wb";
    case OpenMode::kAppend: return "ab";
  }
  return "rb";
}

}  // namespace

std::unique_ptr<File> StdioFileSystem::open(const std::string& path, OpenMode mode) {
  std::FILE* f = std::fopen(path.c_str(), mode_string(mode));
  if (f == nullptr) throw_errno("open", path);
  return std::make_unique<StdioFile>(f, path);
}

bool StdioFileSystem::exists(const std::string& path) {
  std::error_code ec;
  return stdfs::exists(path, ec);
}

std::uint64_t StdioFileSystem::file_size(const std::string& path) {
  std::error_code ec;
  const auto n = stdfs::file_size(path, ec);
  if (ec) throw IoError{"file_size failed on " + path + ": " + ec.message()};
  return static_cast<std::uint64_t>(n);
}

void StdioFileSystem::rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  stdfs::rename(from, to, ec);
  if (ec) throw IoError{"rename " + from + " -> " + to + " failed: " + ec.message()};
}

void StdioFileSystem::remove(const std::string& path) {
  std::error_code ec;
  stdfs::remove(path, ec);
  if (ec) throw IoError{"remove failed on " + path + ": " + ec.message()};
}

void StdioFileSystem::truncate(const std::string& path, std::uint64_t size) {
  std::error_code ec;
  stdfs::resize_file(path, size, ec);
  if (ec) throw IoError{"truncate failed on " + path + ": " + ec.message()};
}

void StdioFileSystem::create_directories(const std::string& path) {
  std::error_code ec;
  stdfs::create_directories(path, ec);
  if (ec) throw IoError{"create_directories failed on " + path + ": " + ec.message()};
}

std::vector<std::string> StdioFileSystem::list(const std::string& dir,
                                               const std::string& prefix) {
  std::vector<std::string> names;
  std::error_code ec;
  if (!stdfs::is_directory(dir, ec)) return names;
  for (const auto& entry : stdfs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::uint8_t> read_file(FileSystem& fs, const std::string& path) {
  std::vector<std::uint8_t> bytes(fs.file_size(path));
  auto file = fs.open(path, OpenMode::kRead);
  std::size_t have = 0;
  while (have < bytes.size()) {
    const std::size_t n = file->read(bytes.data() + have, bytes.size() - have);
    if (n == 0) throw IoError{"short read of " + path};
    have += n;
  }
  return bytes;
}

void write_file_atomic(FileSystem& fs, const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    auto file = fs.open(tmp, OpenMode::kTruncate);
    if (file->write(bytes.data(), bytes.size()) != bytes.size()) {
      throw IoError{"short write (device full?): " + tmp};
    }
    file->sync();
    file->close();
  }
  fs.rename(tmp, path);
}

StdioFileSystem& StdioFileSystem::instance() {
  static StdioFileSystem fs;
  return fs;
}

}  // namespace tl::io
