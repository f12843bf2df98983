#pragma once

// Minimal storage abstraction for the durable pipeline.
//
// Everything that must survive a crash (the record log, checkpoint files)
// writes through this interface instead of raw iostreams, for two reasons:
// (1) durability needs fsync, which iostreams cannot express, and (2) the
// chaos harness needs a seam where seeded I/O faults — short writes, EIO,
// failed fsyncs, hard crash points — can be injected without touching the
// code under test (see io/faulty_file.hpp). The production implementation
// (StdioFileSystem) is a thin veneer over stdio + POSIX fsync.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace tl::io {

/// A storage operation failed (EIO, ENOSPC, failed fsync, ...). Durable
/// writers treat any IoError as "this commit did not happen" and rely on
/// recovery-on-reopen to discard the partial state.
class IoError : public std::runtime_error {
 public:
  explicit IoError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown by the fault-injection layer at a scheduled hard crash point:
/// models the process dying mid-I/O. Deliberately NOT derived from IoError —
/// error-handling code that catches IoError must not be able to swallow a
/// simulated process death.
class SimulatedCrash : public std::exception {
 public:
  const char* what() const noexcept override {
    return "simulated process crash (injected)";
  }
};

enum class OpenMode : std::uint8_t {
  kRead,    // existing file, read-only
  kTruncate,  // create or truncate, write-only
  kAppend,  // create if absent, writes go to the end
};

/// One open file. Writers are append-oriented: the durable log never
/// overwrites in place (recovery truncates via the FileSystem instead).
class File {
 public:
  virtual ~File() = default;

  /// Appends `size` bytes; returns the number actually written. A short
  /// count models ENOSPC-style partial writes — callers must treat it as a
  /// failed durable write. Throws IoError on hard failure.
  virtual std::size_t write(const void* data, std::size_t size) = 0;

  /// Reads up to `size` bytes from the current position; returns the number
  /// read (0 at EOF). Throws IoError on hard failure.
  virtual std::size_t read(void* data, std::size_t size) = 0;

  /// Repositions the read cursor (read-mode files only).
  virtual void seek(std::uint64_t offset) = 0;

  /// Pushes user-space buffers to the OS. Throws IoError.
  virtual void flush() = 0;

  /// Durability barrier: flush + fsync. Data written before a successful
  /// sync() must survive a crash; data written after may not. Throws IoError.
  virtual void sync() = 0;

  /// Current size in bytes.
  virtual std::uint64_t size() = 0;

  /// Idempotent close; flushes. Errors on close are swallowed (the durable
  /// protocol only trusts data behind an explicit successful sync()).
  virtual void close() = 0;
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Throws IoError if the file cannot be opened in `mode`.
  virtual std::unique_ptr<File> open(const std::string& path, OpenMode mode) = 0;

  virtual bool exists(const std::string& path) = 0;
  virtual std::uint64_t file_size(const std::string& path) = 0;

  /// Atomically replaces `to` with `from` (POSIX rename semantics). The
  /// cornerstone of the write-temp-then-rename checkpoint protocol.
  virtual void rename(const std::string& from, const std::string& to) = 0;

  virtual void remove(const std::string& path) = 0;

  /// Truncates a (closed) file to `size` bytes — how recovery discards a
  /// torn tail.
  virtual void truncate(const std::string& path, std::uint64_t size) = 0;

  /// Creates `path` and parents as needed; no-op if it already exists.
  virtual void create_directories(const std::string& path) = 0;

  /// Names (not paths) of regular files directly under `dir` that start
  /// with `prefix`, sorted ascending. Empty if `dir` does not exist.
  virtual std::vector<std::string> list(const std::string& dir,
                                        const std::string& prefix) = 0;
};

/// Reads the whole file at `path` through `fs`. Throws IoError when the file
/// cannot be opened or ends before its reported size.
std::vector<std::uint8_t> read_file(FileSystem& fs, const std::string& path);

/// Atomically replaces `path` with `bytes`: writes `<path>.tmp`, fsyncs it,
/// then renames it over `path`, so a crash leaves the old file or the new
/// one, never a torn mix. Throws IoError on a short write or any failed
/// step; the tmp is then left for the caller to remove or sweep.
void write_file_atomic(FileSystem& fs, const std::string& path,
                       std::span<const std::uint8_t> bytes);

/// The real filesystem: stdio streams + POSIX fsync + std::filesystem
/// metadata operations. Stateless; the singleton is shared freely.
///
/// On Linux each writable file starts the kernel's writeback of its dirty
/// pages after every 1 MiB written since its last hint or sync()
/// (sync_file_range with SYNC_FILE_RANGE_WRITE only), so a long write stream
/// reaches the disk while it is still being produced and the sync() that
/// ends it waits for about its last MiB. The hint is not a barrier: it does
/// not wait, makes nothing durable and adds no operation on the seam, so
/// sync() stays the one commit point. It leaves writeback errors recorded
/// for the next fsync to report, and its own result is ignored: pages it did
/// not submit stay dirty and sync() writes them.
class StdioFileSystem final : public FileSystem {
 public:
  std::unique_ptr<File> open(const std::string& path, OpenMode mode) override;
  bool exists(const std::string& path) override;
  std::uint64_t file_size(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  void remove(const std::string& path) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  void create_directories(const std::string& path) override;
  std::vector<std::string> list(const std::string& dir,
                                const std::string& prefix) override;

  /// Process-wide instance.
  static StdioFileSystem& instance();
};

}  // namespace tl::io
