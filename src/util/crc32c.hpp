#pragma once

// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding every
// frame of the durable record log and the checkpoint file trailer.
//
// Two implementations, one result. On x86-64 built with GCC or Clang, a
// runtime check (once per process) routes crc32c() to the SSE4.2 `crc32`
// instruction, 8 bytes per step. Everywhere else it runs the portable,
// dependency-free slice-by-8 over precomputed tables, which stays exposed
// as crc32c_portable(): the reference the hardware path is tested against.
// The Castagnoli polynomial is chosen over CRC32 (IEEE) for its better
// error-detection properties on storage payloads; it is also what
// leveldb/rocksdb frame their WALs with (and what the instruction computes),
// so torn-tail detection behaves the way operators expect from production
// log formats.

#include <cstddef>
#include <cstdint>

namespace tl::util {

/// CRC32C of `size` bytes at `data`, continuing from `crc` (pass 0 for a
/// fresh checksum). The returned value is the plain (unmasked) CRC.
std::uint32_t crc32c(const void* data, std::size_t size,
                     std::uint32_t crc = 0) noexcept;

/// The portable slice-by-8 path, whatever the CPU offers. Same contract and
/// result as crc32c().
std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t crc = 0) noexcept;

/// True when crc32c() runs on the CPU's CRC32C instruction.
bool crc32c_hardware() noexcept;

/// Incremental accumulator for multi-buffer frames.
class Crc32c {
 public:
  void update(const void* data, std::size_t size) noexcept {
    crc_ = crc32c(data, size, crc_);
  }
  std::uint32_t value() const noexcept { return crc_; }
  void reset() noexcept { crc_ = 0; }

 private:
  std::uint32_t crc_ = 0;
};

/// Masked form for values stored next to the data they cover (rocksdb-style
/// rotation+offset): a CRC of bytes that themselves contain CRCs would
/// otherwise be fixed-point prone. The log stores masked CRCs on disk.
constexpr std::uint32_t mask_crc32c(std::uint32_t crc) noexcept {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
constexpr std::uint32_t unmask_crc32c(std::uint32_t masked) noexcept {
  const std::uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace tl::util
