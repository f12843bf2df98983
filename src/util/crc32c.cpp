#include "util/crc32c.hpp"

#include <array>
#include <cstring>

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define TL_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace tl::util {
namespace {

// Reflected Castagnoli polynomial.
constexpr std::uint32_t kPoly = 0x82f63b78u;

struct Tables {
  // tables[0] is the classic byte-at-a-time table; tables[1..7] extend it so
  // eight input bytes fold into the CRC with eight independent loads.
  std::array<std::array<std::uint32_t, 256>, 8> t{};
};

Tables build_tables() noexcept {
  Tables tables;
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables.t[0][i];
    for (std::size_t slice = 1; slice < 8; ++slice) {
      crc = tables.t[0][crc & 0xffu] ^ (crc >> 8);
      tables.t[slice][i] = crc;
    }
  }
  return tables;
}

const Tables& tables() noexcept {
  static const Tables t = build_tables();
  return t;
}

#ifdef TL_CRC32C_SSE42
// The instruction folds 8 bytes per step; the tail goes 4/2/1. Compiled for
// SSE4.2 alone, and only ever called after the runtime check below.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const unsigned char* p, std::size_t size, std::uint32_t crc) noexcept {
  std::uint64_t c = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    c = _mm_crc32_u64(c, v);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  if (size >= 4) {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    c32 = _mm_crc32_u32(c32, v);
    p += 4;
    size -= 4;
  }
  if (size >= 2) {
    std::uint16_t v;
    std::memcpy(&v, p, 2);
    c32 = _mm_crc32_u16(c32, v);
    p += 2;
    size -= 2;
  }
  if (size > 0) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}
#endif

}  // namespace

bool crc32c_hardware() noexcept {
#ifdef TL_CRC32C_SSE42
  static const bool sse42 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return sse42;
#else
  return false;
#endif
}

std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t crc) noexcept {
#ifdef TL_CRC32C_SSE42
  if (crc32c_hardware()) {
    return crc32c_sse42(static_cast<const unsigned char*>(data), size, crc);
  }
#endif
  return crc32c_portable(data, size, crc);
}

std::uint32_t crc32c_portable(const void* data, std::size_t size,
                              std::uint32_t crc) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = tables().t;
  crc = ~crc;
  while (size >= 8) {
    crc ^= static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][crc & 0xffu] ^ t[6][(crc >> 8) & 0xffu] ^ t[5][(crc >> 16) & 0xffu] ^
          t[4][crc >> 24] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    size -= 8;
  }
  while (size-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace tl::util
