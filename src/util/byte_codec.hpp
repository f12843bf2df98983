#pragma once

// Little-endian byte codec shared by every binary format in the tree: the
// WAL frames and day markers, the checkpoint codec, the serve checkpoint,
// and the aggregate and sketch serializations. Writers either append to a
// byte vector (put_*) or encode at a pointer the caller has sized (store_*,
// for hot paths that must not allocate); readers either decode at a pointer
// the caller has bounds-checked (get_*) or walk a span through ByteReader,
// which checks every read.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <vector>

namespace tl::util {

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Stores `v` little-endian at `p`: one plain store on little-endian hosts.
template <typename T>
inline void store_le(std::uint8_t* p, T v) noexcept {
  if constexpr (std::endian::native != std::endian::little) {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  } else {
    std::memcpy(p, &v, sizeof v);
  }
}

inline void store_u16(std::uint8_t* p, std::uint16_t v) noexcept { store_le(p, v); }
inline void store_u32(std::uint8_t* p, std::uint32_t v) noexcept { store_le(p, v); }
inline void store_u64(std::uint8_t* p, std::uint64_t v) noexcept { store_le(p, v); }

inline std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

/// Bounds-checked cursor over a byte span. A read past the end throws
/// std::runtime_error carrying `truncated`, the owning format's message
/// for short input.
struct ByteReader {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  const char* truncated = "truncated input";

  void need(std::size_t n) const {
    if (pos + n > bytes.size()) throw std::runtime_error{truncated};
  }
  std::uint8_t u8() {
    need(1);
    return bytes[pos++];
  }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = get_u32(bytes.data() + pos);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = get_u64(bytes.data() + pos);
    pos += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
};

}  // namespace tl::util
