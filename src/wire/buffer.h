// Bounds-checked binary encoding. All FractOS protocol messages are serialized through
// Encoder/Decoder; the encoded size is what the fabric charges to the wire, so serialization
// here is what makes the reproduction's byte accounting honest.
//
// Format: little-endian fixed-width integers, length-prefixed byte strings. Each fixed-width
// field is one memcpy (a single store or load on little-endian hosts). Decoder never aborts
// on malformed input: it latches a failure flag and returns zeros, and callers check ok()
// once at the end (hardened against truncated/garbage buffers; tested by fuzz-ish tests).
//
// Structured values have one layout, declared once: a struct lists its fields in wire order
// with FRACTOS_WIRE_FIELDS, and Encoder::put / Decoder::get walk that list. The walk covers
// integers, enums, bools, nested structs, optionals (a bool, then the value if present),
// count-prefixed vectors and byte strings (std::vector<uint8_t>, SmallBytes, Payload,
// std::string: a u32 length, then the bytes). Decoding is strict, so every buffer that
// decodes re-encodes to the same bytes: a bool must be 0 or 1, and an enum must not exceed
// enum_last(E{}), which each enum carried on the wire declares beside its definition.

#ifndef SRC_WIRE_BUFFER_H_
#define SRC_WIRE_BUFFER_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/wire/payload.h"
#include "src/wire/small_bytes.h"

// Declares the fields of the enclosing struct, in wire order, as the argument list of
// `fields(f)`: the one place that struct's layout is written.
#define FRACTOS_WIRE_FIELDS(...)       \
  template <typename F>                \
  decltype(auto) fields(F&& f) {       \
    return f(__VA_ARGS__);             \
  }                                    \
  template <typename F>                \
  decltype(auto) fields(F&& f) const { \
    return f(__VA_ARGS__);             \
  }

namespace fractos {

namespace wire_detail {

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

template <typename T>
struct IsOptional : std::false_type {};
template <typename T>
struct IsOptional<std::optional<T>> : std::true_type {};

template <typename T>
constexpr bool kIsByteString =
    std::is_same_v<T, SmallBytes> || std::is_same_v<T, std::vector<uint8_t>> ||
    std::is_same_v<T, Payload> || std::is_same_v<T, std::string>;

template <typename... T>
struct TypeList {};

// The field types of a struct, read off its field list without running it.
template <typename T>
using FieldTypes = decltype(std::declval<const T&>().fields(
    [](const auto&... f) { return TypeList<std::remove_cvref_t<decltype(f)>...>{}; }));

}  // namespace wire_detail

// The fewest bytes a value of type T takes on the wire: what caps a decoded count.
template <typename T>
constexpr size_t wire_min_bytes() {
  if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (wire_detail::IsOptional<T>::value) {
    return 1;
  } else if constexpr (wire_detail::kIsByteString<T> || wire_detail::IsVector<T>::value) {
    return sizeof(uint32_t);
  } else {
    return []<typename... F>(wire_detail::TypeList<F...>) {
      return (size_t{0} + ... + wire_min_bytes<F>());
    }(wire_detail::FieldTypes<T>{});
  }
}

class Encoder {
 public:
  void put_u8(uint8_t v) { *grow(1) = v; }
  void put_u16(uint16_t v) { put_le(v); }
  void put_u32(uint32_t v) { put_le(v); }
  void put_u64(uint64_t v) { put_le(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  // Length-prefixed (u32) byte string.
  void put_bytes(std::span<const uint8_t> bytes);
  void put_bytes(std::initializer_list<uint8_t> bytes) {
    put_bytes(std::span<const uint8_t>(bytes.begin(), bytes.size()));
  }
  void put_string(std::string_view s);

  // Appends `v` in its wire layout (see the header comment).
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      put_bool(v);
    } else if constexpr (std::is_enum_v<T>) {
      put_le(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      put_le(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      put_string(v);
    } else if constexpr (std::is_same_v<T, Payload>) {
      put_bytes(v.bytes());
    } else if constexpr (wire_detail::kIsByteString<T>) {
      put_bytes(v);
    } else if constexpr (wire_detail::IsOptional<T>::value) {
      put_bool(v.has_value());
      if (v.has_value()) {
        put(*v);
      }
    } else if constexpr (wire_detail::IsVector<T>::value) {
      put_u32(static_cast<uint32_t>(v.size()));
      for (const auto& e : v) {
        put(e);
      }
    } else {
      v.fields([this](const auto&... f) { (put(f), ...); });
    }
  }

  std::span<const uint8_t> data() const { return {buf_.data(), size_}; }
  size_t size() const { return size_; }
  size_t capacity() const { return buf_.size(); }
  // Hands the encoded bytes over; the encoder is empty afterwards.
  std::vector<uint8_t> take();
  // Empties the encoder but keeps its buffer, so a reused encoder stops allocating.
  void clear() { size_ = 0; }

 private:
  template <typename T>
  void put_le(T v) {
    uint8_t* out = grow(sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, &v, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        out[i] = static_cast<uint8_t>(v >> (8 * i));
      }
    }
  }

  // Reserves `n` bytes at the end and returns where they start.
  uint8_t* grow(size_t n) {
    if (buf_.size() - size_ < n) {
      expand(n);
    }
    uint8_t* out = buf_.data() + size_;
    size_ += n;
    return out;
  }
  void expand(size_t n);

  std::vector<uint8_t> buf_;  // [0, size_) is encoded; the rest is room to grow into
  size_t size_ = 0;
};

class Decoder {
 public:
  Decoder(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Decoder(std::span<const uint8_t> buf) : Decoder(buf.data(), buf.size()) {}

  uint8_t get_u8() { return get_le<uint8_t>(); }
  uint16_t get_u16() { return get_le<uint16_t>(); }
  uint32_t get_u32() { return get_le<uint32_t>(); }
  uint64_t get_u64() { return get_le<uint64_t>(); }
  // Strict: a byte other than 0 or 1 fails the decode.
  bool get_bool() {
    const uint8_t b = get_u8();
    if (b > 1) {
      fail();
    }
    return b == 1;
  }

  // A length-prefixed byte string as a view into the buffer (empty on failure): lets a
  // caller copy it straight into its own storage.
  std::span<const uint8_t> get_span();

  // Reads `v` in its wire layout (see the header comment). On failure `v` holds whatever was
  // read before it, and ok() is false.
  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = get_bool();
    } else if constexpr (std::is_enum_v<T>) {
      using U = std::underlying_type_t<T>;
      const U raw = get_le<U>();
      if (raw > static_cast<U>(enum_last(T{}))) {
        fail();
      }
      v = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T>) {
      v = get_le<T>();
    } else if constexpr (std::is_same_v<T, SmallBytes>) {
      const std::span<const uint8_t> s = get_span();
      v.assign(s.data(), s.size());
    } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
      const std::span<const uint8_t> s = get_span();
      v.assign(s.begin(), s.end());
    } else if constexpr (std::is_same_v<T, std::string>) {
      const std::span<const uint8_t> s = get_span();
      v.assign(reinterpret_cast<const char*>(s.data()), s.size());
    } else if constexpr (std::is_same_v<T, Payload>) {
      const std::span<const uint8_t> s = get_span();
      v = s.empty() ? Payload() : Payload::copy_of(s.data(), s.size());
    } else if constexpr (wire_detail::IsOptional<T>::value) {
      v.reset();
      if (get_bool()) {
        get(v.emplace());
      }
    } else if constexpr (wire_detail::IsVector<T>::value) {
      constexpr size_t kMinBytes = wire_min_bytes<typename T::value_type>();
      static_assert(kMinBytes > 0, "a forged count of empty elements would spin");
      const uint32_t n = get_u32();
      v.clear();
      // A forged count cannot make the decoder reserve more than the rest of the buffer
      // could carry.
      v.reserve(std::min<size_t>(n, remaining() / kMinBytes));
      for (uint32_t i = 0; i < n && ok_; ++i) {
        get(v.emplace_back());
      }
    } else {
      v.fields([this](auto&... f) { (get(f), ...); });
    }
  }

  // True iff no read has run past the end of the buffer so far.
  bool ok() const { return ok_; }
  // True iff the whole buffer was consumed and no read failed.
  bool done() const { return ok_ && pos_ == len_; }
  size_t remaining() const { return len_ - pos_; }

 private:
  void fail() {
    ok_ = false;
    pos_ = len_;
  }

  template <typename T>
  T get_le() {
    if (len_ - pos_ < sizeof(T)) {
      fail();
      return T{};
    }
    T v{};
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_ + pos_, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
      }
    }
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace fractos

#endif  // SRC_WIRE_BUFFER_H_
