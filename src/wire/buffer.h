// Bounds-checked binary encoding. All FractOS protocol messages are serialized through
// Encoder/Decoder; the encoded size is what the fabric charges to the wire, so serialization
// here is what makes the reproduction's byte accounting honest.
//
// Format: little-endian fixed-width integers, length-prefixed byte strings. Each fixed-width
// field is one memcpy (a single store or load on little-endian hosts). Decoder never aborts
// on malformed input: it latches a failure flag and returns zeros, and callers check ok()
// once at the end (hardened against truncated/garbage buffers; tested by fuzz-ish tests).

#ifndef SRC_WIRE_BUFFER_H_
#define SRC_WIRE_BUFFER_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fractos {

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

  // Raw append, no length prefix (caller encodes the length separately).
  void put_raw(const uint8_t* data, size_t len);

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
  bool get_bool() { return get_u8() != 0; }

  std::vector<uint8_t> get_bytes();
  std::string get_string();
  // A length-prefixed byte string as a view into the buffer (empty on failure): lets a
  // caller copy it straight into its own storage.
  std::span<const uint8_t> get_span();

  // True iff no read has run past the end of the buffer so far.
  bool ok() const { return ok_; }
  // True iff the whole buffer was consumed and no read failed.
  bool done() const { return ok_ && pos_ == len_; }
  size_t remaining() const { return len_ - pos_; }

 private:
  template <typename T>
  T get_le() {
    if (len_ - pos_ < sizeof(T)) {
      ok_ = false;
      pos_ = len_;
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
