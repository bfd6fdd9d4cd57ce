// SmallBytes: an owned byte string that keeps up to kInlineBytes bytes inside the object.
//
// Request immediates are almost always one 8-byte word (a token, an offset, a length), and
// every one of them is decoded, merged along a derivation chain, cached, copied into a
// delivery and re-encoded. As a std::vector each copy was a heap block of its own; inline,
// copying an immediate is copying the object. Longer strings (names, refinement blobs) take
// one exact-size heap block. The API is the slice of std::vector<uint8_t> the codebase uses.

#ifndef SRC_WIRE_SMALL_BYTES_H_
#define SRC_WIRE_SMALL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

namespace fractos {

class SmallBytes {
 public:
  static constexpr size_t kInlineBytes = 16;

  using value_type = uint8_t;
  using iterator = uint8_t*;
  using const_iterator = const uint8_t*;

  SmallBytes() = default;
  SmallBytes(const uint8_t* data, size_t n) { assign(data, n); }
  SmallBytes(std::span<const uint8_t> bytes) : SmallBytes(bytes.data(), bytes.size()) {}  // NOLINT
  SmallBytes(const std::vector<uint8_t>& bytes)  // NOLINT(google-explicit-constructor)
      : SmallBytes(bytes.data(), bytes.size()) {}
  SmallBytes(std::initializer_list<uint8_t> bytes) : SmallBytes(bytes.begin(), bytes.size()) {}

  SmallBytes(const SmallBytes& other) : SmallBytes(other.data(), other.size()) {}
  SmallBytes(SmallBytes&& other) noexcept { steal(other); }
  SmallBytes& operator=(const SmallBytes& other) {
    if (this != &other) {
      assign(other.data(), other.size());
    }
    return *this;
  }
  SmallBytes& operator=(SmallBytes&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  ~SmallBytes() { release(); }

  // Replaces the contents with a copy of [data, data + n).
  void assign(const uint8_t* data, size_t n) {
    release();
    uint8_t* out = inline_;
    if (n > kInlineBytes) {
      heap_ = new uint8_t[n];
      out = heap_;
    }
    size_ = static_cast<uint32_t>(n);
    if (n != 0) {
      std::memcpy(out, data, n);
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t* data() { return on_heap() ? heap_ : inline_; }
  const uint8_t* data() const { return on_heap() ? heap_ : inline_; }
  uint8_t* begin() { return data(); }
  uint8_t* end() { return data() + size_; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }
  uint8_t& operator[](size_t i) { return data()[i]; }
  uint8_t operator[](size_t i) const { return data()[i]; }

  bool operator==(const SmallBytes& other) const { return equals(other.data(), other.size()); }
  bool operator==(const std::vector<uint8_t>& other) const {
    return equals(other.data(), other.size());
  }

 private:
  bool on_heap() const { return size_ > kInlineBytes; }
  bool equals(const uint8_t* data, size_t n) const {
    return n == size_ && (n == 0 || std::memcmp(this->data(), data, n) == 0);
  }
  void release() {
    if (on_heap()) {
      delete[] heap_;
    }
    size_ = 0;
  }
  void steal(SmallBytes& other) {
    size_ = other.size_;
    if (other.on_heap()) {
      heap_ = other.heap_;
    } else {
      std::memcpy(inline_, other.inline_, kInlineBytes);
    }
    other.size_ = 0;
  }

  uint32_t size_ = 0;
  union {
    uint8_t inline_[kInlineBytes] = {};
    uint8_t* heap_;
  };
};

}  // namespace fractos

#endif  // SRC_WIRE_SMALL_BYTES_H_
