#include "src/wire/buffer.h"

#include <algorithm>

namespace fractos {

void Encoder::put_bytes(std::span<const uint8_t> bytes) {
  put_u32(static_cast<uint32_t>(bytes.size()));
  if (!bytes.empty()) {
    std::memcpy(grow(bytes.size()), bytes.data(), bytes.size());
  }
}

void Encoder::put_string(std::string_view s) {
  put_bytes(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(s.data()), s.size()));
}

std::vector<uint8_t> Encoder::take() {
  buf_.resize(size_);
  size_ = 0;
  return std::move(buf_);
}

void Encoder::expand(size_t n) {
  // Doubling, from a first block that holds any control frame's fixed fields.
  buf_.resize(std::max({size_ + n, 2 * buf_.size(), size_t{64}}));
}

std::span<const uint8_t> Decoder::get_span() {
  const uint32_t n = get_u32();
  if (!ok_ || len_ - pos_ < n) {
    fail();
    return {};
  }
  const std::span<const uint8_t> out(data_ + pos_, n);
  pos_ += n;
  return out;
}

}  // namespace fractos
