// Payload: an immutable, refcounted byte buffer — the unit of bulk data on the simulated
// fabric.
//
// Before this type existed, every hop owned its bytes: Network::send copied the vector into
// the delivery closure, a duplicated message copied it again, every QueuePair retransmit
// copied it onto the wire, and RDMA verbs copied between pools and closures. For the
// payload-heavy paths (256 KiB storage reads, 512 KiB image batches) those copies dominated
// wall-clock time without changing a single simulated timestamp — pure simulator overhead.
//
// Payload copies are refcount bumps. The bytes are copied exactly once, at the origin
// (`Payload{std::move(vec)}` doesn't even copy — it adopts the vector). Immutability makes
// the sharing safe: no API exposes a mutable view, so a retransmitted message and its
// original can alias the same Rep forever. The refcount is a plain integer: the simulator
// runs on one thread.
//
// `std::vector<uint8_t>` converts implicitly, so existing call sites that build a vector
// (or a braced list) keep compiling; they now pay one adoption instead of N copies.

#ifndef SRC_FABRIC_PAYLOAD_H_
#define SRC_FABRIC_PAYLOAD_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace fractos {

class Payload {
 public:
  Payload() = default;

  // Adopts `bytes` (no copy). Implicit so vector-producing call sites — Encoder::take(),
  // braced literals in tests — convert without ceremony.
  Payload(std::vector<uint8_t> bytes)  // NOLINT(google-explicit-constructor)
      : rep_(new Rep{1, std::move(bytes)}) {}

  // Braced literals (`send(..., {1, 2, 3}, ...)`) — mostly tests and fixtures.
  Payload(std::initializer_list<uint8_t> bytes) : Payload(std::vector<uint8_t>(bytes)) {}

  // A zero-filled payload of `n` bytes (wire padding, ACK frames).
  static Payload zeros(size_t n) { return Payload(std::vector<uint8_t>(n)); }

  Payload(const Payload& other) : rep_(other.rep_) {
    if (rep_ != nullptr) {
      ++rep_->refs;
    }
  }
  Payload(Payload&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      Payload tmp(other);
      std::swap(rep_, tmp.rep_);
    }
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~Payload() { unref(); }

  const uint8_t* data() const { return rep_ != nullptr ? rep_->bytes.data() : nullptr; }
  size_t size() const { return rep_ != nullptr ? rep_->bytes.size() : 0; }
  bool empty() const { return size() == 0; }

  // The underlying bytes as a vector reference — what Decoder and decode_envelope consume.
  // Valid for the lifetime of any Payload sharing this Rep.
  const std::vector<uint8_t>& bytes() const {
    static const std::vector<uint8_t> kEmpty;
    return rep_ != nullptr ? rep_->bytes : kEmpty;
  }

  // Materializes an owned copy of the bytes — for the rare consumer that must mutate
  // (e.g. copying into a simulated memory pool is memcpy from data(), not this).
  std::vector<uint8_t> to_vector() const { return bytes(); }

 private:
  struct Rep {
    size_t refs;
    std::vector<uint8_t> bytes;
  };

  void unref() {
    if (rep_ != nullptr && --rep_->refs == 0) {
      delete rep_;
    }
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;
};

}  // namespace fractos

#endif  // SRC_FABRIC_PAYLOAD_H_
