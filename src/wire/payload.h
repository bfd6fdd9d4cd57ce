// Payload: an immutable, refcounted byte buffer — the unit of every message on the simulated
// fabric, from a 20-byte syscall reply to a 512 KiB image batch.
//
// Before this type existed, every hop owned its bytes: Network::send copied the vector into
// the delivery closure, a duplicated message copied it again, every QueuePair retransmit
// copied it onto the wire, and RDMA verbs copied between pools and closures. For the
// payload-heavy paths (256 KiB storage reads, 512 KiB image batches) those copies dominated
// wall-clock time without changing a single simulated timestamp — pure simulator overhead.
//
// Payload copies are refcount bumps. The bytes are written exactly once, at the origin, into
// one heap block that holds the refcount, the length and the bytes together: a frame costs
// one allocation from encode to delivery (DESIGN.md §4e, "Frame lifecycle"). Immutability
// makes the sharing safe: no API exposes a mutable view after construction, so a
// retransmitted message and its original alias the same block forever. The refcount is a
// plain integer: the simulator runs on one thread.
//
// `std::vector<uint8_t>` and braced lists convert implicitly (one copy into the block), so
// call sites that build a vector keep compiling; the hot origins (encode_envelope, RDMA
// reads) build the block directly with copy_of() or build().

#ifndef SRC_WIRE_PAYLOAD_H_
#define SRC_WIRE_PAYLOAD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <utility>
#include <vector>

namespace fractos {

class Payload {
 public:
  Payload() = default;

  // Copies `bytes` into a fresh block. Implicit so vector-producing call sites — Encoder::take(),
  // braced literals in tests — convert without ceremony.
  Payload(const std::vector<uint8_t>& bytes)  // NOLINT(google-explicit-constructor)
      : Payload(copy_of(bytes.data(), bytes.size())) {}

  // Braced literals (`send(..., {1, 2, 3}, ...)`) — mostly tests and fixtures.
  Payload(std::initializer_list<uint8_t> bytes) : Payload(copy_of(bytes.begin(), bytes.size())) {}

  // A payload holding a copy of [data, data + n).
  static Payload copy_of(const uint8_t* data, size_t n) {
    return build(n, [&](uint8_t* out) {
      if (n != 0) {
        std::memcpy(out, data, n);
      }
    });
  }

  // A zero-filled payload of `n` bytes (wire padding, ACK frames).
  static Payload zeros(size_t n) {
    return build(n, [n](uint8_t* out) {
      if (n != 0) {
        std::memset(out, 0, n);
      }
    });
  }

  // A payload of `n` bytes that `fill(uint8_t* out)` writes exactly once, before anyone can
  // see them — the one way to put bytes into a block without an intermediate buffer.
  template <typename Fill>
  static Payload build(size_t n, Fill&& fill) {
    Payload p;
    p.rep_ = ::new (::operator new(sizeof(Rep) + n)) Rep{1, n};
    fill(p.rep_->bytes());
    return p;
  }

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

  const uint8_t* data() const { return rep_ != nullptr ? rep_->bytes() : nullptr; }
  size_t size() const { return rep_ != nullptr ? rep_->size : 0; }
  bool empty() const { return size() == 0; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size(); }

  // The bytes as a view — what Decoder and decode_envelope consume. Valid for the lifetime
  // of any Payload sharing this block.
  std::span<const uint8_t> bytes() const { return {data(), size()}; }

  // Materializes an owned copy of the bytes — for the rare consumer that must mutate.
  std::vector<uint8_t> to_vector() const { return std::vector<uint8_t>(begin(), end()); }

  // The same copy, implicitly: `std::vector<uint8_t> v = encode_envelope(env);` keeps
  // compiling for code (mostly tests) that corrupts a frame before decoding it.
  operator std::vector<uint8_t>() const { return to_vector(); }  // NOLINT

 private:
  // The block's header; the bytes follow it in the same allocation.
  struct Rep {
    size_t refs;
    size_t size;
    uint8_t* bytes() { return reinterpret_cast<uint8_t*>(this + 1); }
  };

  void unref() {
    if (rep_ != nullptr && --rep_->refs == 0) {
      ::operator delete(rep_);
    }
    rep_ = nullptr;
  }

  Rep* rep_ = nullptr;
};

}  // namespace fractos

#endif  // SRC_WIRE_PAYLOAD_H_
