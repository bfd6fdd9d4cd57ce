// Error handling for FractOS: no exceptions on OS paths. Operations return Result<T>, which
// carries either a value or an ErrorCode. ErrorCode values mirror the failure classes of the
// FractOS syscall surface (Table 1 of the paper) plus transport-level failures.

#ifndef SRC_BASE_RESULT_H_
#define SRC_BASE_RESULT_H_

#include <cstdint>
#include <utility>
#include <variant>

#include "src/base/assert.h"

namespace fractos {

enum class ErrorCode : uint8_t {
  kOk = 0,
  // Capability-layer failures.
  kInvalidCapability,   // cid does not name a live entry in the caller's capability space
  kRevoked,             // target object has been invalidated at its owner Controller
  kStaleCapability,     // Controller reboot counter mismatch (owner failed and restarted)
  kPermissionDenied,    // operation requires rights the capability does not carry
  kWrongObjectKind,     // e.g. request_invoke on a Memory capability
  // Argument failures.
  kInvalidArgument,
  kOutOfRange,          // offset/size outside a Memory object's extents
  kArgumentOverlap,     // Request refinement writes an already-initialized immediate extent
  kNotFound,
  kAlreadyExists,
  // Resource / transport failures.
  kResourceExhausted,   // quota (cap space, memory, volumes) exceeded
  kBackpressure,        // congestion window full and queueing disabled
  kChannelClosed,       // peer Process or Controller is gone
  kTimeout,
  kAborted,             // operation cancelled by failure translation
  kBrokenPromise,       // every Promise for a Future died without delivering a value
  kUnimplemented,
  kInternal,
  kNotLeader,            // replicated seat: this controller cannot serve mutations right now
  kOverloaded,           // admission control shed the request before any work was done
};
// The highest value a decoder accepts for the enum (src/wire/buffer.h).
constexpr ErrorCode enum_last(ErrorCode) { return ErrorCode::kOverloaded; }

// An ErrorCode carried as a u64 immediate; a value no ErrorCode has is kInternal.
constexpr ErrorCode decode_error_code(uint64_t v) {
  return v > static_cast<uint64_t>(enum_last(ErrorCode{})) ? ErrorCode::kInternal
                                                            : static_cast<ErrorCode>(v);
}

// Human-readable name, for logs and test diagnostics.
const char* error_code_name(ErrorCode code);

inline const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "kOk";
    case ErrorCode::kInvalidCapability: return "kInvalidCapability";
    case ErrorCode::kRevoked: return "kRevoked";
    case ErrorCode::kStaleCapability: return "kStaleCapability";
    case ErrorCode::kPermissionDenied: return "kPermissionDenied";
    case ErrorCode::kWrongObjectKind: return "kWrongObjectKind";
    case ErrorCode::kInvalidArgument: return "kInvalidArgument";
    case ErrorCode::kOutOfRange: return "kOutOfRange";
    case ErrorCode::kArgumentOverlap: return "kArgumentOverlap";
    case ErrorCode::kNotFound: return "kNotFound";
    case ErrorCode::kAlreadyExists: return "kAlreadyExists";
    case ErrorCode::kResourceExhausted: return "kResourceExhausted";
    case ErrorCode::kBackpressure: return "kBackpressure";
    case ErrorCode::kChannelClosed: return "kChannelClosed";
    case ErrorCode::kTimeout: return "kTimeout";
    case ErrorCode::kAborted: return "kAborted";
    case ErrorCode::kBrokenPromise: return "kBrokenPromise";
    case ErrorCode::kUnimplemented: return "kUnimplemented";
    case ErrorCode::kInternal: return "kInternal";
    case ErrorCode::kNotLeader: return "kNotLeader";
    case ErrorCode::kOverloaded: return "kOverloaded";
  }
  return "unknown";
}

// Result<T>: holds a T on success or an ErrorCode on failure.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : repr_(std::move(value)) {}                      // NOLINT(runtime/explicit)
  Result(ErrorCode error) : repr_(error) {                          // NOLINT(runtime/explicit)
    FRACTOS_DCHECK(error != ErrorCode::kOk);
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }
  ErrorCode error() const { return ok() ? ErrorCode::kOk : std::get<ErrorCode>(repr_); }

  T& value() & {
    FRACTOS_CHECK_MSG(ok(), error_code_name(error()));
    return std::get<T>(repr_);
  }
  const T& value() const& {
    FRACTOS_CHECK_MSG(ok(), error_code_name(error()));
    return std::get<T>(repr_);
  }
  T&& value() && {
    FRACTOS_CHECK_MSG(ok(), error_code_name(error()));
    return std::get<T>(std::move(repr_));
  }
  T value_or(T fallback) const { return ok() ? std::get<T>(repr_) : std::move(fallback); }

 private:
  std::variant<T, ErrorCode> repr_;
};

// Result<void>: success/failure with no payload.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() : error_(ErrorCode::kOk) {}
  Result(ErrorCode error) : error_(error) {}  // NOLINT(runtime/explicit)

  bool ok() const { return error_ == ErrorCode::kOk; }
  ErrorCode error() const { return error_; }

 private:
  ErrorCode error_;
};

using Status = Result<void>;

inline Status ok_status() { return Status(); }

}  // namespace fractos

#endif  // SRC_BASE_RESULT_H_
