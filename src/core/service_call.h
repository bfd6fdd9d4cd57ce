// One call convention for the FractOS services (DESIGN.md §4m). Each endpoint declares its
// request immediates, and its reply's, once: a struct whose FRACTOS_WIRE_FIELDS list one rule
// walks. Field i of a request is one ImmExtent at offset 8*i: a u64, bool or enum takes 8 LE
// bytes, and a std::string (only as the last field) its raw bytes. A reply carries a u64
// ErrorCode at imm@0 and, on kOk only, its fields at 8*(i+1) and its capabilities. The reply
// Request is the call's last capability (Process::call appends it). Decoding is strict
// (every field present, a bool 0 or 1, an enum at most its enum_last): a request that does
// not decode is answered kInvalidArgument, one with no capability is dropped, and a reply
// that does not decode resolves kInternal.

#ifndef SRC_CORE_SERVICE_CALL_H_
#define SRC_CORE_SERVICE_CALL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/process.h"
#include "src/wire/buffer.h"

namespace fractos {

// The immediates of endpoints that take or answer nothing, a size, or a name.
struct NoImms {
  FRACTOS_WIRE_FIELDS()
};
struct SizeImms {
  uint64_t size = 0;
  FRACTOS_WIRE_FIELDS(size)
};
struct NameImms {
  std::string name;
  FRACTOS_WIRE_FIELDS(name)
};

namespace service_call_detail {

constexpr uint32_t kWordBytes = 8;

// True when every field is a u64, bool or enum, but for a last std::string.
template <typename... F>
constexpr bool lays_out(wire_detail::TypeList<F...>) {
  size_t i = 0;
  return ((++i, std::is_same_v<F, uint64_t> || std::is_same_v<F, bool> || std::is_enum_v<F> ||
                    (std::is_same_v<F, std::string> && i == sizeof...(F))) &&
          ... && true);
}
template <typename F>
void put_field(Process::Args& args, uint32_t& at, const F& f) {
  if constexpr (std::is_same_v<F, std::string>) {
    args.imm_str(at, f);
  } else {
    args.imm_u64(at, static_cast<uint64_t>(f));
  }
  at += kWordBytes;
}

template <typename F>
bool get_field(const Process::Received& r, uint32_t& at, F& f) {
  const uint32_t offset = std::exchange(at, at + kWordBytes);
  if constexpr (std::is_same_v<F, std::string>) {
    std::optional<std::string> s = r.imm_str(offset);
    f = std::move(s).value_or(std::string());  // moves the bytes out; `s` stays engaged
    return s.has_value();
  } else {
    const std::optional<uint64_t> w = r.imm_u64(offset);
    f = static_cast<F>(w.value_or(0));
    if constexpr (std::is_same_v<F, bool>) {
      return w.has_value() && *w <= 1;
    } else if constexpr (std::is_enum_v<F>) {
      return w.has_value() && *w <= static_cast<uint64_t>(enum_last(F{}));
    } else {
      return w.has_value();
    }
  }
}

}  // namespace service_call_detail

// Appends `v`'s fields to `args`, field i at offset first + 8*i.
template <typename T>
Process::Args& put_imms(Process::Args& args, const T& v, uint32_t first = 0) {
  static_assert(service_call_detail::lays_out(wire_detail::FieldTypes<T>{}),
                "immediates are u64, bool or enum fields and at most a last std::string");
  uint32_t at = first;
  v.fields([&](const auto&... f) {
    args.imms.reserve(args.imms.size() + sizeof...(f));
    (service_call_detail::put_field(args, at, f), ...);
  });
  return args;
}

// A request's arguments: `v`'s fields from offset 0.
template <typename T>
Process::Args imm_args(const T& v) {
  Process::Args args;
  put_imms(args, v);
  return args;
}

// Reads `v`'s fields from offset first + 8*i; false when one is absent or out of range.
template <typename T>
bool get_imms(const Process::Received& r, T& v, uint32_t first = 0) {
  uint32_t at = first;
  return v.fields(
      [&](auto&... f) { return (true && ... && service_call_detail::get_field(r, at, f)); });
}

// The one reply path: invokes `to` with `code` at imm@0 and, on kOk, `fields` and `caps`.
// An error continuation (IoRequest::fail_op, a GPU kernel's error Request) gets a code alone.
template <typename Reply = NoImms>
void send_reply(Process& proc, CapId to, ErrorCode code, const Reply& fields = {},
                std::vector<CapId> caps = {}) {
  Process::Args args;
  args.imm_u64(0, static_cast<uint64_t>(code));
  if (code == ErrorCode::kOk) {
    put_imms(args, fields, service_call_detail::kWordBytes);
    args.caps = std::move(caps);
  }
  proc.request_invoke(to, std::move(args));
}

// The ErrorCode a reply or an error continuation carries; kInternal when it has none.
inline ErrorCode reply_status(const Process::Received& r) {
  const std::optional<uint64_t> code = r.imm_u64(0);
  return code.has_value() ? decode_error_code(*code) : ErrorCode::kInternal;
}

// A decoded request: its immediates, its reply Request, and the capabilities before that.
template <typename Req>
struct ServiceCall {
  Req args;
  CapId reply = kInvalidCap;
  std::vector<DeliveredCap> caps;
};

// The serving end: a handler that decodes each delivery and runs `fn(ServiceCall<Req>)`.
template <typename Req, typename Fn>
Process::Handler serve_calls(Process& proc, Fn fn) {
  return [&proc, fn = std::move(fn)](Process::Received r) {
    if (r.caps.empty()) {
      return;
    }
    ServiceCall<Req> request;
    request.reply = r.caps.back().cid;
    if (!get_imms(r, request.args)) {
      send_reply(proc, request.reply, ErrorCode::kInvalidArgument);
      return;
    }
    r.caps.pop_back();
    request.caps = std::move(r.caps);
    fn(std::move(request));
  };
}

// The caller's end: invokes `target` with `req` and `caps` plus a one-shot reply Request, and
// resolves with the reply's ErrorCode, or on kOk with `make(reply fields, reply caps)`.
template <typename Reply, typename Req, typename Make>
auto call(Process& proc, CapId target, const Req& req, std::vector<CapId> caps, Make make) {
  using Out = std::invoke_result_t<Make, Reply&&, const std::vector<DeliveredCap>&>;
  Process::Args args = imm_args(req);
  args.caps = std::move(caps);
  return proc.call(target, std::move(args))
      .then([make = std::move(make)](Result<Process::Received>&& r) -> Out {
        if (!r.ok()) {
          return r.error();
        }
        Reply reply;
        if (const ErrorCode code = reply_status(r.value()); code != ErrorCode::kOk) {
          return code;
        }
        if (!get_imms(r.value(), reply, service_call_detail::kWordBytes)) {
          return ErrorCode::kInternal;
        }
        return make(std::move(reply), r.value().caps);
      });
}

// A call whose reply is its status alone.
template <typename Req>
Future<Status> call(Process& proc, CapId target, const Req& req, std::vector<CapId> caps = {}) {
  return call<NoImms>(proc, target, req, std::move(caps),
                      [](NoImms&&, const std::vector<DeliveredCap>&) { return ok_status(); });
}

}  // namespace fractos

#endif  // SRC_CORE_SERVICE_CALL_H_
