// One-datagram protect/unprotect for tests: FbsEndpoint's protect_into and
// unprotect_into on a thread_local WorkContext, returning the wire or the
// received datagram by value. A WorkContext is pure scratch (it caches no
// flow or key state across calls), so one per thread serves every endpoint
// a test drives.
#pragma once

#include <optional>
#include <variant>

#include "fbs/engine.hpp"

namespace fbs::testing {

/// A successfully received datagram plus its flow demultiplexing info.
struct ReceivedDatagram {
  core::Datagram datagram;
  core::Sfl sfl = 0;
  bool was_secret = false;
  crypto::AlgorithmSuite suite;
};

using ReceiveOutcome = std::variant<ReceivedDatagram, core::ReceiveError>;

inline core::WorkContext& thread_work_context() {
  thread_local core::WorkContext ctx;
  return ctx;
}

/// FBSSend: the wire `FBSheader || body`, or nullopt if no master key for
/// the destination can be obtained.
inline std::optional<util::Bytes> protect(core::FbsEndpoint& endpoint,
                                          const core::Datagram& d,
                                          bool secret) {
  util::Bytes wire;
  if (!endpoint.protect_into(thread_work_context(), d, secret, wire))
    return std::nullopt;
  return wire;
}

/// FBSReceive: validate wire bytes claimed to be from `source`.
inline ReceiveOutcome unprotect(core::FbsEndpoint& endpoint,
                                const core::Principal& source,
                                util::BytesView wire) {
  util::Bytes body;
  const core::ReceiveIntoOutcome outcome =
      endpoint.unprotect_into(thread_work_context(), source, wire, body);
  if (const auto* err = std::get_if<core::ReceiveError>(&outcome))
    return *err;
  const auto& info = std::get<core::ReceivedInfo>(outcome);
  ReceivedDatagram out;
  out.datagram.source = source;
  out.datagram.destination = endpoint.self();
  out.datagram.body = std::move(body);
  out.sfl = info.sfl;
  out.was_secret = info.was_secret;
  out.suite = info.suite;
  return out;
}

}  // namespace fbs::testing
