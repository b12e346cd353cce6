// An application-layer mapping of FBS.
//
// The abstract protocol is deliberately layer-neutral (Section 3: "it
// should not assume that it will operate in a particular stack or a
// specific protocol layer"); Section 4: "At the application layer,
// datagrams belonging to the same application 'conversation' constitute a
// flow", and principals may be applications or users rather than hosts.
//
// This mapping realizes that: principals are (host, application-port)
// pairs, each with its own Diffie-Hellman keypair and certificate -- so two
// applications on the same host have *different* master keys with any peer,
// a granularity the IP mapping cannot offer. Flows are application
// conversations, named by a 64-bit conversation id carried (protected) in
// every message and fed to the FAM as the classification attribute. The
// insecure datagram transport underneath is plain UDP.
#pragma once

#include <functional>

#include "fbs/engine.hpp"
#include "net/udp.hpp"

namespace fbs::core {

/// Principal identity for an application endpoint: 4-byte IPv4 address
/// followed by the 2-byte application port.
Principal app_principal(net::Ipv4Address host, std::uint16_t app_port);

class AppEndpoint {
 public:
  /// Received application messages: the authenticated source principal, the
  /// conversation they belong to, and the payload.
  using Handler = std::function<void(const Principal& from,
                                     std::uint64_t conversation,
                                     util::BytesView data)>;

  /// Binds `app_port` on `udp`. `keys` must resolve *application*
  /// principals (app_principal()-shaped addresses).
  AppEndpoint(net::UdpService& udp, net::Ipv4Address host,
              std::uint16_t app_port, KeyManager& keys,
              const util::Clock& clock, util::RandomSource& rng,
              const FbsConfig& config = {});

  void on_message(Handler handler) { handler_ = std::move(handler); }

  /// Send within `conversation`; each conversation is its own flow (and
  /// hence its own key).
  bool send(net::Ipv4Address host, std::uint16_t app_port,
            std::uint64_t conversation, util::BytesView data,
            bool secret = true);

  const Principal& self() const { return endpoint_.self(); }
  FbsEndpoint& fbs() { return endpoint_; }

  struct Counters {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t rejected = 0;
    std::uint64_t malformed = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  void on_datagram(net::Ipv4Address source, std::uint16_t source_port,
                   util::Bytes payload);

  net::UdpService& udp_;
  std::uint16_t app_port_;
  FbsEndpoint endpoint_;
  Handler handler_;
  Counters counters_;

  /// Engine scratch and the sent wire / received body, reused across
  /// messages.
  WorkContext ctx_;
  util::Bytes wire_;
  util::Bytes body_;
};

}  // namespace fbs::core
