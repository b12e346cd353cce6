// An interactive TELNET-style session over TCP over FBS -- the workload the
// Section 7.1 policy discussion centres on: "a long TELNET session with
// large quiet periods" legitimately splits into several flows, and "the
// partitioning of a long duration conversation into multiple flows is
// better from a security perspective".
//
// A scripted user types command bursts separated by quiet periods longer
// than THRESHOLD. Watch the sfl change across the quiet periods while the
// TCP connection -- and the user's session -- continues undisturbed.
#include <cstdio>

#include "crypto/dh.hpp"
#include "net/simnet.hpp"
#include "fbs/ip_map.hpp"
#include "net/tcp.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

using namespace fbs;

namespace {

struct Host {
  std::unique_ptr<core::MasterKeyDaemon> mkd;
  std::unique_ptr<core::KeyManager> keys;
  std::unique_ptr<net::IpStack> stack;
  std::unique_ptr<core::FbsIpMapping> fbs;
  std::unique_ptr<net::TcpService> tcp;
};

Host make_host(const char* ip, cert::CertificateAuthority& ca,
               cert::DirectoryService& directory, net::SimNetwork& network,
               util::Clock& clock, util::RandomSource& rng) {
  Host host;
  const auto address = *net::Ipv4Address::parse(ip);
  const auto principal = core::Principal::from_ipv4(address);
  const auto& group = crypto::test_group();
  const crypto::DhKeyPair dh = crypto::dh_generate(group, rng);
  directory.publish(ca.issue(principal.address, group.name,
                             dh.public_value.to_bytes_be(group.element_size()),
                             0, clock.now() + util::minutes(1000000)));
  host.mkd = std::make_unique<core::MasterKeyDaemon>(
      principal, dh.private_value, group, ca, directory, clock);
  host.keys = std::make_unique<core::KeyManager>(*host.mkd);
  host.stack = std::make_unique<net::IpStack>(network, clock, address);
  host.fbs = std::make_unique<core::FbsIpMapping>(
      *host.stack, core::IpMappingConfig{}, *host.keys, clock, rng);
  host.tcp = std::make_unique<net::TcpService>(*host.stack, network, rng);
  return host;
}

}  // namespace

int main() {
  util::VirtualClock clock(util::minutes(50000));
  util::SplitMix64 rng(4242);
  cert::CertificateAuthority ca(512, rng);
  cert::DirectoryService directory;
  net::SimNetwork network(clock, 9);

  Host client = make_host("10.1.0.11", ca, directory, network, clock, rng);
  Host server = make_host("10.1.1.1", ca, directory, network, clock, rng);

  std::printf("== secure telnet: one TCP connection, several FBS flows ==\n");
  std::printf("(flow THRESHOLD = 600s; quiet periods below are 15 min)\n\n");

  // Server: a fake shell that answers every line.
  server.tcp->listen(23, [&](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_receive([conn](util::BytesView line) {
      util::Bytes reply = util::to_bytes("$ ran: ");
      reply.insert(reply.end(), line.begin(), line.end());
      conn->send(reply);
    });
  });

  auto session = client.tcp->connect(server.stack->address(), 23);
  session->on_receive([&](util::BytesView reply) {
    std::printf("  [t=%6.1f min] server: %s\n",
                static_cast<double>(clock.now()) / util::kMicrosPerMinute -
                    50000,
                util::to_string(reply).c_str());
  });
  network.run();

  // sfl spy: watch the flow label on the wire for client->server traffic.
  std::uint64_t last_sfl = 0;
  int flows_seen = 0;
  network.set_tap([&](net::Ipv4Address from, net::Ipv4Address to,
                      util::Bytes& frame) {
    if (from == client.stack->address() && to == server.stack->address()) {
      if (const auto ip = net::Ipv4Header::parse(frame)) {
        if (const auto fbs_hdr = core::FbsHeaderView::parse(ip->payload)) {
          if (fbs_hdr->sfl != last_sfl) {
            last_sfl = fbs_hdr->sfl;
            ++flows_seen;
            std::printf("  >> client->server flow #%d (sfl=%016llx)\n",
                        flows_seen,
                        static_cast<unsigned long long>(last_sfl));
          }
        }
      }
    }
    return net::SimNetwork::TapVerdict::kPass;
  });

  const char* bursts[][2] = {
      {"ls -l\n", "cat notes.txt\n"},
      {"make test\n", "git diff\n"},   // after a long coffee break
      {"logout prep\n", "exit\n"},     // after a meeting
  };
  for (int burst = 0; burst < 3; ++burst) {
    std::printf("\nuser types (burst %d):\n", burst + 1);
    for (const char* cmd : bursts[burst]) {
      session->send(util::to_bytes(cmd));
      network.run();
      clock.advance(util::seconds(2));
    }
    if (burst < 2) {
      std::printf("  ... quiet period (15 min) ...\n");
      clock.advance(util::minutes(15));
    }
  }
  session->close();
  network.run();

  std::printf("\none TCP connection, %d FBS flows (one per activity burst)."
              "\nEach quiet period retired the old key -- recorded traffic "
              "from burst 1\ncannot be replayed into burst 2's flow, and a "
              "key compromised during\nburst 3 exposes nothing typed "
              "earlier.\n",
              flows_seen);
  const auto& stats = client.fbs->endpoint().send_stats();
  std::printf("\nclient: %llu datagrams, %llu flow keys derived\n",
              static_cast<unsigned long long>(stats.datagrams),
              static_cast<unsigned long long>(stats.flow_keys_derived));
  return flows_seen >= 3 ? 0 : 1;
}
