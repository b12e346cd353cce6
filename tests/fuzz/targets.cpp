#include "fuzz/targets.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <variant>

#include "cert/certificate.hpp"
#include "cert/directory.hpp"
#include "crypto/algorithms.hpp"
#include "crypto/dh.hpp"
#include "crypto/mac.hpp"
#include "fbs/engine.hpp"
#include "fbs/header.hpp"
#include "fbs/keying.hpp"
#include "fuzz/fuzz.hpp"
#include "net/fragment.hpp"
#include "net/headers.hpp"
#include "net/icmp.hpp"
#include "net/ip.hpp"
#include "net/pcap.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace fbs::fuzz {

void fail(const char* expr, const char* file, int line,
          util::BytesView input) {
  std::fprintf(stderr, "\nFUZZ_CHECK failed: %s\n  at %s:%d\n  input (%zu bytes): %s\n",
               expr, file, line, input.size(), util::to_hex(input).c_str());
  std::abort();
}

namespace {

util::Bytes owned(util::BytesView v) { return util::Bytes(v.begin(), v.end()); }

/// Byte equality that tolerates the one legal degree of freedom in an RFC
/// 1071 checksummed encoding: the 16-bit checksum field itself, whose
/// 0x0000/0xFFFF one's-complement-zero ambiguity means two verifying wires
/// can differ there while agreeing everywhere else. Both sides have already
/// been checksum-verified by the time this runs.
bool equal_mod_csum(util::BytesView a, util::BytesView b,
                    std::size_t csum_off) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i] && (i < csum_off || i >= csum_off + 2)) return false;
  return true;
}

// --- FBS security flow header -------------------------------------------

bool run_fbs_header(util::BytesView wire) {
  const auto view = core::FbsHeaderView::parse(wire);
  if (!view) return false;
  // Canonical round trip: re-encoding the parsed header plus body must
  // reproduce the wire exactly.
  util::Bytes re;
  view->serialize_into(re);
  re.insert(re.end(), view->body.begin(), view->body.end());
  FUZZ_CHECK(re == owned(wire), wire);
  return true;
}

std::vector<util::Bytes> seeds_fbs_header() {
  std::vector<util::Bytes> out;
  const auto add = [&](const core::FbsHeaderView& h, util::BytesView body) {
    util::Bytes wire;
    h.serialize_into(wire);
    wire.insert(wire.end(), body.begin(), body.end());
    out.push_back(std::move(wire));
  };
  core::FbsHeaderView h;
  h.sfl = 0x0102030405060708;
  h.confounder = 0xCAFEF00D;
  h.timestamp_minutes = 1000;
  const util::Bytes mac_md5(crypto::mac_size(h.suite.mac), 0xAB);
  h.mac = mac_md5;
  add(h, {});
  h.secret = true;
  const util::Bytes body = {1, 2, 3, 4, 5, 6, 7, 8};
  add(h, body);
  h.suite = {crypto::MacAlgorithm::kHmacSha1, crypto::CipherAlgorithm::kNone};
  h.secret = false;
  const util::Bytes mac_sha1(crypto::mac_size(h.suite.mac), 0x11);
  h.mac = mac_sha1;
  add(h, {});
  h.suite = {crypto::MacAlgorithm::kNull, crypto::CipherAlgorithm::kNone};
  const util::Bytes mac_null(crypto::mac_size(h.suite.mac), 0);
  h.mac = mac_null;
  add(h, {});
  return out;
}

// --- IPv4 ----------------------------------------------------------------

bool run_ipv4(util::BytesView wire) {
  const auto pkt = net::Ipv4Header::parse(wire);
  if (!pkt) return false;
  const std::size_t hlen = pkt->header.header_size();
  // Captured options always include the padding to the IHL word boundary.
  FUZZ_CHECK(pkt->header.options.size() % 4 == 0, wire);
  FUZZ_CHECK(pkt->header.options.size() <= net::Ipv4Header::kMaxOptionsSize,
             wire);
  // Lengths must agree: total_length == header + payload, within the wire.
  FUZZ_CHECK(hlen + pkt->payload.size() == pkt->header.total_length, wire);
  FUZZ_CHECK(pkt->header.total_length <= wire.size(), wire);

  // Round trip: bytes [0, total_length) must reproduce (trailing link-layer
  // padding beyond total_length is legal and ignored).
  const util::Bytes re = pkt->header.serialize(pkt->payload);
  FUZZ_CHECK(re.size() == pkt->header.total_length, wire);
  FUZZ_CHECK(equal_mod_csum(wire.subspan(0, re.size()), re, 10), wire);
  FUZZ_CHECK(net::Ipv4Header::parse(re).has_value(), wire);
  return true;
}

std::vector<util::Bytes> seeds_ipv4() {
  std::vector<util::Bytes> out;
  net::Ipv4Header h;
  h.source = *net::Ipv4Address::parse("10.0.0.1");
  h.destination = *net::Ipv4Address::parse("10.0.0.2");
  h.protocol = 17;
  h.id = 7;
  const util::Bytes payload{0xDE, 0xAD, 0xBE, 0xEF};
  out.push_back(h.serialize(payload));
  h.options = {0x94, 0x04, 0x00, 0x00};  // router alert, already padded
  out.push_back(h.serialize(payload));
  h.options.clear();
  h.more_fragments = true;
  h.fragment_offset = 0;
  out.push_back(h.serialize(util::Bytes(16, 0x55)));
  return out;
}

// --- UDP / TCP (input carries the pseudo-header addresses) ---------------

util::Bytes with_addr_prefix(util::BytesView wire) {
  util::Bytes out{10, 0, 0, 1, 10, 0, 0, 2};
  out.insert(out.end(), wire.begin(), wire.end());
  return out;
}

bool run_udp(util::BytesView input) {
  FuzzInput in(input);
  const net::Ipv4Address src{in.u32()};
  const net::Ipv4Address dst{in.u32()};
  const util::BytesView wire = in.rest();
  const auto d = net::UdpHeader::parse(src, dst, wire);
  if (!d) return false;
  const std::size_t length = static_cast<std::size_t>(wire[4]) << 8 | wire[5];
  const bool has_csum = wire[6] != 0 || wire[7] != 0;
  FUZZ_CHECK(d->payload.size() == length - net::UdpHeader::kSize, input);
  // Canonical case: the length field spans the whole buffer and the
  // checksum is present; then serialize() must reproduce the wire.
  if (length == wire.size() && has_csum) {
    const util::Bytes re = d->header.serialize(src, dst, d->payload);
    FUZZ_CHECK(equal_mod_csum(wire, re, 6), input);
  }
  return true;
}

std::vector<util::Bytes> seeds_udp() {
  const net::Ipv4Address src{0x0A000001};
  const net::Ipv4Address dst{0x0A000002};
  net::UdpHeader h;
  h.source_port = 5001;
  h.destination_port = 53;
  std::vector<util::Bytes> out;
  out.push_back(with_addr_prefix(h.serialize(src, dst, util::Bytes{})));
  out.push_back(
      with_addr_prefix(h.serialize(src, dst, util::Bytes{1, 2, 3, 4, 5})));
  return out;
}

bool run_tcp(util::BytesView input) {
  FuzzInput in(input);
  const net::Ipv4Address src{in.u32()};
  const net::Ipv4Address dst{in.u32()};
  const util::BytesView wire = in.rest();
  const auto seg = net::TcpHeader::parse(src, dst, wire);
  if (!seg) return false;
  // The decoder is fully canonical (no options, no unrepresentable flags,
  // zero urgent pointer), so every accepted wire must round-trip exactly.
  FUZZ_CHECK(seg->payload.size() == wire.size() - net::TcpHeader::kSize,
             input);
  const util::Bytes re = seg->header.serialize(src, dst, seg->payload);
  FUZZ_CHECK(equal_mod_csum(wire, re, 16), input);
  return true;
}

std::vector<util::Bytes> seeds_tcp() {
  const net::Ipv4Address src{0x0A000001};
  const net::Ipv4Address dst{0x0A000002};
  net::TcpHeader h;
  h.source_port = 4000;
  h.destination_port = 5001;
  h.seq = 1000;
  h.syn = true;
  std::vector<util::Bytes> out;
  out.push_back(with_addr_prefix(h.serialize(src, dst, util::Bytes{})));
  h.syn = false;
  h.ack_flag = true;
  h.ack = 1001;
  out.push_back(
      with_addr_prefix(h.serialize(src, dst, util::Bytes(32, 0x61))));
  return out;
}

// --- ICMP ----------------------------------------------------------------

bool run_icmp(util::BytesView wire) {
  const auto m = net::IcmpMessage::parse(wire);
  if (!m) return false;
  if (m->type == net::IcmpMessage::kEchoRequest ||
      m->type == net::IcmpMessage::kEchoReply)
    FUZZ_CHECK(m->code == 0, wire);
  const util::Bytes re = m->serialize();
  FUZZ_CHECK(equal_mod_csum(wire, re, 2), wire);
  return true;
}

std::vector<util::Bytes> seeds_icmp() {
  net::IcmpMessage m;
  m.type = net::IcmpMessage::kEchoRequest;
  m.identifier = 0x4642;
  m.sequence = 1;
  m.payload = {1, 2, 3};  // odd length exercises checksum tail handling
  std::vector<util::Bytes> out;
  out.push_back(m.serialize());
  m.type = net::IcmpMessage::kEchoReply;
  m.payload.clear();
  out.push_back(m.serialize());
  return out;
}

// --- Fragment reassembly (structured: input decodes to a fragment list) --

bool run_fragment(util::BytesView input) {
  FuzzInput in(input);
  util::VirtualClock clock(0);
  net::Reassembler reasm(clock);
  bool completed_any = false;
  const std::size_t count = in.u8() % 16;
  for (std::size_t i = 0; i < count; ++i) {
    net::Ipv4Header h;
    h.source = net::Ipv4Address{0x0A000001};
    h.destination = net::Ipv4Address{0x0A000002};
    h.protocol = 17;
    h.id = in.u8() % 4;  // few ids, so fragment sets actually meet
    h.fragment_offset = in.u16() & 0x1FFF;
    const std::uint8_t flags = in.u8();
    h.more_fragments = flags & 1;
    std::size_t len = in.u8();
    if (flags & 2) len = len / 8 * 8;  // bias toward completable sets
    util::Bytes payload(len, static_cast<std::uint8_t>(i));
    h.total_length =
        static_cast<std::uint16_t>(h.header_size() + payload.size());
    const auto done = reasm.push(h, std::move(payload));
    if (!done) continue;
    completed_any = true;
    // A completed datagram must be a self-consistent, serializable packet:
    // no fragment bits left, lengths agreeing, within the 16-bit ceiling.
    FUZZ_CHECK(!done->header.more_fragments, input);
    FUZZ_CHECK(done->header.fragment_offset == 0, input);
    FUZZ_CHECK(done->payload.size() <= net::Reassembler::kMaxReassembledPayload,
               input);
    FUZZ_CHECK(done->header.total_length ==
                   done->header.header_size() + done->payload.size(),
               input);
    FUZZ_CHECK(
        net::Ipv4Header::parse(done->header.serialize(done->payload))
            .has_value(),
        input);
  }
  FUZZ_CHECK(reasm.pending() <= 4, input);  // one partial per id at most
  return completed_any;
}

std::vector<util::Bytes> seeds_fragment() {
  // Record format: count, then per fragment {id, offset_hi, offset_lo,
  // flags (bit0 = more_fragments, bit1 = align length), length, }.
  return {
      // Two-piece datagram: [0,8) mf, then final [8,12).
      {2, 0, 0x00, 0x00, 0x03, 8, 0, 0x00, 0x01, 0x00, 4},
      // Unfragmented pass-through.
      {1, 1, 0x00, 0x00, 0x00, 32},
      // A lone tail fragment (never completes).
      {1, 2, 0x00, 0x04, 0x00, 16},
  };
}

// --- pcap capture files ---------------------------------------------------

bool run_pcap(util::BytesView wire) {
  const auto cap = net::PcapReader::parse(wire);
  if (!cap) return false;
  // Bounded-parse contract: claimed lengths never buy allocation or reads
  // beyond the bytes actually present.
  FUZZ_CHECK(cap->snaplen > 0, wire);
  for (const auto& r : cap->records) {
    FUZZ_CHECK(r.frame.size() <= cap->snaplen, wire);
    FUZZ_CHECK(r.frame.size() <= r.orig_len, wire);
    FUZZ_CHECK(r.frame.size() <= wire.size(), wire);
  }

  // Round trip through the writer: replaying every recorded frame must
  // yield a capture the reader accepts with byte-identical bodies -- these
  // are exactly the framing assumptions tools/fbs_dissect.py makes.
  // (Timestamps are the writer's clock, not the original's, so they are not
  // compared; frames above the writer's snap length truncate like a kernel
  // capture.)
  util::VirtualClock clock(util::minutes(1));
  util::Bytes re;
  net::PcapWriter writer(&re, clock);
  for (const auto& r : cap->records) writer.record(r.frame);
  const auto back = net::PcapReader::parse(re);
  FUZZ_CHECK(back.has_value(), wire);
  FUZZ_CHECK(!back->swapped, wire);
  FUZZ_CHECK(back->linktype == net::kPcapLinktypeRaw, wire);
  FUZZ_CHECK(back->records.size() == cap->records.size(), wire);
  for (std::size_t i = 0; i < back->records.size(); ++i) {
    const util::Bytes& orig = cap->records[i].frame;
    const net::PcapReader::Record& rt = back->records[i];
    const std::size_t kept =
        std::min<std::size_t>(orig.size(), net::kPcapSnapLen);
    FUZZ_CHECK(rt.orig_len == orig.size(), wire);
    FUZZ_CHECK(rt.frame.size() == kept, wire);
    FUZZ_CHECK(std::equal(rt.frame.begin(), rt.frame.end(), orig.begin()),
               wire);
  }
  return true;
}

std::vector<util::Bytes> seeds_pcap() {
  util::VirtualClock clock(util::minutes(1));
  std::vector<util::Bytes> out;

  // Header-only capture (legal: zero records).
  out.emplace_back();
  { net::PcapWriter w(&out.back(), clock); }

  // Two records, IPv4-shaped bodies of different sizes.
  out.emplace_back();
  {
    net::PcapWriter w(&out.back(), clock);
    util::Bytes frame(20, 0);
    frame[0] = 0x45;
    frame[3] = 20;
    w.record(frame);
    frame.resize(48, 0xEE);
    frame[3] = 48;
    w.record(frame);
  }

  // The same capture with every header field byte-swapped: the
  // other-endianness path, which random mutation almost never reaches from
  // a native-order seed (the magic must flip wholesale).
  {
    util::Bytes swapped = out.back();
    const auto swap32 = [&](std::size_t at) {
      std::swap(swapped[at], swapped[at + 3]);
      std::swap(swapped[at + 1], swapped[at + 2]);
    };
    const auto swap16 = [&](std::size_t at) {
      std::swap(swapped[at], swapped[at + 1]);
    };
    swap32(0);             // magic
    swap16(4);             // version major
    swap16(6);             // version minor
    swap32(8);             // thiszone
    swap32(12);            // sigfigs
    swap32(16);            // snaplen
    swap32(20);            // linktype
    std::size_t at = 24;   // record headers: 4 x u32 each
    while (at + 16 <= swapped.size()) {
      const std::uint32_t incl = static_cast<std::uint32_t>(swapped[at + 8]) |
                                 (static_cast<std::uint32_t>(swapped[at + 9])
                                  << 8) |
                                 (static_cast<std::uint32_t>(swapped[at + 10])
                                  << 16) |
                                 (static_cast<std::uint32_t>(swapped[at + 11])
                                  << 24);
      swap32(at);
      swap32(at + 4);
      swap32(at + 8);
      swap32(at + 12);
      at += 16 + incl;
    }
    out.push_back(std::move(swapped));
  }
  return out;
}

// --- Certificate / directory (keying-plane bypass messages) --------------

bool run_certificate(util::BytesView wire) {
  cert::WireDecodeError err{};
  const auto c = cert::PublicValueCertificate::parse(wire, &err);
  if (!c) return false;
  // Canonical: re-encoding must be byte-identical, or the signature over
  // tbs_bytes() would not survive a store-and-forward hop.
  FUZZ_CHECK(c->serialize() == owned(wire), wire);
  return true;
}

cert::PublicValueCertificate sample_certificate() {
  cert::PublicValueCertificate c;
  c.subject = {10, 0, 0, 1};
  c.group_name = "test-group";
  c.public_value = util::Bytes(16, 0x42);
  c.not_before = util::minutes(990);
  c.not_after = util::minutes(101000);
  c.serial = 3;
  c.signature = util::Bytes(64, 0x5A);  // decode does not verify signatures
  return c;
}

std::vector<util::Bytes> seeds_certificate() {
  std::vector<util::Bytes> out;
  out.push_back(sample_certificate().serialize());
  cert::PublicValueCertificate empty;
  out.push_back(empty.serialize());
  return out;
}

bool run_keying(util::BytesView wire) {
  bool accepted = false;
  if (const auto req = cert::DirectoryRequest::parse(wire)) {
    FUZZ_CHECK(req->serialize() == owned(wire), wire);
    accepted = true;
  }
  if (const auto resp = cert::DirectoryResponse::parse(wire)) {
    // The kind byte disambiguates: both parsers accepting one wire would
    // make the bypass protocol ambiguous.
    FUZZ_CHECK(!accepted, wire);
    FUZZ_CHECK(resp->serialize() == owned(wire), wire);
    FUZZ_CHECK((resp->status == cert::FetchStatus::kOk) ==
                   resp->cert.has_value(),
               wire);
    accepted = true;
  }
  // Exercise the service entry points on the same bytes: they must digest
  // anything, and an answer they produce must round-trip.
  static cert::DirectoryService service;
  (void)service.publish_wire(wire);
  if (const auto answer = service.serve_wire(wire)) {
    const util::Bytes re = answer->serialize();
    const auto back = cert::DirectoryResponse::parse(re);
    FUZZ_CHECK(back.has_value(), wire);
    FUZZ_CHECK(back->serialize() == re, wire);
  }
  return accepted;
}

std::vector<util::Bytes> seeds_keying() {
  std::vector<util::Bytes> out;
  cert::DirectoryRequest req;
  req.subject = {10, 0, 0, 1};
  out.push_back(req.serialize());
  cert::DirectoryResponse ok;
  ok.status = cert::FetchStatus::kOk;
  ok.cert = sample_certificate();
  out.push_back(ok.serialize());
  cert::DirectoryResponse miss;
  miss.status = cert::FetchStatus::kNotFound;
  out.push_back(miss.serialize());
  return out;
}

// --- Engine receive path -------------------------------------------------

/// A minimal two-principal world (CA, directory, MKDs, key managers) built
/// once per process; the engine target replays mutated genuine wires into
/// it. Deliberately mirrors tests/support/world.hpp without depending on
/// test-only headers. The endpoints -- the only state whose history changes
/// a verdict (confounders, sfls, freshness) -- are rebuilt from a fixed seed
/// at the start of every driver run (reset_engine).
struct EngineWorld {
  util::SplitMix64 rng{1997};
  util::VirtualClock clock{util::minutes(1000)};
  cert::CertificateAuthority ca;
  cert::DirectoryService directory;
  core::Principal alice, bob;
  std::unique_ptr<core::MasterKeyDaemon> alice_mkd, bob_mkd;
  std::unique_ptr<core::KeyManager> alice_keys, bob_keys;
  std::unique_ptr<core::FbsEndpoint> sender, receiver;
  core::WorkContext send_ctx;     // the sender's engine scratch
  core::WorkContext receive_ctx;  // the receiver's engine scratch

  EngineWorld() : ca(512, rng) {
    const crypto::DhGroup& group = crypto::test_group();
    const auto setup = [&](const char* ip, core::Principal& p,
                           std::unique_ptr<core::MasterKeyDaemon>& mkd,
                           std::unique_ptr<core::KeyManager>& keys) {
      p = core::Principal::from_ipv4(*net::Ipv4Address::parse(ip));
      const crypto::DhKeyPair dh = crypto::dh_generate(group, rng);
      directory.publish(ca.issue(
          p.address, group.name,
          dh.public_value.to_bytes_be(group.element_size()),
          clock.now() - util::minutes(10),
          clock.now() + util::minutes(100000)));
      mkd = std::make_unique<core::MasterKeyDaemon>(
          p, dh.private_value, group, ca, directory, clock, 16);
      keys = std::make_unique<core::KeyManager>(*mkd, 16);
    };
    setup("10.0.0.1", alice, alice_mkd, alice_keys);
    setup("10.0.0.2", bob, bob_mkd, bob_keys);
    reset_endpoints();
  }

  void reset_endpoints() {
    util::SplitMix64 endpoint_rng{2024};
    sender = std::make_unique<core::FbsEndpoint>(
        alice, core::FbsConfig{}, *alice_keys, clock, endpoint_rng);
    receiver = std::make_unique<core::FbsEndpoint>(
        bob, core::FbsConfig{}, *bob_keys, clock, endpoint_rng);
  }
};

EngineWorld& engine_world() {
  static EngineWorld world;
  return world;
}

void reset_engine() { engine_world().reset_endpoints(); }

bool run_engine(util::BytesView input) {
  EngineWorld& w = engine_world();
  FuzzInput in(input);
  const std::uint8_t mode = in.u8();
  util::Bytes body_buf;

  if ((mode & 1) == 0) {
    // Raw mode: arbitrary bytes straight into unprotect_into. Must never
    // crash; authenticating is a MAC forgery and essentially impossible.
    const auto outcome =
        w.receiver->unprotect_into(w.receive_ctx, w.alice, in.rest(),
                                   body_buf);
    return std::holds_alternative<core::ReceivedInfo>(outcome);
  }

  // Edit mode: protect a genuine datagram, splice attacker edits into the
  // wire, and check the all-or-nothing property.
  const bool secret = in.u8() & 1;
  const std::size_t body_len = in.u8() % 65;
  core::Datagram d;
  d.source = w.alice;
  d.destination = w.bob;
  d.attrs.protocol = 17;
  d.attrs.source_port = 7;
  d.attrs.destination_port = 9;
  const util::BytesView body = in.take(body_len);
  d.body.assign(body.begin(), body.end());
  util::Bytes wire;
  FUZZ_CHECK(w.sender->protect_into(w.send_ctx, d, secret, wire), input);

  util::Bytes mutated = wire;
  const std::size_t n_edits = in.u8() % 9;
  for (std::size_t i = 0; i < n_edits && !mutated.empty(); ++i) {
    const std::size_t pos = in.u16() % mutated.size();
    const std::uint8_t op = in.u8();
    const std::uint8_t val = in.u8();
    switch (op % 3) {
      case 0: mutated[pos] = val; break;
      case 1: mutated[pos] ^= val; break;
      default: {
        // Zero-fill run: the shape that would discover a constant-tag
        // (NOP-suite) forgery hole, among others.
        const std::size_t run =
            std::min<std::size_t>(val % 17, mutated.size() - pos);
        std::fill_n(mutated.begin() + static_cast<std::ptrdiff_t>(pos), run,
                    0);
        break;
      }
    }
  }

  const auto outcome =
      w.receiver->unprotect_into(w.receive_ctx, w.alice, mutated, body_buf);
  if (std::holds_alternative<core::ReceivedInfo>(outcome)) {
    // Accept implies untampered: every header field is MAC-covered or
    // validated, so only the byte-exact sender output may authenticate --
    // and then the recovered body must be the original plaintext.
    FUZZ_CHECK(mutated == wire, input);
    FUZZ_CHECK(body_buf == d.body, input);
    return true;
  }
  // Reject implies tampered: the unmutated wire must never be refused.
  FUZZ_CHECK(mutated != wire, input);
  return false;
}

std::vector<util::Bytes> seeds_engine() {
  return {
      // Edit mode, 4-byte body, no edits: the genuine-wire-accepted probe.
      {0x01, 0x00, 0x04, 'A', 'A', 'A', 'A', 0x00},
      // Edit mode, secret body, one zero-fill edit over the MAC region.
      {0x01, 0x01, 0x08, 1, 2, 3, 4, 5, 6, 7, 8, 0x01, 0x00, 0x12, 0x02,
       0x10},
      // Raw mode garbage.
      {0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22},
  };
}

// --- MacBatch lane bookkeeping ---------------------------------------------

/// One MacBatch decoded from the input: a job count, then per job a context
/// selector, a prefix taken from the input, and a body window (16-bit
/// offset and length) into the input itself. Lanes so see every alignment,
/// overlapping bodies, ragged lengths and every algorithm mixed. The oracle
/// is the scalar MacContext on a fresh copy of each job's context.
bool run_mac_batch(util::BytesView input) {
  static const std::vector<crypto::MacContext> kContexts = [] {
    std::vector<crypto::MacContext> out;
    for (const auto alg :
         {crypto::MacAlgorithm::kKeyedMd5, crypto::MacAlgorithm::kHmacMd5,
          crypto::MacAlgorithm::kKeyedSha1, crypto::MacAlgorithm::kHmacSha1,
          crypto::MacAlgorithm::kNull}) {
      for (const std::size_t key_len : {16u, 100u})
        out.push_back(crypto::make_mac(alg)->make_context(
            util::Bytes(key_len, static_cast<std::uint8_t>(key_len))));
    }
    return out;
  }();
  FuzzInput in(input);
  const std::size_t njobs = in.u8() % 65;
  std::vector<crypto::MacContext> contexts = kContexts;
  std::vector<std::size_t> which(njobs);
  std::vector<crypto::MacJob> jobs(njobs);
  std::vector<util::Bytes> tags(njobs);
  for (std::size_t i = 0; i < njobs; ++i) {
    which[i] = in.u8() % contexts.size();
    const util::BytesView prefix = in.take(in.u8() % 80);
    const std::size_t off = in.u16() % (input.size() + 1);
    const std::size_t len =
        std::min<std::size_t>(in.u16(), input.size() - off);
    tags[i].assign(contexts[which[i]].mac_size(), 0);
    jobs[i] = crypto::MacJob{&contexts[which[i]], prefix,
                             input.subspan(off, len), tags[i].data()};
  }
  crypto::MacBatch batch;
  batch.compute(jobs);
  for (std::size_t i = 0; i < njobs; ++i) {
    crypto::MacContext scalar = kContexts[which[i]];
    scalar.begin();
    scalar.update(jobs[i].prefix);
    scalar.update(jobs[i].body);
    FUZZ_CHECK(scalar.finish() == tags[i], input);
  }
  return batch.stats().lane_jobs > 0;
}

std::vector<util::Bytes> seeds_mac_batch() {
  // n jobs cycling through the contexts, no prefix, bodies of `len` bytes
  // at offsets 0, 1, 2, ... of a 2 KB tail of 'a's.
  const auto batch = [](std::uint8_t n, std::uint16_t len) {
    util::Bytes in{n};
    for (std::uint8_t i = 0; i < n; ++i) {
      const std::uint8_t job[] = {i, 0, 0, i,
                                  static_cast<std::uint8_t>(len >> 8),
                                  static_cast<std::uint8_t>(len)};
      in.insert(in.end(), job, job + sizeof job);
    }
    in.resize(in.size() + 2048, 'a');
    return in;
  };
  return {batch(1, 100), batch(4, 55), batch(8, 64), batch(16, 1408),
          batch(40, 300)};
}

}  // namespace

const std::vector<FuzzTarget>& all_targets() {
  static const std::vector<FuzzTarget> targets = {
      {"fbs_header", run_fbs_header, seeds_fbs_header},
      {"ipv4", run_ipv4, seeds_ipv4},
      {"udp", run_udp, seeds_udp},
      {"tcp", run_tcp, seeds_tcp},
      {"icmp", run_icmp, seeds_icmp},
      {"fragment", run_fragment, seeds_fragment},
      {"certificate", run_certificate, seeds_certificate},
      {"keying", run_keying, seeds_keying},
      {"engine", run_engine, seeds_engine, reset_engine},
      {"pcap", run_pcap, seeds_pcap},
      {"mac_batch", run_mac_batch, seeds_mac_batch},
  };
  return targets;
}

const FuzzTarget* find_target(std::string_view name) {
  for (const FuzzTarget& t : all_targets())
    if (t.name == name) return &t;
  return nullptr;
}

}  // namespace fbs::fuzz
