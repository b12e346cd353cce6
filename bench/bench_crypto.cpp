// Reproduces the Section 7.2 CryptoLib performance table ("549kB/s for DES
// in CBC mode and 7060kB/s for MD5 [on a Pentium 133]") with our from-scratch
// primitives, plus the Section 2.2 / 5.3 RNG comparison: the statistically
// random LCG confounder vs the cryptographically secure (and bottlenecking)
// Blum-Blum-Shub generator, and the per-flow vs per-datagram key derivation
// cost.
#include <benchmark/benchmark.h>

#include <chrono>
#include <ctime>
#include <utility>
#include <vector>

#include "bignum/prime.hpp"
#include "crypto/batch.hpp"
#include "crypto/bbs.hpp"
#include "crypto/block_modes.hpp"
#include "crypto/des.hpp"
#include "crypto/des3.hpp"
#include "crypto/des_bitslice.hpp"
#include "crypto/dh.hpp"
#include "crypto/mac.hpp"
#include "crypto/md5.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha1.hpp"
#include "support/fused.hpp"
#include "support/metrics_io.hpp"
#include "util/rng.hpp"

namespace {

using namespace fbs;

util::Bytes buffer_of(std::size_t n) {
  util::SplitMix64 rng(n);
  return rng.next_bytes(n);
}

void BM_Md5(benchmark::State& state) {
  const util::Bytes data = buffer_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::md5(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5)->Arg(64)->Arg(1460)->Arg(8192)->Arg(65536);

void BM_Sha1(benchmark::State& state) {
  const util::Bytes data = buffer_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha1(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(1460)->Arg(65536);

void BM_DesCbcEncrypt(benchmark::State& state) {
  const crypto::Des des(buffer_of(8));
  const util::Bytes data = buffer_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        crypto::encrypt(des, crypto::CipherMode::kCbc, 42, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DesCbcEncrypt)->Arg(64)->Arg(1460)->Arg(8192);

void BM_DesCbcDecrypt(benchmark::State& state) {
  const crypto::Des des(buffer_of(8));
  const util::Bytes ct = crypto::encrypt(
      des, crypto::CipherMode::kCbc, 42,
      buffer_of(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        crypto::decrypt(des, crypto::CipherMode::kCbc, 42, ct));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DesCbcDecrypt)->Arg(1460);

void BM_DesMode(benchmark::State& state) {
  const auto mode = static_cast<crypto::CipherMode>(state.range(0));
  const crypto::Des des(buffer_of(8));
  const util::Bytes data = buffer_of(1460);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::encrypt(des, mode, 42, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1460);
}
BENCHMARK(BM_DesMode)
    ->Arg(static_cast<int>(crypto::CipherMode::kEcb))
    ->Arg(static_cast<int>(crypto::CipherMode::kCbc))
    ->Arg(static_cast<int>(crypto::CipherMode::kCfb))
    ->Arg(static_cast<int>(crypto::CipherMode::kOfb));

void BM_Des3CbcEncrypt(benchmark::State& state) {
  const crypto::Des3 des3(buffer_of(24));
  const util::Bytes data = buffer_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        crypto::encrypt(des3, crypto::CipherMode::kCbc, 42, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Des3CbcEncrypt)->Arg(1460);

/// A burst of `batch` distinct-key datagrams (MTU-sized, pre-padded) for
/// the bitslice planner; reused by the benchmark and the metrics snapshot.
struct BitsliceBurst {
  static constexpr std::size_t kCtBytes = 1464;  // 1460 + PKCS#7, 183 blocks

  /// `batch` jobs of `ct_bytes` each; job i runs under key i % keys
  /// (every job its own key by default).
  explicit BitsliceBurst(std::size_t batch, std::size_t keys = 0,
                         std::size_t ct_bytes = kCtBytes)
      : ct_bytes(ct_bytes) {
    if (keys == 0) keys = batch;
    for (std::size_t i = 0; i < keys; ++i) des.emplace_back(buffer_of(8 + i));
    for (std::size_t i = 0; i < batch; ++i) {
      cts.push_back(buffer_of(ct_bytes));
      plains.emplace_back(ct_bytes);
    }
    for (std::size_t i = 0; i < batch; ++i)
      jobs.push_back(crypto::CbcOpenJob{&des[i % keys], 0x0123456789ABCDEFull,
                                        cts[i], plains[i].data()});
  }

  std::size_t bytes() const { return jobs.size() * ct_bytes; }

  /// The scalar reference: per-job table-driven CBC decrypt, the exact
  /// block recurrence CryptoBatch's own fallback runs.
  void decrypt_scalar() {
    for (const auto& job : jobs) {
      std::uint64_t chain = job.iv;
      for (std::size_t off = 0; off < job.ciphertext.size(); off += 8) {
        const std::uint64_t ct =
            crypto::Des::load_be64(&job.ciphertext[off]);
        crypto::Des::store_be64(job.des->decrypt_block(ct) ^ chain,
                                job.plaintext + off);
        chain = ct;
      }
    }
  }

  std::size_t ct_bytes;
  std::vector<crypto::Des> des;
  std::vector<util::Bytes> cts;
  std::vector<util::Bytes> plains;
  std::vector<crypto::CbcOpenJob> jobs;
};

void BM_DesBitsliceCbcDecryptBatch(benchmark::State& state) {
  // Cross-datagram 256-lane decrypt, mixed keys: the pipeline worker's
  // steady-state burst shape, swept over burst widths.
  BitsliceBurst burst(static_cast<std::size_t>(state.range(0)));
  crypto::CryptoBatch batch;
  for (auto _ : state) {
    batch.open_cbc(burst.jobs);
    benchmark::DoNotOptimize(burst.plains.front().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(burst.bytes()));
}
BENCHMARK(BM_DesBitsliceCbcDecryptBatch)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_DesScalarCbcDecryptBatch(benchmark::State& state) {
  // The same burst on the scalar core: the fig8 "DES+MD5 scalar" leg.
  BitsliceBurst burst(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    burst.decrypt_scalar();
    benchmark::DoNotOptimize(burst.plains.front().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(burst.bytes()));
}
BENCHMARK(BM_DesScalarCbcDecryptBatch)->Arg(64);

void BM_KeyedMd5Mac(benchmark::State& state) {
  crypto::KeyedPrefixMac mac(std::make_unique<crypto::Md5>());
  const util::Bytes key = buffer_of(16);
  const util::Bytes data = buffer_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(mac.compute(key, {data}));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_KeyedMd5Mac)->Arg(64)->Arg(1460);

void BM_HmacMd5(benchmark::State& state) {
  crypto::HmacMac mac(std::make_unique<crypto::Md5>());
  const util::Bytes key = buffer_of(16);
  const util::Bytes data = buffer_of(1460);
  for (auto _ : state) benchmark::DoNotOptimize(mac.compute(key, {data}));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1460);
}
BENCHMARK(BM_HmacMd5);

void BM_TwoPassMacThenEncrypt(benchmark::State& state) {
  // Reference: separate MD5 pass and DES-CBC pass over the payload.
  const crypto::Des des(buffer_of(8));
  crypto::KeyedPrefixMac mac(std::make_unique<crypto::Md5>());
  const util::Bytes key = buffer_of(16), prefix = buffer_of(8);
  const util::Bytes data = buffer_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mac.compute(key, {prefix, data}));
    benchmark::DoNotOptimize(
        crypto::encrypt(des, crypto::CipherMode::kCbc, 42, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TwoPassMacThenEncrypt)->Arg(1460)->Arg(8192);

void BM_FusedMacEncrypt(benchmark::State& state) {
  // Section 5.3's single data-touching pass.
  const crypto::Des des(buffer_of(8));
  const util::Bytes key = buffer_of(16), prefix = buffer_of(8);
  const util::Bytes data = buffer_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        crypto::fused_keyed_md5_des_cbc(des, 42, key, prefix, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FusedMacEncrypt)->Arg(1460)->Arg(8192);

// --- Key management costs (Section 5.3's cost hierarchy) ---

void BM_FlowKeyDerivation(benchmark::State& state) {
  // One MD5 over ~small input: the per-flow cost FBS pays.
  crypto::Md5 h;
  const util::Bytes master = buffer_of(96);
  util::Bytes sfl = buffer_of(8);
  for (auto _ : state) {
    h.reset();
    h.update(sfl);
    h.update(master);
    benchmark::DoNotOptimize(h.finish());
  }
}
BENCHMARK(BM_FlowKeyDerivation);

void BM_DhMasterKey768(benchmark::State& state) {
  // Pair-based master key: one 768-bit modular exponentiation (expensive,
  // hence the MKC).
  util::SplitMix64 rng(7);
  const auto& group = crypto::oakley_group1();
  const auto us = crypto::dh_generate(group, rng);
  const auto them = crypto::dh_generate(group, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        crypto::dh_shared_secret(group, us.private_value, them.public_value));
}
BENCHMARK(BM_DhMasterKey768);

void BM_RsaVerifyCertificate(benchmark::State& state) {
  // PVC hit cost: certificates are re-verified on every use.
  util::SplitMix64 rng(8);
  const auto key = crypto::rsa_generate(512, rng);
  const util::Bytes msg = buffer_of(200);
  const util::Bytes sig = crypto::rsa_sign_md5(key, msg);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::rsa_verify_md5(key.pub, msg, sig));
}
BENCHMARK(BM_RsaVerifyCertificate);

// --- RNG grades (Section 2.2 vs 5.3) ---

void BM_LcgConfounder(benchmark::State& state) {
  util::Lcg48 lcg(123);
  for (auto _ : state) benchmark::DoNotOptimize(lcg.step32());
}
BENCHMARK(BM_LcgConfounder);

void BM_BbsPerDatagramKey(benchmark::State& state) {
  // The quadratic-residue generator producing one 64-bit per-datagram key:
  // 64 modular squarings of a 512-bit state. This is the bottleneck the
  // paper cites for per-datagram keying schemes.
  util::SplitMix64 seeder(9);
  crypto::BlumBlumShub bbs = crypto::BlumBlumShub::generate(512, seeder);
  for (auto _ : state) benchmark::DoNotOptimize(bbs.next_u64());
}
BENCHMARK(BM_BbsPerDatagramKey);

/// Quick self-timed pass for the machine-readable snapshot: bulk rates of
/// the Section 7.2 primitives (the paper's table is in kB/s), independent
/// of google-benchmark's output format.
void emit_metrics() {
  obs::MetricsRegistry reg;
  const util::Bytes data = buffer_of(1460);
  const crypto::Des des(buffer_of(8));
  crypto::KeyedPrefixMac mac(std::make_unique<crypto::Md5>());
  const util::Bytes key = buffer_of(16), prefix = buffer_of(8);

  auto rate_kBps = [&](auto&& op) {
    constexpr int kReps = 2000;  // ~2.9 MB per primitive
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) op();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return kReps * static_cast<double>(data.size()) / 1000.0 /
           elapsed.count();
  };
  reg.gauge("crypto.md5.kBps").set(rate_kBps([&] {
    benchmark::DoNotOptimize(crypto::md5(data));
  }));
  reg.gauge("crypto.des_cbc.kBps").set(rate_kBps([&] {
    benchmark::DoNotOptimize(
        crypto::encrypt(des, crypto::CipherMode::kCbc, 42, data));
  }));
  reg.gauge("crypto.keyed_md5_mac.kBps").set(rate_kBps([&] {
    benchmark::DoNotOptimize(mac.compute(key, {data}));
  }));
  reg.gauge("crypto.fused_md5_des_cbc.kBps").set(rate_kBps([&] {
    benchmark::DoNotOptimize(
        crypto::fused_keyed_md5_des_cbc(des, 42, key, prefix, data));
  }));
  const crypto::Des3 des3(buffer_of(24));
  reg.gauge("crypto.des3_cbc.kBps").set(rate_kBps([&] {
    benchmark::DoNotOptimize(
        crypto::encrypt(des3, crypto::CipherMode::kCbc, 42, data));
  }));

  // Batch vs scalar speedups. The two legs are timed adjacently,
  // interleaved, and the speedup is the ratio of each leg's BEST over the
  // reps: absolute throughput on a shared host swings with frequency
  // scaling and neighbors, but both legs ride the same swings, so the ratio
  // is what tools/check.sh gates on (>= 3x for both). Each leg is timed
  // with wall clock AND thread CPU time, keeping the smallest reading seen
  // by either clock across all reps. Both clocks only ever overestimate the
  // true compute time -- wall clock by slices lost to preemption (which hit
  // the shorter batch leg proportionally harder and skew the ratio low),
  // CPU time by steal cycles a virtualized host charges to the thread -- so
  // the minimum over many short interleaved reps is a stable estimator
  // where any one long timed pair is not.
  constexpr int kPasses = 24;
  auto thread_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
  };
  auto time_leg = [&](auto&& op) {
    const double cpu0 = thread_seconds();
    const auto wall0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kPasses; ++i) op();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall0;
    return std::min(thread_seconds() - cpu0, wall.count());
  };
  // One burst's open: the best of interleaved reps of the scalar loop and
  // of open_cbc, {scalar, wide} seconds per timed leg.
  const auto time_open = [&](BitsliceBurst& burst) {
    crypto::CryptoBatch batch;
    double best_wide = 1e30, best_scalar = 1e30;
    for (int rep = 0; rep < 8; ++rep) {
      best_scalar =
          std::min(best_scalar, time_leg([&] { burst.decrypt_scalar(); }));
      best_wide =
          std::min(best_wide, time_leg([&] { batch.open_cbc(burst.jobs); }));
    }
    return std::pair{best_scalar, best_wide};
  };
  // Bitsliced DES on the worker-burst shape: 64 distinct-key MTU-sized
  // datagrams, ~2.2 MB per timed leg.
  {
    BitsliceBurst burst(64);
    const auto [best_scalar, best_wide] = time_open(burst);
    const double bytes = static_cast<double>(kPasses) *
                         static_cast<double>(burst.bytes());
    reg.gauge("crypto.des_bitslice.kBps").set(bytes / 1000.0 / best_wide);
    reg.gauge("crypto.des_scalar_cbc_decrypt.kBps")
        .set(bytes / 1000.0 / best_scalar);
    reg.gauge("crypto.des_bitslice_speedup").set(best_scalar / best_wide);
  }
  // The small multi-flow receive burst the open planner must not lose on:
  // 16 jobs of 44 blocks (a 345-352 B body) under 8 keys, interleaved, so
  // the lanes come in 16 key runs. open_cbc over the scalar loop; below
  // 1.0 the planner took a wide plan the scalar loop beats.
  {
    BitsliceBurst burst(16, 8, 44 * crypto::Des::kBlockSize);
    const auto [best_scalar, best_wide] = time_open(burst);
    reg.gauge("crypto.des_open_multikey_speedup").set(best_scalar / best_wide);
  }
  // A pipeline worker's burst on the campus trace: 16 jobs of 177 blocks (a
  // 1408 B datagram's body) under 5 interleaved keys. open_cbc over the
  // scalar loop: the job-major plan keys 5 ranges of lanes once and streams
  // one span per job and pass.
  {
    BitsliceBurst burst(16, 5, 177 * crypto::Des::kBlockSize);
    const auto [best_scalar, best_wide] = time_open(burst);
    reg.gauge("crypto.des_open_campus_speedup").set(best_scalar / best_wide);
  }
  // Keyed MD5 on eight MTU-sized messages of distinct flows, one MacBatch
  // (one 8-lane pass per block) against the same eight on the scalar
  // contexts.
  {
    constexpr std::size_t kJobs = 8;
    std::vector<crypto::MacContext> contexts;
    std::vector<util::Bytes> tags(kJobs, util::Bytes(crypto::Md5::kDigestSize));
    for (std::size_t i = 0; i < kJobs; ++i)
      contexts.push_back(mac.make_context(buffer_of(16 + i)));
    std::vector<crypto::MacJob> jobs;
    for (std::size_t i = 0; i < kJobs; ++i)
      jobs.push_back({&contexts[i], prefix, data, tags[i].data()});
    crypto::MacBatch batch;
    const auto scalar = [&] {
      for (const crypto::MacJob& job : jobs) {
        job.mac->begin();
        job.mac->update(job.prefix);
        job.mac->update(job.body);
        job.mac->finish_into(job.tag);
      }
    };
    double best_batch = 1e30, best_scalar = 1e30;
    for (int rep = 0; rep < 8; ++rep) {
      best_scalar = std::min(best_scalar, time_leg(scalar));
      best_batch = std::min(best_batch, time_leg([&] { batch.compute(jobs); }));
    }
    const double bytes =
        static_cast<double>(kPasses * kJobs * data.size());
    reg.gauge("crypto.keyed_md5_batch8.kBps").set(bytes / 1000.0 / best_batch);
    reg.gauge("crypto.keyed_md5_batch_speedup").set(best_scalar / best_batch);
  }
  // The send side's seal burst: four 177-block (1416 B) CBC-encrypt chains
  // under one flow key, the bulk_1408 shape, interleaved by
  // cbc_encrypt_chains against the same four run one after the other on
  // the one-chain loop (encrypt_into's kCbc case).
  {
    const crypto::Des seal_des(buffer_of(8));
    std::vector<util::Bytes> bodies(crypto::kCbcLanes, buffer_of(177 * 8));
    std::vector<crypto::CbcChain<crypto::Des>> chains;
    for (std::size_t i = 0; i < bodies.size(); ++i)
      chains.push_back({&seal_des, 42 + i, bodies[i].data(), 177});
    const auto one_chain = [&] {
      for (const auto& c : chains)
        crypto::cbc_encrypt_blocks(*c.cipher, c.iv, c.data, c.blocks);
    };
    double best_chains = 1e30, best_one = 1e30;
    for (int rep = 0; rep < 8; ++rep) {
      best_one = std::min(best_one, time_leg(one_chain));
      best_chains = std::min(best_chains, time_leg([&] {
        crypto::cbc_encrypt_chains<crypto::Des>(chains);
      }));
    }
    reg.gauge("crypto.des_cbc_seal4_speedup").set(best_one / best_chains);
  }
  // The receive side's scalar open: one 177-block (1416 B) message on
  // cbc_decrypt_blocks, four blocks a step, against the one-block loop.
  {
    const crypto::Des open_des(buffer_of(8));
    const util::Bytes ct = buffer_of(177 * 8);
    util::Bytes pt(ct.size());
    const auto one_block = [&] {
      std::uint64_t chain = 42;
      for (std::size_t off = 0; off < ct.size(); off += 8) {
        const std::uint64_t c = crypto::Des::load_be64(&ct[off]);
        crypto::Des::store_be64(open_des.decrypt_block(c) ^ chain, &pt[off]);
        chain = c;
      }
      benchmark::DoNotOptimize(pt.data());
    };
    const auto interleaved = [&] {
      crypto::cbc_decrypt_blocks(open_des, 42, ct.data(), pt.data(), 177);
      benchmark::DoNotOptimize(pt.data());
    };
    double best_four = 1e30, best_one = 1e30;
    for (int rep = 0; rep < 8; ++rep) {
      best_one = std::min(best_one, time_leg(one_block));
      best_four = std::min(best_four, time_leg(interleaved));
    }
    reg.gauge("crypto.des_cbc_open4_speedup").set(best_one / best_four);
  }
  // Burst-width sweep: how quickly the transpose + key-load overhead
  // amortizes as lanes light up (batch=1 still splits one datagram's 183
  // blocks across lanes -- see DESIGN.md 5h).
  for (const std::size_t width : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}, std::size_t{64}}) {
    BitsliceBurst burst(width);
    crypto::CryptoBatch batch;
    const int passes = static_cast<int>(1536 / width);  // ~constant bytes
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < passes; ++i) batch.open_cbc(burst.jobs);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    reg.gauge("crypto.des_bitslice.batch" + std::to_string(width) + ".kBps")
        .set(static_cast<double>(passes) * static_cast<double>(burst.bytes()) /
             1000.0 / elapsed.count());
  }
  bench::write_metrics(reg.snapshot(), "fbs_bench_crypto");
}

}  // namespace

int main(int argc, char** argv) {
  emit_metrics();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
