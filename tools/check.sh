#!/usr/bin/env sh
# One-stop verification: build + tier-1 tests + chaos soaks + metrics suite.
#
#   tools/check.sh             # RelWithDebInfo build, all suites
#   tools/check.sh --sanitize  # same suites under ASan+UBSan (FBS_SANITIZE=ON)
#   tools/check.sh --bench-smoke  # Release build, run the crypto + fig8 +
#                                 # parallel + keying-ablation benches'
#                                 # self-timed passes and diff their gauges
#                                 # against the BENCH_seed.json baseline;
#                                 # every step runs, then the failed ones
#                                 # (regressions, gates) are named and the
#                                 # exit status is non-zero
#   tools/check.sh --fuzz-smoke   # ASan+UBSan build, replay the regression
#                                 # corpus and run every deterministic fuzz
#                                 # driver with a raised iteration budget
#   tools/check.sh --tsan-smoke   # ThreadSanitizer build, run the
#                                 # multi-threaded stress suite (ctest -L
#                                 # tsan) against the sharded engine and
#                                 # the receive pipeline
#   tools/check.sh --mesh-smoke   # ASan+UBSan build, run the transit-mesh
#                                 # suites (ctest -L mesh): router/queue
#                                 # unit tests plus the routed-topology
#                                 # survival scenarios (congestion, rekey
#                                 # failover, rebinding, 30-node soaks);
#                                 # the mesh itself is test code
#                                 # (tests/support/transit_mesh.*)
#   tools/check.sh --udp-smoke   # build the real-socket backend, run the
#                                 # cross-process loopback interop (ctest -L
#                                 # udp: two OS processes, FBS handshake +
#                                 # protected datagrams + replay injection
#                                 # over 127.0.0.1, pcaps decoded by
#                                 # tools/fbs_dissect.py), then the
#                                 # fig8_udp_loopback bench (gauges to
#                                 # metrics JSON; not baseline-gated)
#   tools/check.sh --megaflow-smoke  # ASan+UBSan build, run the million-flow
#                                 # control-plane suites (ctest -L megaflow:
#                                 # flat map, timer wheel, megaflow policy,
#                                 # internet trace), then the megaflow bench
#                                 # at 64k flows with its steady-state /
#                                 # expiry / memory-ceiling gates asserted
#   tools/check.sh --src-delta [REF]  # no build: the line delta of src/
#                                 # against REF (default HEAD). Prints wc -l
#                                 # over src/**/*.{hpp,cpp} at REF and in
#                                 # the work tree, the whole-file renames
#                                 # out of src/ (moves, listed apart from
#                                 # deletions), and the lines added and
#                                 # deleted inside src/ (git diff -M
#                                 # --numstat). The parts add up: REF -
#                                 # moved + added - deleted = work tree
#   FBS_CHECK_JOBS=8 tools/check.sh   # override parallelism (default: nproc)
#
# Exit status is non-zero as soon as any step fails (--bench-smoke runs all
# of its benches and the compare step first).
set -eu

cd "$(dirname "$0")/.."

BUILD_DIR=build
CONFIG_ARGS="-DCMAKE_BUILD_TYPE=RelWithDebInfo"
if [ "${1:-}" = "--sanitize" ]; then
  BUILD_DIR=build-sanitize
  CONFIG_ARGS="$CONFIG_ARGS -DFBS_SANITIZE=ON"
fi

JOBS="${FBS_CHECK_JOBS:-$(nproc 2>/dev/null || echo 2)}"

if [ "${1:-}" = "--bench-smoke" ]; then
  # Benches must be measured at full optimization; this matches the
  # "release" CMake preset. The google-benchmark loops are skipped (filter
  # matches nothing) -- the machine-readable gauges come from each bench's
  # self-timed emit_metrics pass, which is the part the baseline pins.
  BUILD_DIR=build-release
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  echo "== build benches =="
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target fbs_bench_crypto fbs_bench_fig8_throughput \
             fbs_bench_parallel_throughput fbs_bench_ablation_keying
  OUT_DIR="$BUILD_DIR/bench-smoke"
  mkdir -p "$OUT_DIR"
  rm -f "$OUT_DIR"/*.json
  # Every bench and the compare step run even when an earlier step fails
  # (bench_parallel_throughput exits 1 when its own acceptance misses), so
  # each run reports every --require gate; the failed steps are named at
  # the end and make the exit status 1.
  FAILED=""
  step() {
    name="$1"
    shift
    echo "== $name =="
    if ! "$@"; then
      echo "== $name FAILED =="
      FAILED="$FAILED $name"
    fi
  }
  run_bench() {
    bench="fbs_$1"
    shift
    FBS_METRICS_OUT="$OUT_DIR/$bench.json" "$BUILD_DIR/bench/$bench" "$@"
  }
  step bench_crypto run_bench bench_crypto --benchmark_filter='$^'
  step bench_fig8_throughput run_bench bench_fig8_throughput \
    --benchmark_filter='$^'
  step bench_parallel_throughput run_bench bench_parallel_throughput
  step bench_ablation_keying run_bench bench_ablation_keying \
    --benchmark_filter='$^'
  # A bench that died without writing its snapshot is left out; its gauges
  # then read as missing, and its gates fail, in the compare step.
  step "combine snapshots" python3 - "$OUT_DIR" <<'EOF'
import json, sys, os
out_dir = sys.argv[1]
combined = {}
for name in ("fbs_bench_crypto", "fbs_bench_fig8_throughput",
             "fbs_bench_parallel_throughput", "fbs_bench_ablation_keying"):
    path = os.path.join(out_dir, name + ".json")
    if not os.path.exists(path):
        print(f"no snapshot from {name}")
        continue
    with open(path) as f:
        combined[name] = json.load(f)
with open(os.path.join(out_dir, "current.json"), "w") as f:
    json.dump(combined, f, indent=1)
EOF
  # Besides the relative diff, assert the absolute acceptance gates: crit
  # speedup @4 workers and the hardware-aware wall gate (wall speedup @8
  # normalized by what this host's core count makes achievable; see
  # bench_parallel_throughput.cpp), plus the bitsliced DES gate -- the
  # 64-datagram mixed-key CBC decrypt burst must hold >= 3x the scalar
  # core's throughput, and the 8-lane keyed-MD5 MacBatch >= 3x the scalar
  # MAC on eight MTU-sized messages, both measured adjacently in-process by
  # bench_crypto (min over interleaved wall/CPU-clock reps; see
  # emit_metrics there). The open planner must never plan a small
  # multi-key burst (16 jobs x 44 blocks under 8 keys) slower than the
  # scalar loop: the lane-keying trap gate. The send side's four
  # interleaved DES-CBC chains must hold >= 1.3x the one-chain loop
  # (4 x 177 blocks under one key, the seal queue's bulk burst), and the
  # receive side's interleaved scalar open >= 1.3x the one-block loop (one
  # 177-block message).
  step "compare against BENCH_seed.json" \
    python3 tools/bench_compare.py BENCH_seed.json "$OUT_DIR/current.json" \
    --all \
    --require "fbs_bench_parallel_throughput:parallel.speedup4=3.0" \
    --require "fbs_bench_parallel_throughput:parallel.wall_gate=1.0" \
    --require "fbs_bench_crypto:crypto.des_bitslice_speedup=3.0" \
    --require "fbs_bench_crypto:crypto.keyed_md5_batch_speedup=3.0" \
    --require "fbs_bench_crypto:crypto.des_open_multikey_speedup=1.0" \
    --require "fbs_bench_crypto:crypto.des_cbc_seal4_speedup=1.3" \
    --require "fbs_bench_crypto:crypto.des_cbc_open4_speedup=1.3"
  if [ -n "$FAILED" ]; then
    echo "Bench smoke failed:$FAILED"
    exit 1
  fi
  echo "Bench smoke passed."
  exit 0
fi

if [ "${1:-}" = "--src-delta" ]; then
  REF="${2:-HEAD}"
  git rev-parse --verify --quiet "$REF^{commit}" >/dev/null || {
    echo "--src-delta: unknown ref $REF" >&2
    exit 2
  }
  python3 - "$REF" <<'EOF'
import subprocess, sys

ref = sys.argv[1]

def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout

def counted(path):
    return path.startswith("src/") and path.endswith((".hpp", ".cpp"))

def wc_l(text):
    return text.count("\n")

def at_ref(path):
    return wc_l(git("show", f"{ref}:{path}"))

def in_tree(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return wc_l(f.read())

ref_total = sum(at_ref(p) for p in
                git("ls-tree", "-r", "--name-only", ref, "--", "src").split()
                if counted(p))
untracked = [p for p in git("ls-files", "--others", "--exclude-standard",
                            "--", "src").split() if counted(p)]
gone = set(git("ls-files", "--deleted", "--", "src").split())
tree_total = sum(in_tree(p) for p in
                 git("ls-files", "--", "src").split() + untracked
                 if counted(p) and p not in gone)

# With -z, numstat prints "added\tdeleted\tpath\0", or for a rename
# "added\tdeleted\t\0old\0new\0".
fields = git("diff", "-M", "--numstat", "-z", ref).split("\0")
moved, added, deleted = [], 0, 0
i = 0
while i < len(fields) - 1:
    a, d, path = fields[i].split("\t")
    old = new = path
    i += 1
    if not path:
        old, new = fields[i], fields[i + 1]
        i += 2
    if counted(old) and not new.startswith("src/"):
        moved.append((old, new, at_ref(old)))
        continue
    if a != "-":  # not binary
        added += int(a) if counted(new) else 0
        deleted += int(d) if counted(old) else 0
added += sum(in_tree(p) for p in untracked)

moved_total = sum(n for _, _, n in moved)
print(f"src/**/*.{{hpp,cpp}} at {ref}: {ref_total} lines")
print(f"src/**/*.{{hpp,cpp}} in the work tree: {tree_total} lines "
      f"({tree_total - ref_total:+d})")
print(f"moved out of src/ (whole-file renames): {moved_total} lines")
for old, new, n in moved:
    print(f"  {old} -> {new} ({n} lines at {ref})")
print(f"edited inside src/ (git diff -M --numstat): +{added} -{deleted} "
      f"({added - deleted:+d})")
if ref_total - moved_total + added - deleted != tree_total:
    print("warning: the parts do not add up to the work tree count")
EOF
  exit 0
fi

if [ "${1:-}" = "--tsan-smoke" ]; then
  # Data-race detection for the shard-per-core datagram path, including the
  # batched ring transfers (push_wait_batch/pop_batch producers), the
  # grouped DatagramPipeline::submit ingress and the stop-vs-submit
  # shutdown races.
  # FBS_TSAN is mutually exclusive with FBS_SANITIZE, so this runs in its
  # own tree.
  BUILD_DIR=build-tsan
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFBS_TSAN=ON
  echo "== build concurrency stress =="
  cmake --build "$BUILD_DIR" -j "$JOBS" --target test_concurrency
  echo "== tsan stress suite =="
  ctest --test-dir "$BUILD_DIR" -L tsan -j "$JOBS" --output-on-failure
  echo "TSan smoke passed."
  exit 0
fi

if [ "${1:-}" = "--mesh-smoke" ]; then
  # Transit-mesh robustness gate (see DESIGN.md section 5g): the queue
  # discipline + router unit tests plus the routed-topology survival
  # scenarios, under ASan+UBSan so queue-wipe and crash-restart paths get
  # lifetime checking too.
  BUILD_DIR=build-sanitize
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFBS_SANITIZE=ON
  echo "== build mesh suites =="
  cmake --build "$BUILD_DIR" -j "$JOBS" --target test_net test_mesh_scenarios
  echo "== mesh suites (ctest -L mesh) =="
  ctest --test-dir "$BUILD_DIR" -L mesh -j "$JOBS" --output-on-failure
  echo "Mesh smoke passed."
  exit 0
fi

if [ "${1:-}" = "--megaflow-smoke" ]; then
  # Million-flow control plane gate (DESIGN.md 5i): the budgeted flat-hash +
  # timer-wheel suites under ASan+UBSan, then the megaflow bench scaled down
  # to 64k flows -- still enough to exercise budget eviction, the flash
  # crowd and the DDoS window -- with its hard gates (zero steady-state heap
  # growth, O(expired) sweeps, per-shard memory ceiling) asserted in-process.
  BUILD_DIR=build-sanitize
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFBS_SANITIZE=ON
  echo "== build megaflow suites + bench =="
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target test_megaflow_structures test_megaflow_policy \
             test_internet_trace fbs_bench_megaflow
  echo "== megaflow suites (ctest -L megaflow) =="
  ctest --test-dir "$BUILD_DIR" -L megaflow -j "$JOBS" --output-on-failure
  echo "== megaflow bench @ 64k flows (gates asserted) =="
  FBS_MEGAFLOW_FLOWS=65536 FBS_MEGAFLOW_ASSERT=1 \
    "$BUILD_DIR/bench/fbs_bench_megaflow"
  echo "Megaflow smoke passed."
  exit 0
fi

if [ "${1:-}" = "--udp-smoke" ]; then
  # Real-socket gate: the UdpTransport backend driven end to end. The
  # interop test forks the example pair, completes an FBS handshake and
  # MAC-verified protected traffic between two OS processes over loopback,
  # injects replays, and round-trips both pcap captures through the
  # dissector. The bench then measures the same workload in-process;
  # loopback throughput is host-kernel dependent, so its gauges are
  # recorded, not compared against BENCH_seed.json.
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . $CONFIG_ARGS
  echo "== build udp backend + interop harness =="
  cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target test_net udp_loopback_responder udp_loopback_initiator \
             test_udp_interop fbs_bench_fig8_udp_loopback
  echo "== udp transport unit tests =="
  "$BUILD_DIR/tests/test_net" \
    --gtest_filter='UdpTransport*:Pcap*:TransportTotals*:TransportMetrics*'
  "$BUILD_DIR/tests/test_util" --gtest_filter='SteadyClock*'
  echo "== cross-process loopback interop (ctest -L udp) =="
  ctest --test-dir "$BUILD_DIR" -L udp -j "$JOBS" --output-on-failure
  echo "== fig8_udp_loopback bench =="
  FBS_METRICS_OUT="$BUILD_DIR/fig8_udp_loopback.metrics.json" \
    "$BUILD_DIR/bench/fbs_bench_fig8_udp_loopback"
  echo "UDP smoke passed."
  exit 0
fi

if [ "${1:-}" = "--fuzz-smoke" ]; then
  # The deterministic drivers are the stock-toolchain stand-in for libFuzzer
  # (see DESIGN.md section 5e): replay the checked-in corpus, then mutate
  # from the structure-aware seeds under the sanitizers, with a budget well
  # above the tier-1 default so the smoke actually explores.
  BUILD_DIR=build-sanitize
  echo "== configure ($BUILD_DIR) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DFBS_SANITIZE=ON
  echo "== build fuzz harness =="
  cmake --build "$BUILD_DIR" -j "$JOBS" --target test_fuzz_harness
  echo "== fuzz drivers (FBS_FUZZ_ITERS=${FBS_FUZZ_ITERS:-20000}) =="
  FBS_FUZZ_ITERS="${FBS_FUZZ_ITERS:-20000}" \
    ctest --test-dir "$BUILD_DIR" -L fuzz -j "$JOBS" --output-on-failure
  echo "Fuzz smoke passed."
  exit 0
fi

echo "== configure ($BUILD_DIR) =="
cmake -B "$BUILD_DIR" -S . $CONFIG_ARGS

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== tier-1 tests (everything except the chaos soaks) =="
ctest --test-dir "$BUILD_DIR" -LE chaos -j "$JOBS" --output-on-failure

echo "== chaos soak suite =="
ctest --test-dir "$BUILD_DIR" -L chaos -j "$JOBS" --output-on-failure

echo "== metrics / observability suite =="
ctest --test-dir "$BUILD_DIR" -L metrics -j "$JOBS" --output-on-failure

echo "All checks passed."
