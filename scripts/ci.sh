#!/usr/bin/env bash
# CI entry point: configure, build, and run the full test suite.
#
#   scripts/ci.sh             # everything (tier-1, unchanged invocation)
#   scripts/ci.sh -L unit     # extra args are passed to ctest, e.g. one
#                             # label tier (unit | integration | slow)
#
# Additional stages, each in its own build directory so sanitizer and
# lint artifacts never contaminate the tier-1 build:
#
#   scripts/ci.sh lint        # shield_analyze unit suites + fixture
#                             # self-test (lint_test, analyze_test)
#   scripts/ci.sh analyze     # all seven rule families over src/ bench/
#                             # tests/ tools/, gated on the checked-in
#                             # baseline (new findings only), JSON mode
#                             # self-validated, audit-annotation counts
#                             # pinned like declassify sites
#   scripts/ci.sh tidy        # clang-tidy over compile_commands.json
#                             # with the repo .clang-tidy (concurrency-*
#                             # included), gated on
#                             # scripts/tidy_baseline.txt; skips cleanly
#                             # when clang-tidy is not installed
#   scripts/ci.sh asan        # AddressSanitizer over the unit suite
#   scripts/ci.sh ubsan       # UBSanitizer over the unit suite
#   scripts/ci.sh tsan        # ThreadSanitizer over the MonteCarlo
#                             # hammers: shard-pool workers on shared
#                             # state (stats registry, ephemeral pool,
#                             # tickets) and on their own per-thread
#                             # comb caches and buffer pools
#   scripts/ci.sh bench-smoke # tiny wall-clock throughput run: validate
#                             # the BENCH_throughput.json schema, pin the
#                             # wire-pool / TLS-resumption hit rates and
#                             # the scalar-mult budget, lint src/ + bench/,
#                             # and pin the declassify audit surface and
#                             # the SHIELD5G_* env-knob count
#   scripts/ci.sh crypto-parity # kernel_parity under both crypto
#                             # backends (scalar and accel), each
#                             # proving which X25519 ladder it ran
#                             # (portable / ifma4 on an IFMA host), plus
#                             # the scaling bench digests, which must be
#                             # byte-identical with the backend forced
#                             # to scalar vs the default
#   scripts/ci.sh scale-smoke # shard-runner determinism: run the scaling
#                             # bench at 1 and 2 workers and diff the
#                             # per-case digests byte-for-byte against
#                             # the sequential reference
#   scripts/ci.sh wire-parity # co-located fast path bit-identity: the
#                             # scaling digests must be byte-identical
#                             # with SHIELD5G_BUS_FASTPATH forced off,
#                             # forced on, and left at the default
#   scripts/ci.sh serve-smoke # sharded serving plane: provision 1M
#                             # subscribers into the columnar UDR store
#                             # under the pinned peak-RSS ceiling, then
#                             # serve at 1 and 2 shards and require the
#                             # merged digests byte-identical; then the
#                             # full 512-UE run at 1 shard must give the
#                             # digest checked in as BENCH_serving.json
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

stage="${1:-}"
case "$stage" in
  lint)
    build="${BUILD_DIR:-$repo/build-lint}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target shield_analyze lint_test analyze_test \
          -j "$jobs"
    ctest --test-dir "$build" --output-on-failure -L lint
    ;;
  analyze)
    build="${BUILD_DIR:-$repo/build-lint}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target shield_analyze -j "$jobs"
    analyze="$build/tools/shield_analyze/shield_analyze"
    # Fixture self-test first: every seeded violation in every rule
    # family must be flagged, nothing beyond them.
    "$analyze" --self-test "$repo/tools/shield_analyze/fixtures"
    # Full-tree scan, relative paths so the baseline keys are portable.
    (cd "$repo" && "$analyze" --baseline tools/shield_analyze/baseline.txt \
         src bench tests tools)
    # JSON mode: the binary self-validates the document before printing;
    # the greps re-prove schema + verdict from the emitted bytes.
    json="$(cd "$repo" && "$analyze" --json \
            --baseline tools/shield_analyze/baseline.txt \
            src bench tests tools)"
    echo "$json" | grep -q '"schema":"shield5g.analyze.v1"'
    echo "$json" | grep -q '"clean":true'
    # The audited-annotation surface over shipped code must not grow
    # silently: same discipline as the declassify pin in bench-smoke.
    counts="$(cd "$repo" && "$analyze" --audit-counts src bench \
              | grep -v ': clean')"
    expected="$(printf 'ct-audited=5\ndet-audited=3\nlock-audited=0\nlint-audited=0')"
    if [ "$counts" != "$expected" ]; then
      echo "analyze: audited-annotation counts changed:" >&2
      diff <(echo "$expected") <(echo "$counts") >&2 || true
      exit 1
    fi
    echo "analyze: OK"
    ;;
  tidy)
    if ! command -v clang-tidy >/dev/null 2>&1; then
      echo "tidy: clang-tidy not installed, skipping"
      exit 0
    fi
    build="${BUILD_DIR:-$repo/build-tidy}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
          -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    baseline="$repo/scripts/tidy_baseline.txt"
    current="$build/tidy_findings.txt"
    # Normalized fingerprints (file, check, message — no line numbers)
    # so unrelated edits above a grandfathered finding do not churn the
    # baseline; mirrors the shield_analyze baseline keys.
    (cd "$repo" && find src tools/shield_analyze -name '*.cpp' -print0 \
       | xargs -0 -n 8 -P "$jobs" clang-tidy -p "$build" --quiet 2>/dev/null \
       || true) \
      | sed -n 's|^'"$repo"'/\([^:]*\):[0-9]*:[0-9]*: warning: \(.*\) \(\[[a-z0-9.,-]*\]\)$|\1\t\3\t\2|p' \
      | sort -u > "$current"
    if [ "${2:-}" = "--write-baseline" ]; then
      { grep '^#' "$baseline"; cat "$current"; } > "$baseline.tmp"
      mv "$baseline.tmp" "$baseline"
      echo "tidy: baseline rewritten ($(wc -l < "$current") findings)"
      exit 0
    fi
    new="$(comm -13 <(grep -v '^#' "$baseline" | sort -u) "$current")"
    if [ -n "$new" ]; then
      echo "tidy: new clang-tidy findings (not in scripts/tidy_baseline.txt):" >&2
      echo "$new" >&2
      exit 1
    fi
    echo "tidy: OK ($(wc -l < "$current") findings, all baselined)"
    ;;
  asan|ubsan)
    san=address
    [ "$stage" = ubsan ] && san=undefined
    build="${BUILD_DIR:-$repo/build-$stage}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DSHIELD5G_SANITIZE="$san"
    cmake --build "$build" -j "$jobs"
    ctest --test-dir "$build" --output-on-failure -j "$jobs" -L unit
    ;;
  tsan)
    build="${BUILD_DIR:-$repo/build-tsan}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DSHIELD5G_SANITIZE=thread
    cmake --build "$build" --target montecarlo_test -j "$jobs"
    ctest --test-dir "$build" --output-on-failure -R '^MonteCarlo'
    ;;
  bench-smoke)
    build="${BUILD_DIR:-$repo/build}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target throughput shield_analyze -j "$jobs"
    out="$build/BENCH_throughput.json"
    # The binary self-validates the document before exiting 0; the greps
    # below catch a stale or truncated file on top of that. One shard
    # worker: smoke numbers stay uncontended and host-size independent.
    SHIELD5G_SHARD_WORKERS=1 \
      "$build/bench/throughput" --smoke 60 1000 1 "$out"
    grep -q '"schema":"shield5g.bench.throughput.v2"' "$out"
    grep -q '"regs_per_s"' "$out"
    grep -q '"stage_ns"' "$out"
    # Zero-copy wire path: the pooled-buffer fast path must actually be
    # taken (hits dwarf misses once the per-thread arenas are warm), and
    # the steady-state allocation rate must not creep back up. The
    # ceiling is ~15% above the measured 1537 allocs/registration (up
    # from 1173 pre-resumption: ticket mint/redeem and versioned hellos
    # allocate) so only a real regression trips it, not run-to-run noise.
    #
    # TLS resumption: warm registrations must actually resume (hits dwarf
    # misses + rejects once every UE holds a ticket), and the scalar-mult
    # budget must stay pinned. Measured 2.2 X25519 ladders/registration
    # (cold handshakes amortised over the run; warm SBI exchanges do 0) —
    # the ceiling of 6 is far below the ~11 of the full-handshake path,
    # so a silent fallback to full handshakes trips it immediately.
    #
    # Ephemeral-key pool: every started UE conceals its SUCI once through
    # the pool, in every mode and repeat (the per-reg passes and the
    # TLS full handshakes add more), so fewer hits than that means the
    # serving path stopped drawing from it.
    python3 - "$out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
pool = doc["wire_pool"]
if pool["hit"] < 1000 or pool["hit"] < 100 * max(pool["miss"], 1):
    sys.exit(f"bench-smoke: wire pool not hot: {pool}")
if doc["allocs_per_reg"] > 1760:
    sys.exit(f"bench-smoke: allocs_per_reg regressed: {doc['allocs_per_reg']}")
res = doc["tls_resume"]
if res["hit"] < 1000 or res["hit"] < 20 * max(res["miss"] + res["reject"], 1):
    sys.exit(f"bench-smoke: tls resumption not hot: {res}")
if doc["x25519_per_reg"] > 6.0:
    sys.exit(f"bench-smoke: x25519_per_reg regressed: {doc['x25519_per_reg']}")
eph = doc["x25519_pool"]
if eph["hit"] < doc["ue_count"] * doc["repeats"] * len(doc["modes"]):
    sys.exit(f"bench-smoke: x25519 pool not hot: {eph}")
# Shed vs error: saturation drops are expected load-shedding, real
# faults are not — any per-mode error means a handler/transport bug.
# Co-located fast path: monolithic mode must actually take it, and the
# isolation modes must never (container/SGX keep the full wire path).
for m in doc["modes"]:
    if m["failed"] != m["shed"] + m["error"]:
        sys.exit(f"bench-smoke: failed != shed + error in {m['mode']}: {m}")
    if m["error"] != 0:
        sys.exit(f"bench-smoke: {m['error']} real faults in {m['mode']}")
    if m["mode"] == "monolithic" and m["fastpath_hits"] == 0:
        sys.exit("bench-smoke: fast path never fired in monolithic mode")
    if m["mode"] in ("container", "sgx") and m["fastpath_hits"] != 0:
        sys.exit(f"bench-smoke: fast path fired in {m['mode']} mode: {m}")
print(f"bench-smoke: wire_pool {pool['hit']} hits / {pool['miss']} misses, "
      f"{doc['allocs_per_reg']:.0f} allocs/reg")
print(f"bench-smoke: tls_resume {res['hit']} hits / {res['miss']} misses / "
      f"{res['reject']} rejects ({100 * doc['resumption_rate']:.1f}% resumed), "
      f"{doc['x25519_per_reg']:.2f} x25519/reg")
print(f"bench-smoke: x25519_pool {eph['hit']} hits, "
      f"x25519 ladder {doc['x25519_ladder']}")
EOF
    (cd "$repo" && "$build/tools/shield_analyze/shield_analyze" \
         --baseline tools/shield_analyze/baseline.txt src bench)
    # The audited-annotation surface must not grow silently: pin the
    # per-rule marker counts next to the declassify pin below.
    audits="$(cd "$repo" && "$build/tools/shield_analyze/shield_analyze" \
              --audit-counts src bench | grep -v ': clean')"
    if [ "$audits" != "$(printf 'ct-audited=5\ndet-audited=3\nlock-audited=0\nlint-audited=0')" ]; then
      echo "bench-smoke: audited-annotation counts changed:" >&2
      echo "$audits" >&2
      exit 1
    fi
    # The secret-taint audit surface must not grow: exactly the blessed
    # declassify call sites (sbi.h hex dump, UDM provisioning + unseal).
    sites="$(grep -rn 'declassify(' "$repo/src" --include='*.cpp' \
             --include='*.h' | grep -v 'common/secret' \
             | grep -vE ':[0-9]+:[[:space:]]*(//|\*)' | wc -l)"
    if [ "$sites" -ne 3 ]; then
      echo "bench-smoke: declassify call sites changed (found $sites, want 3)" >&2
      exit 1
    fi
    # Config knobs are tracked like the audit surface: exactly three
    # SHIELD5G_* environment reads (crypto backend, bus fast path,
    # shard workers).
    knobs="$(grep -rn 'getenv("SHIELD5G_' "$repo/src" --include='*.cpp' \
             --include='*.h' | grep -vE ':[0-9]+:[[:space:]]*(//|\*)' | wc -l)"
    if [ "$knobs" -ne 3 ]; then
      echo "bench-smoke: SHIELD5G_* env knobs changed (found $knobs, want 3)" >&2
      exit 1
    fi
    echo "bench-smoke: OK"
    ;;
  crypto-parity)
    build="${BUILD_DIR:-$repo/build}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target kernel_parity_test shard_scaling \
          -j "$jobs"
    # Bit-identity across dispatch: the full parity suite (1k+ random
    # scalars/points incl. twist and u=0, RFC 7748 vectors, op-count
    # neutrality, IFMA vs portable ladder) must pass with the crypto
    # backend pinned either way. On hosts without AES-NI/SHA-NI/IFMA the
    # accelerated kernels fall back to scalar; the fixed-point X25519
    # path is portable and always runs, so this stage never silently
    # no-ops.
    for backend in scalar accel; do
      SHIELD5G_CRYPTO_BACKEND=$backend "$build/tests/kernel_parity_test" \
          | tee "$build/kernel_parity_$backend.log"
    done
    # Each run prints the X25519 ladder engine it ran. The scalar run
    # must have run the portable ladder, and on a host with IFMA the
    # accel run the 4-lane IFMA one, so neither leg silently tests the
    # other's engine.
    ladder_of() {  # $1 = backend -> "<engine> <cpu_ifma>"
      sed -n 's/^kernel_parity: x25519_ladder=\([a-z0-9]*\) cpu_ifma=\([01]\)$/\1 \2/p' \
          "$build/kernel_parity_$1.log"
    }
    read -r scalar_ladder cpu_ifma <<<"$(ladder_of scalar)" || true
    read -r accel_ladder _ <<<"$(ladder_of accel)" || true
    want_accel=portable
    if [ "${cpu_ifma:-}" = 1 ]; then want_accel=ifma4; fi
    if [ "${scalar_ladder:-}" != portable ] ||
       [ "${accel_ladder:-}" != "$want_accel" ]; then
      echo "crypto-parity: ladder engines scalar=${scalar_ladder:-none}" \
           "accel=${accel_ladder:-none}, want portable/$want_accel" \
           "(cpu_ifma=${cpu_ifma:-?})" >&2
      exit 1
    fi
    echo "crypto-parity: x25519 ladder scalar=$scalar_ladder accel=$accel_ladder"
    # End to end: the scaling digests must be byte-identical with the
    # whole crypto stack forced to the scalar reference path.
    rm -f "$build"/parity_digests_*.txt
    run_scaling() {  # $1 = tag (also digest prefix suffix)
      "$build/bench/shard_scaling" --smoke --workers 1 \
          --digest "$build/parity_digests_$1" \
          "$build/BENCH_scaling_parity_$1.json"
    }
    run_scaling default
    SHIELD5G_CRYPTO_BACKEND=scalar run_scaling scalar
    cmp "$build/parity_digests_default_seq.txt" \
        "$build/parity_digests_scalar_seq.txt"
    echo "crypto-parity: OK"
    ;;
  scale-smoke)
    build="${BUILD_DIR:-$repo/build}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target shard_scaling -j "$jobs"
    out="$build/BENCH_scaling.json"
    digests="$build/scale_digests"
    rm -f "$digests"_*.txt
    # The binary already fails on any digest mismatch; the byte-for-byte
    # cmp below re-proves it from the emitted artifacts, so a bug in the
    # binary's own comparison cannot mask a determinism break.
    "$build/bench/shard_scaling" --smoke --workers 1,2 \
        --digest "$digests" "$out"
    grep -q '"schema":"shield5g.bench.shard_scaling.v1"' "$out"
    grep -q '"deterministic":true' "$out"
    cmp "${digests}_seq.txt" "${digests}_w1.txt"
    cmp "${digests}_seq.txt" "${digests}_w2.txt"
    echo "scale-smoke: OK"
    ;;
  wire-parity)
    build="${BUILD_DIR:-$repo/build}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target shard_scaling -j "$jobs"
    # The fast path must be invisible in virtual time: per-case digests
    # (trace hashes, counters, latency sample bit patterns) byte-equal
    # whether co-located deliveries skip the wire or not. Same within-run
    # cmp discipline as crypto-parity — no checked-in digest values.
    rm -f "$build"/wire_digests_*.txt
    run_scaling() {  # $1 = tag
      "$build/bench/shard_scaling" --smoke --workers 1 \
          --digest "$build/wire_digests_$1" \
          "$build/BENCH_scaling_wire_$1.json"
    }
    run_scaling default
    SHIELD5G_BUS_FASTPATH=off run_scaling off
    SHIELD5G_BUS_FASTPATH=on run_scaling on
    cmp "$build/wire_digests_default_seq.txt" \
        "$build/wire_digests_off_seq.txt"
    cmp "$build/wire_digests_default_seq.txt" \
        "$build/wire_digests_on_seq.txt"
    echo "wire-parity: OK"
    ;;
  serve-smoke)
    build="${BUILD_DIR:-$repo/build}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" --target serving_plane -j "$jobs"
    out="$build/BENCH_serving.json"
    # The binary fails on its own on a digest divergence or an RSS
    # ceiling breach; the checks below re-prove both verdicts from the
    # emitted artifact so a bug in the binary's comparison cannot mask
    # a break.
    "$build/bench/serving_plane" --smoke --shards 1,2 "$out"
    grep -q '"schema":"shield5g.bench.serving_plane.v1"' "$out"
    grep -q '"deterministic":true' "$out"
    python3 - "$out" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
prov = doc["provision"]
if not prov["rss_ok"] or prov["rss_after_kb"] > prov["rss_ceiling_kb"]:
    sys.exit(f"serve-smoke: 1M provision RSS over ceiling: {prov}")
if prov["subscribers"] != 1_000_000:
    sys.exit(f"serve-smoke: provision count shrank: {prov['subscribers']}")
digests = {run["digest"] for run in doc["runs"]}
if len(digests) != 1 or not all(r["digest_matches_sequential"]
                                for r in doc["runs"]):
    sys.exit(f"serve-smoke: shard digests diverge: {doc['runs']}")
print(f"serve-smoke: 1M provision {prov['rss_after_kb'] // 1024} MB peak "
      f"(ceiling {prov['rss_ceiling_kb'] // 1024} MB), "
      f"digest {digests.pop()} identical at "
      f"{sorted(r['shards'] for r in doc['runs'])} shards")
EOF
    # The checked-in BENCH_serving.json must match the tree: the full
    # 512-UE run at one shard has to reproduce its digest.
    full="$build/BENCH_serving_full.json"
    "$build/bench/serving_plane" --shards 1 "$full"
    python3 - "$full" "$repo/BENCH_serving.json" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1]))
checked_in = json.load(open(sys.argv[2]))
got = {r["digest"] for r in run["runs"]}
want = {r["digest"] for r in checked_in["runs"]}
if run["ue_count"] != checked_in["ue_count"] or got != want:
    sys.exit(f"serve-smoke: BENCH_serving.json is stale: the tree gives "
             f"{sorted(got)} at {run['ue_count']} UEs, the file holds "
             f"{sorted(want)} at {checked_in['ue_count']} UEs")
print(f"serve-smoke: full run digest {got.pop()} matches BENCH_serving.json")
EOF
    echo "serve-smoke: OK"
    ;;
  *)
    build="${BUILD_DIR:-$repo/build}"
    cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE="${BUILD_TYPE:-Release}"
    cmake --build "$build" -j "$jobs"
    ctest --test-dir "$build" --output-on-failure -j "$jobs" "$@"
    ;;
esac
