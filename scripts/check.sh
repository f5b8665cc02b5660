#!/bin/bash
# The one gate, in one fixed order. Run before committing.
#
#  1. clippy and rustdoc across the workspace at -D warnings (a doc link
#     to a deleted or private item fails here), plus the two libc-edge
#     checks: the slot-memory layer (flows-mem) and the transport layer
#     (flows-net) must reach the kernel only through flows-sys so
#     SyscallCounts stay truthful. flowslint catches `libc::` tokens;
#     the greps catch the dependency edge itself. Greps keep handler ids
#     out of statics, `Vec<u8>` out of AMPI records and hand-packed bytes
#     out of netpump.rs. A last loop refuses a declared dependency that
#     no source file of its crate names.
#  2. flowslint — the dependency-free static analysis in crates/check,
#     seven rules over a per-crate symbol graph: SAFETY-comment coverage
#     on `unsafe`, no hidden global state in migratable crates,
#     raw-pointer fields in Pup types flagged, libc confined to
#     flows-sys, process-local state reachable from a migration-image
#     root (migration-image-closure), annotated atomic publish/consume
#     ordering + pairing (atomic-protocol), and wire-message
#     exhaustiveness in annotated pump handlers (wire-exhaustive).
#     The workspace must stay free of findings; a deliberate exception
#     carries an inline `flowslint::allow(rule): why` waiver.
#  3. flowslint's own test suite — tokenizer/parser units, rule
#     fixtures, interleaver models, the binary's exit codes.
#  4. `--features sanitize` test pass — rebuilds the substrate with the
#     runtime detectors armed (stack canaries, heap red zones + freed
#     quarantine, vacated-slot poisoning, scheduler lifecycle trips,
#     pup-size validation) and proves both that the regular suites still
#     pass with detectors on and that every detector still fires.
#  5. The whole workspace's test suites, not only the umbrella crate's:
#     every package's unit and integration tests, each package under its
#     own hard timeout and the whole step under another.
#  6. Million-thread capacity: one PE must hold >= 1M live migratable
#     threads (lazy slabs) at <= 4 KiB each. The ceiling is ~20x the
#     measured Tcb+bookkeeping cost, so it trips on an O(threads) memory
#     regression, not allocator jitter.
#  7. flowsbench's own tests, then its smoke. The tests prove the
#     instrument still catches what it must (a planted corruption flips
#     the fail ratio) after any change to the wires it reads; the smoke
#     makes every workload verify. Performance floors are not kept here
#     — a floor is a `benchmark/run.sh` result compared against the
#     parent commit.
set -eu
cd "$(dirname "$0")/.."

cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
for crate in mem net; do
  if grep -Eq '^\s*libc\s*[=.]' "crates/$crate/Cargo.toml"; then
    echo "FAIL: flows-$crate must not depend on libc directly — go through flows-sys"
    exit 1
  fi
done
if hits=$(grep -rnE 'OnceLock<[^>]*HandlerId|static +[A-Z_0-9]+ *:[^=]*HandlerId' crates/*/src); then
  echo "FAIL: process-global handler id (look it up with Pe::handler_of instead):"
  echo "$hits"
  exit 1
fi
# Image and wire records carry byte runs as `Payload` or `PackedThread`,
# which pack and unpack in one copy; a `Vec<u8>` field pups byte by byte.
if hits=$(grep -nE '^\s*(pub(\([a-z]+\))?\s+)?[a-z_][a-z0-9_]*\s*:[^=;(]*Vec<u8>' crates/ampi/src/proto.rs); then
  echo "FAIL: Vec<u8> field in an AMPI record (use Payload or PackedThread for a byte run):"
  echo "$hits"
  exit 1
fi
# The comm thread's control frames are pup records, so the non-test part
# of netpump.rs packs no bytes by hand.
hits=$(awk '/^#\[cfg\(test\)\]/ { exit } /(from|to)_le_bytes/ { print FILENAME ":" FNR ": " $0 }' \
  crates/converse/src/netpump.rs)
if [ -n "$hits" ]; then
  echo "FAIL: hand-packed bytes in netpump.rs (the machine protocol goes through pup records):"
  echo "$hits"
  exit 1
fi
# Every declared dependency is named by a source file of its crate. The
# root package's sources include the files its smoke tests `include!`.
deps_of() {
  awk '/^\[/ { on = ($0 ~ /^\[(dev-|build-)?dependencies\]$/); next }
    on && /^[A-Za-z0-9_-]+[[:space:]]*[=.]/ { sub(/[[:space:]]*[=.].*/, ""); print }' "$1"
}
unused=""
for manifest in Cargo.toml crates/*/Cargo.toml; do
  pkg=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -1)
  if [ "$manifest" = Cargo.toml ]; then
    files=$(find src tests examples -name '*.rs'
      sed -nE 's|^include!\("([^"]+)"\);|tests/\1|p' tests/*_smoke.rs)
  else
    files=$(find "$(dirname "$manifest")" -name '*.rs')
  fi
  for dep in $(deps_of "$manifest"); do
    # shellcheck disable=SC2086 # one word per file
    grep -qw -- "${dep//-/_}" $files || unused+="  $pkg -> $dep"$'\n'
  done
done
if [ -n "$unused" ]; then
  echo "FAIL: declared dependencies that no source of their crate names:"
  printf '%s' "$unused"
  exit 1
fi
echo "OK: clippy and rustdoc clean at -D warnings; flows-mem and flows-net have no direct libc dependency; no process-global handler id; no Vec<u8> field in AMPI records; no hand-packed bytes in netpump.rs; every declared dependency is used"

cargo run --offline -q -p flows-check --bin flowslint -- --root .
cargo test --offline -q -p flows-check
# The sanitize pass runs multi-process suites; a hang there must fail the
# gate, not stall it. `timeout` kills the whole process group on expiry.
sanitize_limit=900
rc=0
timeout --signal=KILL "$sanitize_limit" \
  cargo test --offline -q -p flows-mem -p flows-core -p flows-ampi --features sanitize || rc=$?
if [ "$rc" -eq 137 ]; then
  echo "FAIL: step 4 (--features sanitize test pass) exceeded ${sanitize_limit}s and was killed"
  exit 1
elif [ "$rc" -ne 0 ]; then
  echo "FAIL: step 4 (--features sanitize test pass) exited $rc"
  exit 1
fi
echo "OK: flowslint clean + check suite + sanitize pass green"

# One package at a time, each under its own kill timeout, so a hang names
# its package; the step as a whole stays bounded by workspace_limit.
workspace_limit=1200
suite_limit=600
step_end=$((SECONDS + workspace_limit))
failed=()
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
  pkg=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -1)
  left=$((step_end - SECONDS))
  if [ "$left" -le 0 ]; then
    echo "FAIL: step 5 (workspace test pass) exceeded ${workspace_limit}s before $pkg ran"
    exit 1
  fi
  limit=$((left < suite_limit ? left : suite_limit))
  rc=0
  timeout --signal=KILL "$limit" cargo test --offline -q -p "$pkg" --no-fail-fast || rc=$?
  if [ "$rc" -eq 137 ]; then
    echo "FAIL: step 5: $pkg tests exceeded ${limit}s and were killed"
    failed+=("$pkg")
  elif [ "$rc" -ne 0 ]; then
    echo "FAIL: step 5: $pkg tests exited $rc"
    failed+=("$pkg")
  fi
done
if [ "${#failed[@]}" -ne 0 ]; then
  echo "FAIL: step 5 (workspace test pass): ${failed[*]}"
  exit 1
fi
echo "OK: every workspace test suite green"

ISO=$(cargo run --offline --release -q -p flows-bench --bin table2_limits -- \
  --proc-cap 16 --kthread-cap 16 --uthread-cap 16 --iso-cap 1000000 | grep '^iso_' || true)
echo "$ISO" | awk '$1 == "iso_live_threads:" { live = $2 } $1 == "iso_bytes_per_thread:" { bpt = $2 }
  END { exit !(live >= 1000000 && bpt != "" && bpt <= 4096) }' \
  || { echo "FAIL: need iso_live_threads >= 1000000 and iso_bytes_per_thread <= 4096, got: $ISO"; exit 1; }
echo "OK: capacity:" $ISO

bench_test_limit=600
rc=0
# The same target directory benchmark/run.sh builds in, so the smoke
# below reuses this build.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target/flowsbench}" timeout --signal=KILL "$bench_test_limit" \
  cargo test --offline --release --manifest-path benchmark/Cargo.toml || rc=$?
if [ "$rc" -eq 137 ]; then
  echo "FAIL: flowsbench tests exceeded ${bench_test_limit}s and were killed"
  exit 1
elif [ "$rc" -ne 0 ]; then
  echo "FAIL: flowsbench tests exited $rc"
  exit 1
fi
echo "OK: flowsbench tests green (the instrument still catches corruption)"

rc=0
bash benchmark/run.sh --quick || rc=$?
if [ "$rc" -eq 2 ]; then
  echo "SKIPPED: flowsbench smoke refused to run on a loaded host — rerun 'bash benchmark/run.sh --quick' when idle"
elif [ "$rc" -ne 0 ]; then
  echo "FAIL: flowsbench smoke exited $rc"
  exit 1
else
  echo "OK: flowsbench smoke verified every workload"
fi
