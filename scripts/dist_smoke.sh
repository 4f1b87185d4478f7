#!/usr/bin/env bash
# Smoke test for the distributed campaign stack, exercised end-to-end
# through the shipped binary:
#
#   1. single-process golden: `lidtool campaign` of a 120-topology fuzz
#      sweep, exported as canonical JSON;
#   2. CLI shard path: the same sweep as four `--shard i/4 --out`
#      exports reunited with `lidtool merge` — byte-identical to golden;
#   3. coordinator path: `lidtool dist coordinate` with 4 shards, one
#      worker killed mid-flight while holding a lease (the
#      --die-after-lease crash hook) plus two honest workers, and one
#      silent peer connected until the coordinator exits — the
#      coordinator must re-dispatch the orphaned shard, the merged
#      aggregate must again be byte-identical to golden, and the silent
#      peer must hold neither the campaign nor the exit (a step that
#      hangs fails at a 60 s timeout);
#   4. a campaign with failures (strict-policy fuzz, 60 jobs, seed 3):
#      `lidtool campaign` and `dist coordinate` are one named campaign,
#      so both exit 1 with byte-identical aggregates (failing jobs named
#      alike), and a CLI shard partial carries the coordinator's spec
#      string.
#
# Usage: scripts/dist_smoke.sh [path/to/lidtool]
# (default: build/examples/lidtool relative to the repo root)

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
lidtool="${1:-$repo_root/build/examples/lidtool}"

if [ ! -x "$lidtool" ]; then
  echo "dist_smoke: lidtool not found at $lidtool" >&2
  exit 2
fi

work="$(mktemp -d)"
coord_pid=""
cleanup() {
  if [ -n "$coord_pid" ] && kill -0 "$coord_pid" 2>/dev/null; then
    kill "$coord_pid" 2>/dev/null
    wait "$coord_pid" 2>/dev/null
  fi
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "dist_smoke: FAIL: $*" >&2
  for log in "$work"/coord*.log; do
    echo "--- $(basename "$log") ---" >&2
    cat "$log" >&2 || true
  done
  exit 1
}

jobs=120
seed=7
budget=262144

# ---- 1. the single-process golden ---------------------------------------

"$lidtool" campaign fuzz "$jobs" --seed "$seed" --budget "$budget" \
  --threads 2 --json "$work/golden.json" > /dev/null \
  || fail "single-process campaign did not exit 0 (all live expected)"
[ -s "$work/golden.json" ] || fail "golden.json was not written"
echo "dist_smoke: golden aggregate: $(wc -c < "$work/golden.json") bytes"

# ---- 2. CLI shards + merge ----------------------------------------------

for i in 0 1 2 3; do
  "$lidtool" campaign fuzz "$jobs" --seed "$seed" --budget "$budget" \
    --threads 2 --shard "$i/4" --out "$work/part$i.json" > /dev/null \
    || fail "shard $i/4 export failed"
done
"$lidtool" merge "$work"/part0.json "$work"/part1.json "$work"/part2.json \
  "$work"/part3.json --json "$work/merged_cli.json" > /dev/null \
  || fail "lidtool merge of the four shards failed"
cmp -s "$work/golden.json" "$work/merged_cli.json" \
  || fail "merged CLI shards differ from the single-process golden"
echo "dist_smoke: 4 CLI shards merged byte-identical to golden"

# ---- 3. coordinator + workers, one killed mid-flight --------------------

"$lidtool" dist coordinate fuzz "$jobs" --seed "$seed" --budget "$budget" \
  --shards 4 --lease-ms 800 --json "$work/dist.json" \
  > "$work/coord.log" 2>&1 &
coord_pid=$!

# Sets $port from the start-up line the running coordinator writes to
# its log, the file $1.
await_port() {
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/.*on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
              "$1" | head -n1)"
    [ -n "$port" ] && break
    kill -0 "$coord_pid" 2>/dev/null || fail "coordinator exited before binding"
    sleep 0.1
  done
  [ -n "$port" ] && [ "$port" != "0" ] || fail "could not learn the bound port"
  echo "dist_smoke: coordinator up on port $port (pid $coord_pid)"
}
await_port "$work/coord.log"

# The silent peer: connected before any worker, never sends a byte, and
# stays until the coordinator has exited.  It may hold one connection
# thread of the coordinator, never the coordinator.
exec 9<>"/dev/tcp/127.0.0.1/$port" || fail "could not open the silent peer"

# The casualty: takes one shard lease and dies holding it.  Its shard
# can only complete through a re-dispatch after the lease expires.
timeout 60 "$lidtool" dist work --port "$port" --threads 1 \
  --die-after-lease 1 > "$work/dead_worker.log" 2>&1 \
  || fail "the doomed worker errored or timed out instead of dying cleanly"
grep -q "0 partial(s) submitted" "$work/dead_worker.log" \
  || fail "the doomed worker submitted work before dying"

# Two honest workers finish the campaign, including the orphaned shard.
timeout 60 "$lidtool" dist work --port "$port" --threads 2 \
  > "$work/worker1.log" 2>&1 &
w1=$!
timeout 60 "$lidtool" dist work --port "$port" --threads 2 \
  > "$work/worker2.log" 2>&1 &
w2=$!

for _ in $(seq 1 600); do
  kill -0 "$coord_pid" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$coord_pid" 2>/dev/null \
  && fail "coordinator still running 60 s after its workers started"
wait "$coord_pid"
coord_rc=$?
coord_pid=""
exec 9>&-
wait "$w1" || fail "worker 1 failed"
wait "$w2" || fail "worker 2 failed"
[ "$coord_rc" -eq 0 ] || fail "coordinator exited $coord_rc, want 0 (all live)"
echo "dist_smoke: a silent peer held neither the campaign nor the exit"

grep -q "4/4 shards" "$work/coord.log" \
  || fail "coordinator did not report 4/4 shards done"
redispatches="$(sed -n 's/.* \([0-9][0-9]*\) re-dispatch(es).*/\1/p' \
                  "$work/coord.log" | head -n1)"
[ -n "$redispatches" ] && [ "$redispatches" -ge 1 ] \
  || fail "coordinator reports no re-dispatch despite the killed worker"
echo "dist_smoke: campaign survived the killed worker ($redispatches re-dispatch(es))"

cmp -s "$work/golden.json" "$work/dist.json" \
  || fail "coordinator-merged aggregate differs from the single-process golden"
echo "dist_smoke: coordinator aggregate byte-identical to golden"

done_line="$(grep 'campaign done:' "$work/coord.log")"

# ---- 4. failures: one named campaign on CLI and coordinator -------------

"$lidtool" campaign fuzz 60 --policy strict --seed 3 --threads 2 \
  --json "$work/strict_cli.json" > /dev/null
rc=$?
[ "$rc" -eq 1 ] || fail "strict CLI campaign exited $rc, want 1 (failures)"
grep -q '"name": "fuzz/' "$work/strict_cli.json" \
  || fail "strict CLI campaign lists no failing fuzz job"

"$lidtool" dist coordinate fuzz 60 --policy strict --seed 3 --shards 3 \
  --json "$work/strict_dist.json" > "$work/coord2.log" 2>&1 &
coord_pid=$!
await_port "$work/coord2.log"
"$lidtool" dist work --port "$port" --threads 2 > "$work/worker3.log" 2>&1 \
  || fail "worker of the strict campaign failed"
wait "$coord_pid"
coord_rc=$?
coord_pid=""
[ "$coord_rc" -eq 1 ] || fail "strict coordinator exited $coord_rc, want 1"
cmp -s "$work/strict_cli.json" "$work/strict_dist.json" \
  || fail "strict campaign: CLI and coordinator aggregates differ:
$(diff "$work/strict_cli.json" "$work/strict_dist.json" | head -n 12)"
echo "dist_smoke: strict campaign with failures: CLI == coordinator"

"$lidtool" campaign fuzz 60 --policy strict --seed 3 --shard 0/3 \
  --out "$work/strict_part.json" > /dev/null
spec="$(sed -n "s/.*coordinating '\([^']*\)'.*/\1/p" "$work/coord2.log")"
[ -n "$spec" ] || fail "coordinator did not print its spec string"
grep -q "\"campaign\": \"$spec\"" "$work/strict_part.json" \
  || fail "CLI shard partial does not carry the coordinator's spec '$spec'"
echo "dist_smoke: CLI shard partial carries '$spec'"

echo "dist_smoke: PASS ($done_line)"
