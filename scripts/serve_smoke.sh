#!/usr/bin/env bash
# Smoke test for the lidtool serve daemon, exercised end-to-end through
# the shipped binary: start a daemon on an ephemeral port, fire 112
# mixed requests at it from `lidtool client` (lint / screen / profile /
# campaign / prove, including a design with a deliberate worst-case
# deadlock), check that a reformatted copy of a design is answered from
# the original's cache entries, that a prove and a campaign request
# answer with the same documents as the local `lidtool prove` /
# `lidtool campaign`, that the daemon's profile reports (counted in
# whole periods) equal `lidtool profile --json` (which steps every
# cycle), and that `lidtool screen` and `lidtool client screen` exit
# alike, then assert via `status` that the cache actually served hits, that the
# design memo answered repeat texts without a parse, that the deadlock
# was answered as a verdict (not a hang), that 200 more one-request
# connections leave the daemon's VmSize where it was, and that a
# `shutdown` request drains cleanly.
#
# Usage: scripts/serve_smoke.sh [path/to/lidtool]
# (default: build/examples/lidtool relative to the repo root)

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
lidtool="${1:-$repo_root/build/examples/lidtool}"

if [ ! -x "$lidtool" ]; then
  echo "serve_smoke: lidtool not found at $lidtool" >&2
  exit 2
fi

work="$(mktemp -d)"
server_pid=""
cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill "$server_pid" 2>/dev/null
    wait "$server_pid" 2>/dev/null
  fi
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  echo "--- daemon log ---" >&2
  cat "$work/serve.log" >&2 || true
  exit 1
}

# ---- fixtures -----------------------------------------------------------

# The paper's Fig. 1: live under both reset and worst-case occupancy.
cat > "$work/fig1.lid" <<'EOF'
source src
process A 1 2
process B 1 1
process C 2 1
sink out
channel src.0 -> A.0
channel A.0 -> B.0 : F
channel B.0 -> C.0 : F
channel A.1 -> C.1 : F
channel C.0 -> out.0
EOF

# The latent stop latch: a two-shell ring of half relay stations is
# live from reset but deadlocks under worst-case occupancy.  The daemon
# must answer this with a DEADLOCK verdict, not a wedged worker.
cat > "$work/deadlock.lid" <<'EOF'
process P 1 1
process Q 1 1
channel P.0 -> Q.0 : H
channel Q.0 -> P.0 : H
EOF

# The same kind of latch beside an independent live pipeline: under
# worst-case occupancy the ring's shells starve forever while the
# pipeline keeps moving, so the watchdog never trips — still a deadlock.
cat > "$work/ring_pipe.lid" <<'EOF'
process ctl 1 1
process plant 1 1
process est 1 1
channel ctl.0 -> plant.0 : H
channel plant.0 -> est.0 : H
channel est.0 -> ctl.0 : H
source src
process p 1 1
sink snk
channel src.0 -> p.0 : F
channel p.0 -> snk.0 : F
EOF

# Rate-limited sinks: the daemon's profile counts their periods in
# whole, so their reports must still match a run that steps every cycle.
for sink in "every3:periodic(3)" "script5:script(0,1,1,1,1)"; do
  cat > "$work/${sink%%:*}.lid" <<EOF
source src
process p 1 1
sink out ${sink#*:}
channel src.0 -> p.0 : F
channel p.0 -> out.0 : F
EOF
done

# ---- start the daemon ---------------------------------------------------

"$lidtool" serve --port 0 --cache-mb 8 --ttl 600 > "$work/serve.log" 2>&1 &
server_pid=$!

port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/.*serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$work/serve.log" | head -n1)"
  [ -n "$port" ] && break
  kill -0 "$server_pid" 2>/dev/null || fail "daemon exited before binding"
  sleep 0.1
done
[ -n "$port" ] && [ "$port" != "0" ] || fail "could not learn the bound port"
echo "serve_smoke: daemon up on port $port (pid $server_pid)"

client() { "$lidtool" client "$@" --port "$port"; }

# The member NAME of a pretty-printed client response's result,
# re-indented as a top-level document (it sits two levels deep).
result_member() {
  awk -v name="$1" '$0 == "    \"" name "\": {" { p = 1; print "{"; next }
       p && /^    \},?$/ { print "}"; exit }
       p { sub(/^    /, ""); print }' "$2"
}

# ---- 98 mixed requests --------------------------------------------------

# 24 rounds x 4 request kinds = 96, plus 2 campaigns = 98; plus the 2
# reformatted-twin requests, the prove, campaign, 5 profiles and 3
# screens of the next sections, plus the final status + shutdown = 112
# frames total.  After round one, every lint/screen/profile answer must
# be a cache hit; from round two on, every one of them also finds its
# text in the design memo (round two admits the 2 texts: 2 + 22 x 4 = 90
# memo hits).
requests=0
deadlock_answers=0
for _ in $(seq 1 24); do
  client lint "$work/fig1.lid" > "$work/lint_fig1.json" \
    || fail "lint of a clean design did not exit 0"
  client screen "$work/fig1.lid" > "$work/screen_fig1.json" \
    || fail "screen of a live design did not exit 0"
  client profile "$work/fig1.lid" --cycles 2000 > /dev/null \
    || fail "profile of a live design did not exit 0"
  client screen "$work/deadlock.lid" > "$work/deadlock.json"
  rc=$?
  [ "$rc" -eq 1 ] || fail "screen of the deadlock design exited $rc, want 1"
  grep -q '"verdict": "deadlock"' "$work/deadlock.json" \
    || fail "deadlock design was not answered with a deadlock verdict"
  deadlock_answers=$((deadlock_answers + 1))
  requests=$((requests + 4))
done
client campaign fuzz 10 --seed 7 > /dev/null || fail "campaign fuzz failed"
client campaign fuzz 10 --seed 7 > /dev/null || fail "repeat campaign failed"
requests=$((requests + 2))

# ---- one design, two texts: a reformatted twin shares the entries ------

# Comments, blank lines and extra spaces leave the content hash alone,
# so the twin's lint and screen are fig1's cache entries, byte for byte.
{ echo "# fig1, reformatted"; echo
  awk '{ gsub(/ /, "   "); print; print "" }' "$work/fig1.lid"
} > "$work/fig1_twin.lid"
for kind in lint screen; do
  client "$kind" "$work/fig1_twin.lid" > "$work/${kind}_twin.json" \
    || fail "client $kind of the reformatted fig1 did not exit 0"
  requests=$((requests + 1))
  python3 - "$work/${kind}_fig1.json" "$work/${kind}_twin.json" <<'EOF' \
    || fail "client $kind of the reformatted fig1 is not fig1's cached answer"
import json, sys
fig1 = json.load(open(sys.argv[1]))
twin = json.load(open(sys.argv[2]))
sys.exit(0 if twin["cached"] is True and twin["result"] == fig1["result"]
         else 1)
EOF
done
echo "serve_smoke: a reformatted fig1 is answered from fig1's cache entries"

# ---- one request on two surfaces: the daemon's answer == lidtool's ------

# Both build the request through one knob table, so `--depth 3` (bounded
# model checking, no method given) and the default state budget mean the
# same on both, and the daemon's "prove" member is the local document
# byte for byte.  Depth 3 leaves Fig. 1 undecided: lidtool exits 2, the
# client 1 (a diagnosed verdict).
"$lidtool" prove "$work/fig1.lid" --depth 3 --json > "$work/prove_local.json"
rc=$?
[ "$rc" -eq 2 ] || fail "lidtool prove --depth 3 exited $rc, want 2 (unknown)"
client prove "$work/fig1.lid" --depth 3 > "$work/prove_daemon.json"
rc=$?
requests=$((requests + 1))
result_member prove "$work/prove_daemon.json" > "$work/prove_member.json"
cmp -s "$work/prove_local.json" "$work/prove_member.json" \
  || fail "client prove --depth 3 differs from lidtool prove --depth 3 --json:
$(diff "$work/prove_local.json" "$work/prove_member.json" | head -n 12)"
[ "$rc" -eq 1 ] || fail "client prove --depth 3 exited $rc, want 1 (unknown)"
echo "serve_smoke: daemon prove document == lidtool prove --json"

# A named campaign with failing jobs is one campaign on both surfaces:
# the daemon's aggregate is `lidtool campaign --json` byte for byte.
"$lidtool" campaign fuzz 60 --policy strict --seed 3 --threads 2 \
  --json "$work/campaign_local.json" > /dev/null
[ $? -eq 1 ] || fail "lidtool campaign fuzz 60 --policy strict did not exit 1"
client campaign fuzz 60 --policy strict --seed 3 > "$work/campaign_daemon.json"
[ $? -eq 1 ] || fail "client campaign fuzz 60 --policy strict did not exit 1"
requests=$((requests + 1))
result_member aggregate "$work/campaign_daemon.json" \
  > "$work/campaign_member.json"
cmp -s "$work/campaign_local.json" "$work/campaign_member.json" \
  || fail "client campaign differs from lidtool campaign --json:
$(diff "$work/campaign_local.json" "$work/campaign_member.json" | head -n 12)"
echo "serve_smoke: daemon campaign aggregate == lidtool campaign --json"

# ---- one profile on two surfaces: whole periods vs every cycle ---------

# The daemon stops stepping once a design settles and counts the
# remaining whole periods; `lidtool profile` steps all 10000 cycles.
# Their probe reports must be the same document.
for design in "$repo_root/examples/designs/fig1.lid" \
              "$repo_root/examples/designs/half_ring.lid" \
              "$repo_root/examples/designs/coder.lid" \
              "$work/every3.lid" "$work/script5.lid"; do
  name="$(basename "$design")"
  "$lidtool" profile "$design" --cycles 10000 --json > "$work/profile_local.json" \
    || fail "lidtool profile $name failed"
  client profile "$design" --cycles 10000 > "$work/profile_daemon.json" \
    || fail "client profile $name did not exit 0"
  requests=$((requests + 1))
  python3 - "$work/profile_local.json" "$work/profile_daemon.json" <<'EOF' \
    || fail "client profile $name report differs from lidtool profile --json"
import json, sys
local = json.load(open(sys.argv[1]))
daemon = json.load(open(sys.argv[2]))["result"]["report"]
sys.exit(0 if local == daemon else 1)
EOF
done
echo "serve_smoke: daemon profile reports == lidtool profile --json"

# ---- one verdict on two surfaces: lidtool screen vs client screen ------

# Both ask the one steady-state search, so they exit alike: 0 live, 1
# deadlock — including the latch beside a live pipeline.
for pair in fig1:0 deadlock:1 ring_pipe:1; do
  design="${pair%%:*}"
  want="${pair##*:}"
  "$lidtool" screen "$work/$design.lid" > /dev/null
  local_rc=$?
  client screen "$work/$design.lid" > /dev/null
  daemon_rc=$?
  requests=$((requests + 1))
  [ "$local_rc" -eq "$want" ] \
    || fail "lidtool screen $design.lid exited $local_rc, want $want"
  [ "$daemon_rc" -eq "$local_rc" ] \
    || fail "client screen $design.lid exited $daemon_rc, lidtool screen $local_rc"
done
echo "serve_smoke: lidtool screen and client screen exit alike"
echo "serve_smoke: $requests requests served, $deadlock_answers deadlock verdicts"

# ---- status: the cache must have served hits ----------------------------

client status > "$work/status.json" || fail "status request failed"
get() { sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p" "$work/status.json" | head -n1; }
# Scope cache counters to the "cache" object: names like "evictions"
# also appear at the top level of the status document.
cache_get() {
  sed -n '/"cache"/,/}/p' "$work/status.json" |
    sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p" | head -n1
}

memo_get() {
  sed -n '/"design_memo"/,/}/p' "$work/status.json" |
    sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p" | head -n1
}

hits="$(cache_get hits)"
memo_hits="$(memo_get hits)"
total="$(get total)"
verdicts="$(get deadlock_verdicts)"
[ -n "$hits" ] || fail "status did not report cache hits"
[ "$total" -eq $((requests + 1)) ] \
  || fail "status reports $total requests, want $((requests + 1))"
# 10 distinct cache keys (lint/screen/profile of fig1, screen of the
# deadlock ring and of the ring beside a pipeline, the 5 cross-checked
# profiles) computed once each + 2 campaign keys + 1 prove key:
# everything else, the reformatted twin included, must have come from
# the cache.
[ "$hits" -ge $((requests - 13)) ] \
  || fail "only $hits cache hits across $requests requests"
# deadlock_verdicts counts computed deadlock answers; the repeat
# answers came from the cache without re-running the screen.
[ -n "$verdicts" ] && [ "$verdicts" -ge 1 ] \
  || fail "status reports no deadlock verdicts despite $deadlock_answers deadlock answers"
# Rounds 2-24 of the mixed loop alone give 90 design-memo hits.
[ -n "$memo_hits" ] && [ "$memo_hits" -ge 90 ] \
  || fail "status reports ${memo_hits:-no} design-memo hits, want >= 90"
echo "serve_smoke: cache hits $hits / $total requests, design-memo hits $memo_hits"

# ---- connection churn: memory does not grow per connection -------------

# Every `lidtool client` call is one connection.  A daemon that kept each
# finished connection's thread would keep its 8 MiB stack mapping too.
# Status requests start no engine threads, so malloc arenas do not blur
# the check.
vm_size_kib() {
  sed -n 's/^VmSize:[[:space:]]*\([0-9]*\) kB$/\1/p' "/proc/$server_pid/status"
}
vm_before="$(vm_size_kib)"
for _ in $(seq 1 200); do
  client status > /dev/null || fail "status request failed during the churn"
done
vm_after="$(vm_size_kib)"
[ -n "$vm_before" ] && [ -n "$vm_after" ] \
  || fail "could not read the daemon's VmSize"
[ $((vm_after - vm_before)) -le $((64 * 1024)) ] \
  || fail "VmSize grew from $vm_before to $vm_after kB over 200 connections"
echo "serve_smoke: VmSize $vm_before -> $vm_after kB over 200 connections"

# ---- graceful shutdown --------------------------------------------------

client shutdown > /dev/null || fail "shutdown request failed"
for _ in $(seq 1 100); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
  fail "daemon still running 10s after the shutdown request"
fi
wait "$server_pid"
server_pid=""
grep -q "drained: served" "$work/serve.log" \
  || fail "daemon did not report a clean drain"
echo "serve_smoke: PASS ($(grep 'drained:' "$work/serve.log"))"
