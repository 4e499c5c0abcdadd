#!/bin/sh
# fleet_smoke.sh boots a 1-coordinator / 2-worker synthd fleet on
# ephemeral ports and drives it end to end:
#
#   1. a SyGuS job through `synth -remote` pointed at the coordinator
#      (sharded forwarding) solves;
#   2. an exact resubmission is served from the owning worker's cache;
#      a job whose exponential strategy overflows the cutoff
#      (exp:1:1e19) completes with both workers still up, and the
#      coordinator's own routes feed its request series;
#   3. a long-running job's worker is killed mid-run and the
#      coordinator re-dispatches it to the survivor — same job id, no
#      hang, full result;
#   4. a fresh submission after the kill still solves (submit-side
#      failover) and the fleet metrics/stats are live.
#
# Run via `make fleet-smoke` (part of `make ci`).
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pids=
cleanup() {
	for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

fail() {
	echo "fleet-smoke: $*" >&2
	for log in "$tmp"/*.log; do
		echo "--- $log" >&2
		cat "$log" >&2
	done
	exit 1
}

$GO build -o "$tmp/synthd" ./cmd/synthd
$GO build -o "$tmp/synth" ./cmd/synth

# boot LOGFILE ARGS... starts a synthd, appends its pid to $pids, and
# sets $addr/$pid from the "listening on" line.
boot() {
	log=$1
	shift
	"$tmp/synthd" "$@" > "$log" 2>&1 &
	pid=$!
	pids="$pids $pid"
	addr=
	i=0
	while [ $i -lt 100 ]; do
		addr=$(sed -n 's/^synthd: listening on //p' "$log" | head -n 1)
		[ -n "$addr" ] && break
		kill -0 "$pid" 2>/dev/null || break
		i=$((i + 1))
		sleep 0.1
	done
	[ -n "$addr" ] || fail "synthd did not start ($log)"
}

boot "$tmp/w0.log" -addr 127.0.0.1:0 -workers 2
w0_addr=$addr w0_pid=$pid
boot "$tmp/w1.log" -addr 127.0.0.1:0 -workers 2
w1_addr=$addr w1_pid=$pid
boot "$tmp/coord.log" -addr 127.0.0.1:0 -fleet "http://$w0_addr,http://$w1_addr"
coord=$addr

cat > "$tmp/xor.sl" <<'EOF'
(set-logic BV)
(synth-fun f ((x (_ BitVec 64)) (y (_ BitVec 64))) (_ BitVec 64))
(constraint (= (f #x0000000000000001 #x0000000000000003) #x0000000000000002))
(constraint (= (f #x000000000000000f #x0000000000000005) #x000000000000000a))
(constraint (= (f #x0000000000000000 #x0000000000000000) #x0000000000000000))
(constraint (= (f #xffffffffffffffff #x0000000000000000) #xffffffffffffffff))
(constraint (= (f #x00000000000000ff #x00000000000000f0) #x000000000000000f))
(constraint (= (f #x0123456789abcdef #x0000000000000000) #x0123456789abcdef))
(check-synth)
EOF

# 1. Solve through the coordinator.
out=$("$tmp/synth" -remote "http://$coord" -sl "$tmp/xor.sl" -budget 8000000 -v)
echo "$out"
case "$out" in
*"solved in"*) ;;
*) fail "expected a solved response through the coordinator" ;;
esac

# 2. Exact resubmission: the same shard serves it from its cache.
"$tmp/synth" -remote "http://$coord" -sl "$tmp/xor.sl" -budget 8000000 > /dev/null ||
	fail "resubmission through the coordinator failed"
curl -sf "http://$coord/tracez?n=50" | grep -q '"fleet_forward"' ||
	fail "coordinator trace has no fleet_forward events"

# A growth factor of 1e19 puts the second cutoff past MaxInt64. The
# cutoff saturates; a worker that took it for a negative cutoff would
# crash, and so would every worker the job was re-dispatched to.
cat > "$tmp/exp.json" <<'EOF'
{"problem": {"expr": "andq(x, subq(x, 1))", "inputs": 1},
 "options": {"strategy": "exp:1:1e19", "budget": 100000}}
EOF
resp=$(curl -sf -X POST --data-binary @"$tmp/exp.json" "http://$coord/v1/jobs") ||
	fail "exp:1:1e19 submission failed"
id=$(printf '%s\n' "$resp" | sed -n 's/^ *"id": "\([^"]*\)".*/\1/p' | head -n 1)
i=0
status=
while [ $i -lt 100 ]; do
	status=$(curl -sf "http://$coord/v1/jobs/$id" |
		sed -n 's/^ *"status": "\([^"]*\)".*/\1/p' | head -n 1)
	[ "$status" = completed ] && break
	case "$status" in failed | cancelled) fail "exp:1:1e19 job ended $status" ;; esac
	i=$((i + 1))
	sleep 0.1
done
[ "$status" = completed ] || fail "exp:1:1e19 job did not complete (status: $status)"
for w in "$w0_addr" "$w1_addr"; do
	curl -sf "http://$w/healthz" > /dev/null || fail "worker $w is down after the exp:1:1e19 job"
done
curl -sf "http://$coord/metrics" | grep '^stochsyn_http_requests_total{' |
	grep 'route="/v1/jobs"' | grep -qv 'worker=' ||
	fail "coordinator /metrics has no stochsyn_http_requests_total series of its own for /v1/jobs"
echo "fleet-smoke: exp:1:1e19 completed with both workers up"

# 3. Kill the worker a long job runs on; the coordinator must
# re-dispatch to the survivor under the same id.
cat > "$tmp/job.json" <<'EOF'
{
  "problem": {
    "expr": "subq(xorq(mull(x, x), shrq(x, 9)), orq(x, 0x5bd1e995))",
    "inputs": 1, "num_cases": 50, "case_seed": 3
  },
  "options": {"budget": 8000000, "seed": 7, "workers": 8}
}
EOF
resp=$(curl -sf -X POST --data-binary @"$tmp/job.json" "http://$coord/v1/jobs") ||
	fail "long-job submission failed"
id=$(printf '%s\n' "$resp" | sed -n 's/^ *"id": "\([^"]*\)".*/\1/p' | head -n 1)
shard=$(printf '%s\n' "$resp" | sed -n 's/^ *"worker": "\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$id" ] && [ -n "$shard" ] || fail "submission response lacked id/worker: $resp"

i=0
while [ $i -lt 100 ]; do
	status=$(curl -sf "http://$coord/v1/jobs/$id" |
		sed -n 's/^ *"status": "\([^"]*\)".*/\1/p' | head -n 1)
	[ "$status" = running ] && break
	[ "$status" = completed ] && fail "long job completed before the kill; raise its budget"
	i=$((i + 1))
	sleep 0.1
done
[ "$status" = running ] || fail "long job never started running (status: $status)"

# Attach a live event stream through the coordinator BEFORE the kill:
# the one connection must survive the failover, carrying events from
# both workers and exactly one terminal event.
curl -sN --max-time 180 "http://$coord/v1/jobs/$id/events" > "$tmp/stream" &
stream_pid=$!
pids="$pids $stream_pid"
i=0
while [ $i -lt 100 ]; do
	grep -q "\"worker\":\"$shard\"" "$tmp/stream" 2>/dev/null && break
	i=$((i + 1))
	sleep 0.1
done
grep -q "\"worker\":\"$shard\"" "$tmp/stream" ||
	fail "no events from the owning worker arrived on the stream"

case "$shard" in
w0) kill -9 "$w0_pid" ;;
w1) kill -9 "$w1_pid" ;;
*) fail "unknown shard $shard" ;;
esac
echo "fleet-smoke: killed $shard mid-run"

i=0
final=
while [ $i -lt 240 ]; do
	final=$(curl -sf "http://$coord/v1/jobs/$id" || true)
	status=$(printf '%s\n' "$final" | sed -n 's/^ *"status": "\([^"]*\)".*/\1/p' | head -n 1)
	[ "$status" = completed ] && break
	case "$status" in failed | cancelled) fail "re-dispatched job ended $status: $final" ;; esac
	i=$((i + 1))
	sleep 0.5
done
[ "$status" = completed ] || fail "re-dispatched job did not complete (status: $status)"
printf '%s\n' "$final" | grep -q '"iterations": 8000000' ||
	fail "re-dispatched job did not run its full budget: $final"
new_shard=$(printf '%s\n' "$final" | sed -n 's/^ *"worker": "\([^"]*\)".*/\1/p' | head -n 1)
[ "$new_shard" != "$shard" ] || fail "job still attributed to the dead worker"
curl -sf "http://$coord/statsz" | grep -q '"redispatches": 1' ||
	fail "coordinator statsz does not show the re-dispatch"
echo "fleet-smoke: $shard died, job re-dispatched to $new_shard and completed"

# The stream attached before the kill must have re-attached to the
# survivor and terminated itself on the (single) terminal event.
wait "$stream_pid" 2>/dev/null || true
grep -q "\"worker\":\"$shard\"" "$tmp/stream" ||
	fail "stream lost the pre-kill events from $shard"
grep -q "\"worker\":\"$new_shard\"" "$tmp/stream" ||
	fail "stream carried no events from the survivor $new_shard after redispatch"
finishes=$(grep -c '^event: job_finished$' "$tmp/stream" || true)
[ "$finishes" = 1 ] ||
	fail "stream saw $finishes terminal events across the failover, want exactly 1"
echo "fleet-smoke: event stream survived the failover ($shard -> $new_shard, one terminal event)"

# 4. New work still solves on the surviving worker, and the fleet
# series are exported.
out=$("$tmp/synth" -remote "http://$coord" -expr 'andq(x, y)' -inputs 2 -budget 8000000 -v)
case "$out" in
*"solved in"*) ;;
*) fail "post-kill submission did not solve: $out" ;;
esac
curl -sf "http://$coord/metrics" > "$tmp/metrics" || fail "GET /metrics failed"
for series in \
	stochsyn_fleet_forwards_total \
	stochsyn_fleet_redispatches_total \
	stochsyn_fleet_worker_healthy; do
	grep -q "^$series" "$tmp/metrics" || fail "/metrics is missing $series"
done

echo "fleet-smoke: OK"
