#!/bin/sh
# server_smoke.sh boots synthd on an ephemeral port, submits a small
# SyGuS job through `synth -remote`, checks the server solves it,
# scrapes /metrics to confirm the observability endpoints are live, and
# streams a job's events live, then again from its sealed log.
# Run via `make server-smoke`.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
pid=
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

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

$GO build -o "$tmp/synthd" ./cmd/synthd
$GO build -o "$tmp/synth" ./cmd/synth

"$tmp/synthd" -addr 127.0.0.1:0 -workers 2 > "$tmp/synthd.log" 2>&1 &
pid=$!

# The daemon prints "synthd: listening on <addr>" once bound.
addr=
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/^synthd: listening on //p' "$tmp/synthd.log" | head -n 1)
	[ -n "$addr" ] && break
	kill -0 "$pid" 2>/dev/null || break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "server-smoke: synthd did not start" >&2
	cat "$tmp/synthd.log" >&2
	exit 1
fi

out=$("$tmp/synth" -remote "http://$addr" -sl "$tmp/xor.sl" -budget 8000000 -v)
echo "$out"
case "$out" in
*"solved in"*) ;;
*)
	echo "server-smoke: expected a solved response from the server" >&2
	exit 1
	;;
esac

# The job above ran real searches, so the scrape must carry the core
# series with non-empty sample lines (name[{labels}] value).
curl -sf "http://$addr/metrics" > "$tmp/metrics" || {
	echo "server-smoke: GET /metrics failed" >&2
	exit 1
}
[ -s "$tmp/metrics" ] || { echo "server-smoke: /metrics is empty" >&2; exit 1; }
for series in \
	stochsyn_search_iterations_total \
	stochsyn_restarts_total \
	stochsyn_job_run_seconds_count \
	stochsyn_jobs_submitted_total \
	stochsyn_job_log_bytes \
	go_goroutines; do
	grep -q "^$series" "$tmp/metrics" || {
		echo "server-smoke: /metrics is missing $series" >&2
		cat "$tmp/metrics" >&2
		exit 1
	}
done
if grep -vE '^(# (HELP|TYPE) )|^[a-zA-Z_:][a-zA-Z0-9_:]*({.*})? [^ ]+$' "$tmp/metrics" | grep -q .; then
	echo "server-smoke: /metrics contains malformed lines:" >&2
	grep -vE '^(# (HELP|TYPE) )|^[a-zA-Z_:][a-zA-Z0-9_:]*({.*})? [^ ]+$' "$tmp/metrics" >&2
	exit 1
fi
curl -sf "http://$addr/tracez?n=5" | grep -q '"event"' || {
	echo "server-smoke: /tracez returned no events" >&2
	exit 1
}
echo "server-smoke: /metrics and /tracez OK"

# The live telemetry stream: submit a job and consume its SSE feed.
# The server ends the stream at the terminal event, so curl exits on
# its own; the feed must carry the lifecycle and exactly one
# job_finished.
cat > "$tmp/job.json" <<'EOF'
{
  "problem": {"expr": "xorq(x, y)", "inputs": 2, "num_cases": 40, "case_seed": 11},
  "options": {"budget": 4000000, "seed": 5, "workers": 2}
}
EOF
resp=$(curl -sf -X POST --data-binary @"$tmp/job.json" "http://$addr/v1/jobs") || {
	echo "server-smoke: event-stream job submission failed" >&2
	exit 1
}
id=$(printf '%s\n' "$resp" | sed -n 's/^ *"id": "\([^"]*\)".*/\1/p' | head -n 1)
[ -n "$id" ] || { echo "server-smoke: submission response lacked an id: $resp" >&2; exit 1; }
curl -sN --max-time 120 "http://$addr/v1/jobs/$id/events" > "$tmp/stream" || {
	echo "server-smoke: SSE stream failed or did not terminate" >&2
	exit 1
}
for ev in job_started search_start job_finished; do
	grep -q "^event: $ev\$" "$tmp/stream" || {
		echo "server-smoke: event stream is missing $ev:" >&2
		cat "$tmp/stream" >&2
		exit 1
	}
done
finishes=$(grep -c '^event: job_finished$' "$tmp/stream")
[ "$finishes" = 1 ] || {
	echo "server-smoke: expected exactly one terminal event, got $finishes" >&2
	exit 1
}
tail -n 3 "$tmp/stream" | grep -q '^event: job_finished$' || {
	echo "server-smoke: stream did not end on the terminal event" >&2
	cat "$tmp/stream" >&2
	exit 1
}
echo "server-smoke: /v1/jobs/$id/events streamed and terminated OK"

# A finished job's event log is sealed into compressed SSE frames
# (/statsz job_logs counts them). Wait for the seal, then read the
# stream again: the replay must be byte for byte the live read, and a
# Last-Event-ID resume from a middle frame must be exactly its tail.
sealed=
i=0
while [ $i -lt 100 ]; do
	stats=$(curl -sf "http://$addr/statsz") || stats=
	total=$(printf '%s\n' "$stats" | sed -n 's/^ *"total": \([0-9]*\).*/\1/p' | head -n 1)
	sealed=$(printf '%s\n' "$stats" | sed -n 's/^ *"sealed": \([0-9]*\).*/\1/p' | head -n 1)
	[ -n "$sealed" ] && [ "$sealed" = "$total" ] && break
	i=$((i + 1))
	sleep 0.1
done
if [ -z "$sealed" ] || [ "$sealed" != "$total" ]; then
	echo "server-smoke: /statsz job_logs.sealed ($sealed) never reached the job count ($total)" >&2
	exit 1
fi
bytes=$(printf '%s\n' "$stats" | sed -n 's/^ *"bytes": \([0-9]*\).*/\1/p' | head -n 1)
curl -sN --max-time 30 "http://$addr/v1/jobs/$id/events" > "$tmp/replay" || {
	echo "server-smoke: replaying the finished job's stream failed" >&2
	exit 1
}
cmp -s "$tmp/stream" "$tmp/replay" || {
	echo "server-smoke: the sealed replay differs from the live stream" >&2
	diff "$tmp/stream" "$tmp/replay" | head -n 20 >&2
	exit 1
}
frames=$(grep -c '^id: ' "$tmp/stream")
mid=$(grep '^id: ' "$tmp/stream" | sed -n "$((frames / 2))p" | cut -d ' ' -f 2)
awk -v id="$mid" 'found { print } $0 == "id: " id { skip = 1 } skip && $0 == "" { found = 1; skip = 0 }' \
	"$tmp/stream" > "$tmp/tail.want"
curl -sN --max-time 30 -H "Last-Event-ID: $mid" "http://$addr/v1/jobs/$id/events" > "$tmp/tail" || {
	echo "server-smoke: resuming the finished job's stream failed" >&2
	exit 1
}
[ -s "$tmp/tail" ] && cmp -s "$tmp/tail.want" "$tmp/tail" || {
	echo "server-smoke: the resume after id $mid is not the stream's tail" >&2
	diff "$tmp/tail.want" "$tmp/tail" | head -n 20 >&2
	exit 1
}
echo "server-smoke: sealed replay ($frames frames; $sealed sealed logs, $bytes bytes) and resume after id $mid OK"

kill -TERM "$pid"
wait "$pid" 2>/dev/null || true
pid=
echo "server-smoke: OK"
