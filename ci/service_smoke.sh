#!/usr/bin/env bash
# Verification-service smoke test: one `dampi -serve -queue` service plus two
# any-workload worker daemons (all race-instrumented) accept two jobs over the
# REST API, drain them sequentially on the same worker pool, and each report
# fetched back over HTTP must match a serial run of the same workload.
# Exercises the full service path — WAL-backed job store, REST submission,
# job announcement to pooled workers, lease dispatch, report persistence —
# end to end, and holds a finished job to its durability budget: at most four
# store fsyncs, no checkpoint left under store/ckp. A third job, submitted with a 1 s TTL while a longer one holds
# the pool, must fail with `ttl expired`: the sweep runs while the service is
# busy. Failed jobs — that one, and the long one canceled after it — leave no
# checkpoint either.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
cleanup() {
  local pids
  pids=$(jobs -p)
  [ -n "$pids" ] && kill $pids 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

ADDR=127.0.0.1:19487
API=127.0.0.1:19488

go build -race -o "$workdir/dampi" ./cmd/dampi
go build -race -o "$workdir/dampid" ./cmd/dampid

# Keep only the order-independent report body: the summary line plus the
# error/reproducer lines with completion-order indexes stripped.
normalize() {
  grep -E '^DAMPI:|error in interleaving|reproducer' "$1" \
    | sed 's/#[0-9]*//' | sort
}

echo "== serial baselines =="
timeout -k 10 240 "$workdir/dampi" -workload matmul -procs 6 -k 1 -leaks=false \
  | tee "$workdir/serial_matmul.out"
timeout -k 10 240 "$workdir/dampi" -workload matmul -procs 4 -k 1 -leaks=false \
  | tee "$workdir/serial_matmul4.out"

echo "== verification service (queue + 2 any-workload workers) =="
timeout -k 10 240 "$workdir/dampi" -serve "$ADDR" -queue -api "$API" \
  -store "$workdir/store" -v > "$workdir/service.out" 2>&1 &
service=$!
timeout -k 10 240 "$workdir/dampid" -join "$ADDR" -slots 2 -name w1 > /dev/null &
timeout -k 10 240 "$workdir/dampid" -join "$ADDR" -slots 2 -name w2 > /dev/null &

# Wait for the API to come up.
for _ in $(seq 1 100); do
  curl -fsS "http://$API/status" > /dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "http://$API/status" > /dev/null

echo "== submitting two jobs over REST =="
submit() {
  curl -fsS -X POST "http://$API/jobs" -H 'Content-Type: application/json' \
    -d "$1" | python3 -c 'import json,sys; print(json.load(sys.stdin)["job"]["id"])'
}
job1=$(submit '{"workload":"matmul","procs":6,"clock":0,"transport":0,"mixing_bound":1}')
job2=$(submit '{"workload":"matmul","procs":4,"clock":0,"transport":0,"mixing_bound":1}')
echo "submitted $job1 (6 procs) and $job2 (4 procs)"

poll() {
  local id=$1 state
  for _ in $(seq 1 1200); do
    state=$(curl -fsS "http://$API/jobs/$id" \
      | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
    case "$state" in
      done) return 0 ;;
      failed)
        echo "FAIL: job $id failed:" >&2
        curl -fsS "http://$API/jobs/$id" >&2
        return 1 ;;
    esac
    sleep 0.2
  done
  echo "FAIL: job $id never finished" >&2
  return 1
}
poll "$job1"
poll "$job2"

# The queue metrics must account for both completed jobs.
curl -fsS "http://$API/metrics" | tee "$workdir/metrics.out" | grep -q 'dampi_jobs_total{state="done"} 2' \
  || { echo "FAIL: /metrics does not show 2 done jobs" >&2; exit 1; }

curl -fsS "http://$API/jobs/$job1/report?format=text" | tee "$workdir/job1.out"
curl -fsS "http://$API/jobs/$job2/report?format=text" | tee "$workdir/job2.out"

# A finished job costs at most four fsyncs of the store (submitted, running,
# the report file, finished; opening the store was one more) and leaves no
# checkpoint behind: the report supersedes it.
syncs=$(awk '/^dampi_store_syncs_total\{/ { n += $2 } END { print n + 0 }' "$workdir/metrics.out")
if [ "$syncs" -lt 1 ] || [ "$syncs" -gt $((4 * 2 + 1)) ]; then
  echo "FAIL: /metrics reports $syncs store fsyncs for 2 finished jobs, want at most 4 each" >&2
  exit 1
fi
no_checkpoints_left() {
  for _ in $(seq 1 50); do
    [ -z "$(ls -A "$workdir/store/ckp")" ] && return 0
    sleep 0.1
  done
  echo "FAIL: store/ckp holds $(ls "$workdir/store/ckp") after $1" >&2
  exit 1
}
no_checkpoints_left "its jobs finished"

echo "== a job's TTL holds while a longer job has the pool =="
long=$(submit '{"workload":"matmul","procs":6,"clock":0,"transport":0,"mixing_bound":-1}')
rc=0
timeout -k 10 120 "$workdir/dampi" -submit "http://$API" -workload matmul -procs 4 -k 1 \
  -ttl 1s -wait > "$workdir/ttl.out" 2>&1 || rc=$?
cat "$workdir/ttl.out"
if [ "$rc" -eq 0 ] || ! grep -q 'ttl expired' "$workdir/ttl.out"; then
  echo "FAIL: a job queued past its 1s TTL behind $long did not fail with 'ttl expired' (exit $rc)" >&2
  exit 1
fi
# Neither failed job keeps a checkpoint: the TTL-expired one never ran, and the
# long one, canceled here after seconds of periodic checkpoints, is never
# resumed.
curl -fsS -X DELETE "http://$API/jobs/$long" > /dev/null
no_checkpoints_left "one job failed its TTL and one was canceled mid-run"

kill -TERM "$service" 2>/dev/null || true
wait "$service" 2>/dev/null || true

for pair in "serial_matmul.out job1.out" "serial_matmul4.out job2.out"; do
  set -- $pair
  normalize "$workdir/$1" > "$workdir/$1.norm"
  normalize "$workdir/$2" > "$workdir/$2.norm"
  if ! diff -u "$workdir/$1.norm" "$workdir/$2.norm"; then
    echo "FAIL: service report $2 differs from serial $1" >&2
    exit 1
  fi
done
echo "OK: both service reports match their serial runs"
