#!/usr/bin/env bash
# Distributed smoke test: a coordinator plus two worker daemons on localhost
# (all race-instrumented) must produce the same report as a serial run of
# the same workload. Exercises the full wire path — handshake, job
# announcement, task leasing, heartbeats, result merging, done broadcast — end
# to end. One worker is pinned (`dampi -join`: it states the flags and is
# checked against them), the other any-workload (`dampid -join ADDR`: it builds
# what the coordinator announces), and a third, pinned at another -scale, must
# be refused by name without disturbing the run.
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

FLAGS="-workload matmul -procs 6 -k 1"
ADDR=127.0.0.1:19477

go build -race -o "$workdir/dampi" ./cmd/dampi
go build -race -o "$workdir/dampid" ./cmd/dampid

# Keep only the order-independent report body: the summary line plus the
# error/reproducer lines with completion-order indexes stripped.
normalize() {
  grep -E '^DAMPI:|error in interleaving|reproducer' "$1" \
    | sed 's/#[0-9]*//' | sort
}

echo "== serial baseline =="
timeout -k 10 240 "$workdir/dampi" $FLAGS -leaks=false | tee "$workdir/serial.out"

echo "== distributed run (coordinator + 2 workers) =="
timeout -k 10 240 "$workdir/dampi" -serve "$ADDR" $FLAGS > "$workdir/cluster.out" &
coord=$!
# The coordinator must be listening before the worker that is to be refused
# dials it: a refusal is what is under test, not a dial failure.
for _ in $(seq 1 100); do
  (exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR#*:}") 2>/dev/null && break
  sleep 0.1
done
rc=0
timeout -k 10 60 "$workdir/dampi" -join "$ADDR" $FLAGS -scale 50 -worker-name w3 \
  > "$workdir/refused.out" 2>&1 || rc=$?
cat "$workdir/refused.out"
if [ "$rc" -eq 0 ] || ! grep -q 'scale mismatch' "$workdir/refused.out"; then
  echo "FAIL: a worker built at -scale 50 was not refused by name (exit $rc)" >&2
  exit 1
fi
timeout -k 10 240 "$workdir/dampi" -join "$ADDR" $FLAGS -slots 2 -worker-name w1 &
timeout -k 10 240 "$workdir/dampid" -join "$ADDR" -slots 2 -name w2 &
wait "$coord"
cat "$workdir/cluster.out"
wait

normalize "$workdir/serial.out" > "$workdir/serial.norm"
normalize "$workdir/cluster.out" > "$workdir/cluster.norm"

if ! diff -u "$workdir/serial.norm" "$workdir/cluster.norm"; then
  echo "FAIL: distributed report differs from serial" >&2
  exit 1
fi
echo "OK: distributed report matches serial"
