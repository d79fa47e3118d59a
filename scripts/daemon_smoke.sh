#!/usr/bin/env bash
# Live-daemon smoke test: builds adcnn-conv and adcnn-central, starts
# two Conv nodes on loopback and runs adcnn-central against them four
# ways (f32 one image at a time, -pipeline 3, int8 on both ends,
# -replicas 2). Every run must exit 0 and report "0 mismatches".
#
# Run from the repository root:
#
#   bash scripts/daemon_smoke.sh
#
# PORT_BASE (default 19301) picks the four loopback ports used: two f32
# Conv nodes and two int8 Conv nodes.
set -euo pipefail

base="${PORT_BASE:-19301}"
work="$(mktemp -d)"
pids=()
cleanup() {
	for p in "${pids[@]}"; do
		kill "$p" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/" ./cmd/adcnn-conv ./cmd/adcnn-central

# conv PORT ID [FLAGS...] starts one Conv node in the background.
conv() {
	local port="$1" id="$2"
	shift 2
	"$work/adcnn-conv" -listen "127.0.0.1:$port" -id "$id" -log-level warn "$@" \
		2>"$work/conv-$port.log" &
	pids+=("$!")
}
conv "$base" 1
conv "$((base + 1))" 2
conv "$((base + 2))" 3 -quantized
conv "$((base + 3))" 4 -quantized
f32="127.0.0.1:$base,127.0.0.1:$((base + 1))"
int8="127.0.0.1:$((base + 2)),127.0.0.1:$((base + 3))"

fail=0
# run NAME NODES [FLAGS...] runs one adcnn-central pass and checks it.
run() {
	local name="$1" nodes="$2"
	shift 2
	local out="$work/central-$name.out"
	if "$work/adcnn-central" -nodes "$nodes" -images 5 -connect-timeout 20s \
		-log-level warn "$@" >"$out" 2>&1 && grep -q " 0 mismatches" "$out"; then
		echo "ok   $name: $(grep 'mean latency' "$out")"
	else
		echo "FAIL $name"
		cat "$out"
		fail=1
	fi
}
run f32-sequential "$f32"
run f32-pipeline3 "$f32" -pipeline 3
run int8 "$int8" -quantized
run replicas2 "$f32" -replicas 2

if [ "$fail" -ne 0 ]; then
	for f in "$work"/conv-*.log; do
		echo "--- $f"
		cat "$f"
	done
	exit 1
fi
echo "daemon smoke: all runs passed"
