#!/bin/sh
# identity.sh BASE — is slrsim's output from the working tree byte-identical
# to its output at revision BASE?
#
# It builds cmd/slrsim twice, at BASE (exported with git archive into a
# temporary directory) and from the working tree, runs both binaries on a
# fixed list of cases, and compares each case's stdout with cmp and its
# -jsonl records sorted. It prints SAME or DIFF per case and exits 1 if any
# case differs or either binary fails on it. The specs it reads are never
# written. Run it from the repository root: make identity BASE=<rev>.
#
# The cases: the four cmd/slrbench workloads at seed 1000; table1-mid under
# each protocol (its six trials); 120 s of paper-default under each protocol
# with the loop checker on; SRP with fast expiry, hellos and round-robin
# multipath (CI's fast-expiry step); and the aodv-aggressive spec.
set -eu

base=${1:?usage: scripts/identity.sh <rev>}
out=$(mktemp -d "${TMPDIR:-/tmp}/identity.XXXXXX")
trap 'rm -rf "$out"' EXIT

mkdir "$out/base"
git archive "$base" | tar -x -C "$out/base"
(cd "$out/base" && go build -o "$out/slrsim.base" ./cmd/slrsim)
go build -o "$out/slrsim.work" ./cmd/slrsim

status=0

# run NAME ARGS...: one case on both binaries, side by side, compared.
run() {
	name=$1
	shift
	"$out/slrsim.base" "$@" -jsonl "$out/$name.base.jsonl" >"$out/$name.base.out" 2>"$out/$name.base.err" &
	pb=$!
	"$out/slrsim.work" "$@" -jsonl "$out/$name.work.jsonl" >"$out/$name.work.out" 2>"$out/$name.work.err" &
	pw=$!
	sb=0
	wait "$pb" || sb=$?
	sw=0
	wait "$pw" || sw=$?
	if [ "$sb" -ne 0 ] || [ "$sw" -ne 0 ]; then
		echo "DIFF $name (exit $sb vs $sw)"
		status=1
		return
	fi
	sort "$out/$name.base.jsonl" >"$out/$name.base.sorted"
	sort "$out/$name.work.jsonl" >"$out/$name.work.sorted"
	if cmp -s "$out/$name.base.out" "$out/$name.work.out" &&
		cmp -s "$out/$name.base.sorted" "$out/$name.work.sorted"; then
		echo "SAME $name"
	else
		echo "DIFF $name"
		status=1
	fi
}

for w in table1-mid city-500 flood-5000 olsr-1000; do
	run "workload-$w" -spec "cmd/slrbench/workloads/$w.json" -seed 1000
done
for p in SRP LDR AODV DSR OLSR; do
	run "table1-mid-$p" -spec cmd/slrbench/workloads/table1-mid.json -protocol "$p" -seed 1000 -trials 6
done
for p in SRP LDR AODV DSR OLSR; do
	run "paper-default-120s-$p" -spec paper-default -protocol "$p" -duration 120s -trials 1 -check
done
run srp-fast-expiry -spec cmd/slrbench/workloads/table1-mid.json -protocol SRP \
	-trials 1 -duration 30s -check \
	-pparam delete_period_seconds=2 -pparam active_route_timeout_seconds=1 \
	-pparam hello_interval_seconds=1 -pparam multipath=1
run aodv-aggressive -spec examples/scenarios/aodv-aggressive.json

exit "$status"
