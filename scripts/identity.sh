#!/bin/sh
# identity.sh BASE — is the simulators' output from the working tree
# byte-identical to their output at revision BASE?
#
# It builds cmd/slrsim and cmd/experiments twice, at BASE (exported with git
# archive into a temporary directory) and from the working tree, runs both
# builds on a fixed list of cases, and compares each case's stdout and
# stderr (less the sweep's wall-clock line) with cmp and its -jsonl records
# sorted. It prints SAME or DIFF per case and exits 1 if any case differs or
# either build fails on it. The specs it reads are never written. Run it
# from the repository root: make identity BASE=<rev>.
#
# The 29 cases: the four cmd/slrbench workloads at seed 1000; 10 s of
# olsr-1000 with the loop checker on, the one case whose checker reads
# route tables above 100 nodes (it prints one violation); table1-mid under
# each protocol (its six trials); 120 s of paper-default under each
# protocol with the loop checker on; SRP with fast expiry, hellos and
# round-robin multipath (CI's fast-expiry step); 30 s of SRP on table1-mid
# with the loop checker on in each of its ablations: split=1 (Farey
# splits), split=2 (next-element only) and use_lie=0; 30 s of LDR on
# table1-mid with the loop checker on, its route timeout and last TTL off
# their defaults (active_route_timeout_seconds=5, ttl_2=20); the
# aodv-aggressive spec; the -pause and -speed overlay on paper-default and
# on manhattan-500, whose model it resets to waypoint; the tiny-smoke spec under each
# protocol (gauss-markov mobility, poisson traffic and shadowing at their
# defaults, so each family's params reader runs); and the small-scale paper
# grid of cmd/experiments.
set -eu

base=${1:?usage: scripts/identity.sh <rev>}
out=$(mktemp -d "${TMPDIR:-/tmp}/identity.XXXXXX")
trap 'rm -rf "$out"' EXIT

mkdir "$out/base"
git archive "$base" | tar -x -C "$out/base"
for cmd in slrsim experiments; do
	(cd "$out/base" && go build -o "$out/$cmd.base" "./cmd/$cmd")
	go build -o "$out/$cmd.work" "./cmd/$cmd"
done

status=0

# run NAME CMD ARGS...: one case on both builds of CMD, side by side,
# compared.
run() {
	name=$1
	cmd=$2
	shift 2
	"$out/$cmd.base" "$@" -jsonl "$out/$name.base.jsonl" >"$out/$name.base.out" 2>"$out/$name.base.err" &
	pb=$!
	"$out/$cmd.work" "$@" -jsonl "$out/$name.work.jsonl" >"$out/$name.work.out" 2>"$out/$name.work.err" &
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
	for side in base work; do
		sort "$out/$name.$side.jsonl" >"$out/$name.$side.sorted"
		sed '/ finished in /d' "$out/$name.$side.err" >"$out/$name.$side.log"
	done
	if cmp -s "$out/$name.base.out" "$out/$name.work.out" &&
		cmp -s "$out/$name.base.log" "$out/$name.work.log" &&
		cmp -s "$out/$name.base.sorted" "$out/$name.work.sorted"; then
		echo "SAME $name"
	else
		echo "DIFF $name"
		status=1
	fi
}

for w in table1-mid city-500 flood-5000 olsr-1000; do
	run "workload-$w" slrsim -spec "cmd/slrbench/workloads/$w.json" -seed 1000
done
run olsr-1000-check slrsim -spec cmd/slrbench/workloads/olsr-1000.json -seed 1000 -duration 10s -check
for p in SRP LDR AODV DSR OLSR; do
	run "table1-mid-$p" slrsim -spec cmd/slrbench/workloads/table1-mid.json -protocol "$p" -seed 1000 -trials 6
done
for p in SRP LDR AODV DSR OLSR; do
	run "paper-default-120s-$p" slrsim -spec paper-default -protocol "$p" -duration 120s -trials 1 -check
done
run srp-fast-expiry slrsim -spec cmd/slrbench/workloads/table1-mid.json -protocol SRP \
	-trials 1 -duration 30s -check \
	-pparam delete_period_seconds=2 -pparam active_route_timeout_seconds=1 \
	-pparam hello_interval_seconds=1 -pparam multipath=1
for pp in split=1 split=2 use_lie=0; do
	run "srp-$pp" slrsim -spec cmd/slrbench/workloads/table1-mid.json -protocol SRP \
		-trials 1 -duration 30s -check -pparam "$pp"
done
run ldr-tuned slrsim -spec cmd/slrbench/workloads/table1-mid.json -protocol LDR \
	-trials 1 -duration 30s -check \
	-pparam active_route_timeout_seconds=5 -pparam ttl_2=20
run aodv-aggressive slrsim -spec examples/scenarios/aodv-aggressive.json
run paper-default-overlay slrsim -spec paper-default -protocol AODV -duration 60s -pause 30s -speed 10
run manhattan-500-overlay slrsim -spec examples/scenarios/manhattan-500.json -protocol SRP \
	-duration 10s -pause 5s -trials 1
for p in SRP LDR AODV DSR OLSR; do
	run "tiny-smoke-$p" slrsim -spec examples/scenarios/tiny-smoke.json -protocol "$p"
done
run grid-small experiments -scale small -quiet

exit "$status"
