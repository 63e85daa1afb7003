#!/bin/sh
# Repository gate: build, vet, and the full test suite under the race
# detector (the incremental split engine and the parallel decomposition are
# exercised concurrently by their tests). Run from the repo root:
#
#	./ci.sh
set -eux

go build ./...

# go vet must be SILENT: fail on any finding, including diagnostics a vet
# tool might print while still exiting zero.
vet_out="$(go vet ./... 2>&1)" || { printf '%s\n' "$vet_out"; exit 1; }
if [ -n "$vet_out" ]; then
	printf 'go vet findings:\n%s\n' "$vet_out"
	exit 1
fi

# Full suite under the race detector, with statement coverage recorded for
# the per-package floor check below.
cover_log="$(mktemp)"
go test -race -count=1 -cover ./... >"$cover_log" 2>&1 || { cat "$cover_log"; exit 1; }
cat "$cover_log"

# Per-package coverage floors (coverage_floors.txt): no package may regress
# below the floor recorded when it was last measured. The floors carry two
# points of slack for run-to-run jitter; see the file header for the
# raise-don't-lower policy.
awk '
	NR == FNR { if ($1 !~ /^#/ && NF >= 2) floor[$1] = $2; next }
	/coverage:/ {
		pkg = ($1 == "ok") ? $2 : $1
		pct = ""
		for (i = 1; i <= NF; i++)
			if ($i ~ /%/) { pct = $i; sub(/%.*/, "", pct); break }
		if (pkg in floor) {
			seen[pkg] = 1
			if (pct + 0 < floor[pkg] + 0) {
				printf "coverage regression: %s at %s%% is below floor %s%%\n", pkg, pct, floor[pkg]
				bad = 1
			}
		}
	}
	END {
		for (p in floor) if (!(p in seen)) { printf "coverage floor for %s but no coverage line in test output\n", p; bad = 1 }
		exit bad
	}
' coverage_floors.txt "$cover_log"
rm -f "$cover_log"

# Focused race pass on the observability layer and the server: the span
# recorder is mutated from every solver goroutine and the trace collector
# is shared across requests, so these two packages get a dedicated -count=2
# run to shake out interleavings the full-suite pass may not hit.
go test -race -count=2 ./internal/obs ./internal/server

# Resilience: a dedicated -count=2 race pass over the fault-injection
# registry and the retrying client (deterministic injection counters, the
# backoff jitter RNG, and SweepAll's resume loop are all concurrency-facing),
# then a chaos smoke — the binary's -chaos/-chaos-allow gating and a live
# fault-injected boot via the cmd tests. The full chaos replay (100-instance
# corpus under faults at every site, client retries converging bit-identically)
# runs as part of the full-suite pass above.
go test -race -count=2 ./internal/fault ./client
go test ./cmd/irshared -run 'TestChaos' -count=1

# Durable jobs: a dedicated -count=2 race pass (the store serializes WAL
# appends against compaction and the scheduler races submit/cancel/shutdown
# against its workers), a -count=10 race pass over the store's memory
# contract (checkpoints append in place while records read earlier, from
# several goroutines and across compactions, keep exactly their points)
# and over the scheduler's cancel paths (an acknowledged cancel ends
# canceled though the run succeeds after it, or the process crashes),
# then the crash-recovery smoke — a real child process SIGKILLed mid-grid
# must recover from its -data-dir and finish bit-identically.
go test -race -count=2 ./internal/jobs
go test -race -count=10 -run '^(TestStoreCloneIsolation|TestSchedulerCancelBeatsLateSuccess|TestSchedulerRecoverFinishesAcknowledgedCancel)$' ./internal/jobs
go test ./cmd/irshared -run 'TestKillAndRecover' -count=1

# Strategic-manipulation scenarios: a dedicated -count=2 race pass over the
# scenario engines (the odometer enumerator, the coalition fold, and the
# topology generators are driven concurrently by the job scheduler in the
# full-suite pass) and the scan kernel they run on (its parallel path and
# partial-prefix rule), the scenario crash-recovery smoke (a ksybil job
# SIGKILLed mid-grid must recover from its WAL checkpoint bit-identically),
# then a small-scan smoke through the CLI. The k=3 Sybil scan on the
# tournament ring must keep reproducing the pinned exact ratio — its best
# split carries a zero digit, so it degenerates to the k=2 optimum and the
# value matches the tournament smoke's bd line.
go test -race -count=2 ./internal/scenario ./internal/scan
go test ./cmd/irshared -run 'TestScenarioKillAndRecover' -count=1
scen_out="$(go run ./cmd/irshare scenario -kind ksybil -ring 3,1,2,1,5 -v 0 -k 3 -grid 12)"
printf '%s\n' "$scen_out"
printf '%s\n' "$scen_out" | grep -q 'ζ = 3965/3689' || { echo "scenario smoke: k=3 sybil ratio drifted"; exit 1; }
go run ./cmd/irshare scenario -kind topology -families ring,tree,er -count 1 -n 5 -grid 3 -seed 7 \
	| grep -q 'topology scan: 3 instances' || { echo "scenario smoke: topology scan failed"; exit 1; }

# Refresh the scenario engine throughput numbers (points/s is the custom
# metric reported by the scan benchmarks).
go run ./cmd/benchjson -bench 'KSybil|Topology' -pkg ./internal/scenario -out BENCH_scenarios.json \
	-note "scenario engine throughput: BenchmarkKSybilK3 — k=3 identity Sybil grid scan on an 8-ring (grid 16, 153 admissible points per scan), exact rational BD per point, points/s = grid points per second; BenchmarkTopologyScan — one jobs-scan-shaped topology scan (tree, barbell, smallworld, er; n=10; grid 12; 2 instances each), 111 BD decompositions on a general graph per instance (utilities by Proposition 6, no allocation flows), points/s = instances per second"

# Refresh the HTTP service numbers: cold (cache disabled) and warm solves
# per endpoint, and sustained /v1/ratio load through the retrying client.
go run ./cmd/benchjson -bench 'BenchmarkServer' -pkg ./internal/server -out BENCH_server.json \
	-note "irshared HTTP service: cold = cache disabled (full solve per request), warm = LRU-resident instance; SustainedRatioRPS = concurrent /v1/ratio through the retrying client (rps metric)"

# Refresh the recorded disabled-vs-enabled tracing overhead numbers.
go run ./cmd/benchjson -bench 'Obs' -pkg ./internal/obs -out BENCH_obs.json \
	-note "disabled-vs-enabled recorder overhead: primitives (Start/AddInt/End) and end-to-end DecomposeCtx on a 64-ring"

# Refresh the split-optimizer micro-benchmarks at the default benchtime
# (the seed_baseline section of the file survives regeneration).
go run ./cmd/benchjson -out BENCH_optimize.json \
	-note "OptimizeSplit = incremental engine; OptimizeSplitCold = the same workload on a cold Instance (SetEvalCache(false) and SetIncremental(false)); EvalSplitStock = eval cache and incremental engine off; all run the fixed-width 128-bit path DP with the big.Int plan as its overflow path — compare seed_baseline for the seed's numbers"

# Refresh the disabled-injection overhead numbers (fault.Hit in the hot
# loops with no injector installed must stay within noise of the baseline).
go run ./cmd/benchjson -bench 'OptimizeSplit$/n=129' -out BENCH_fault.json \
	-note "disabled-injection overhead check: BenchmarkOptimizeSplit n=129 with fault sites live but no injector installed; compare seed_baseline"

# Refresh the job-store durability numbers: un-synced WAL append throughput
# (the per-point checkpoint hot path), fsync'd state transitions, one whole
# job's checkpoints (561 one-point appends, a ksybil k=3 grid-32 job), and
# full recovery (replay + requeue) of a 10k-record store.
go run ./cmd/benchjson -bench 'WAL|Recover|Checkpoint' -pkg ./internal/jobs -out BENCH_jobs.json \
	-note "durable job store: WAL append (unsynced checkpoint path vs fsync'd state transition), CheckpointJob = 561 one-point checkpoints of one ksybil k=3 grid-32 job, and 10k-record recovery replay"

# Fuzz smoke: run each native fuzz target briefly against its seed corpus
# plus fresh mutations. Parser/codec regressions (panics, unbounded
# allocation) surface here long before a full fuzzing campaign. The
# FuzzParseGraph corpus includes the near-tight frontier rings surfaced by
# the certificate enumerator; FuzzCertRoundTrip probes the solver-free
# certificate checker's parsing hardening and canonical round-trip;
# FuzzParseRat referees the checker's rational parser, which decides
# canonicality from the literal and the parsed value, against the rule it
# replaced (re-render with RatString and compare, test code only): the same
# accepted values and the same error texts on arbitrary literals;
# FuzzFixedWidthDP referees the path DP's passes, written once over both
# plans, on the big.Int plan for every input and on the fixed-width plan
# wherever its bound admits one, and the split solver's valueFull, against
# the exact rational passes, which are test code only
# (internal/bottleneck/dpref_test.go), on both sides of the one 2^126 bound
# and in the band it admits through math/big scaling (λ or weight parts
# past int64, q·D near 2^126); FuzzFixedWidthMaxflow referees the one
# Dinic traversal in its two arithmetics against each other (value, every
# arc's flow, push count, both min-cut sides: the arithmetic) and against
# push–relabel and Edmonds–Karp (value, both min-cut sides, conservation
# after every solve: the traversal), at adversarial magnitudes — parts and
# common denominators past int64 among them — on both sides of the 2^126
# admission bound. FuzzWitnessNetwork
# referees internal/cert/build's one-network-per-decomposition Hall
# witnesses against a fresh per-pair network (test code only,
# internal/cert/build/witness_ref_test.go), byte for byte and push for
# push, on paths and rings with k/2^48 dust weights. FuzzLambdaNetwork
# referees internal/bottleneck's one-λ-network-per-decomposition against a
# fresh network per stage (test code only,
# internal/bottleneck/flowref_test.go) at every λ of every stage — value,
# w(S), maximal set, pushes, fixed/rat arithmetic — on general graphs and
# the five topology families with zero, dust and past-int64 weights.
# FuzzBreakpointLocator referees the optimizer's breakpoint locator against
# the 48-step exact bisection it replaced (test code only,
# internal/core/optimize_ref_test.go) on rings mixing small integers,
# powers of two and k/2^48 dust: every cut and every answer field must agree.
go test ./internal/graph -run '^$' -fuzz '^FuzzParseGraph$' -fuzztime 10s
go test ./internal/server -run '^$' -fuzz '^FuzzRatDecode$' -fuzztime 10s
go test ./internal/server -run '^$' -fuzz '^FuzzMechanismField$' -fuzztime 10s
go test ./internal/cert -run '^$' -fuzz '^FuzzCertRoundTrip$' -fuzztime 10s
go test ./internal/cert -run '^$' -fuzz '^FuzzParseRat$' -fuzztime 10s
go test ./internal/server -run '^$' -fuzz '^FuzzScenarioRequest$' -fuzztime 10s
go test ./internal/bottleneck -run '^$' -fuzz '^FuzzFixedWidthDP$' -fuzztime 10s
go test ./internal/maxflow -run '^$' -fuzz '^FuzzFixedWidthMaxflow$' -fuzztime 10s
go test ./internal/cert/build -run '^$' -fuzz '^FuzzWitnessNetwork$' -fuzztime 10s
go test ./internal/bottleneck -run '^$' -fuzz '^FuzzLambdaNetwork$' -fuzztime 10s
go test ./internal/core -run '^$' -fuzz '^FuzzBreakpointLocator$' -fuzztime 10s

# Cross-mechanism tournament smoke: every registered mechanism evaluated
# on a fixed ring through the same path the /v1/tournament endpoint uses.
# Exact rational arithmetic end to end, so the output is deterministic;
# any registry or generic-sweep regression changes a printed ζ and the
# grep below fails. bd must beat eqsplit on this instance (ζ > 1 vs = 1).
tourn_out="$(go run ./cmd/irshare tournament -ring 3,1,2,1,5 -v 0 -grid 16)"
printf '%s\n' "$tourn_out"
printf '%s\n' "$tourn_out" | grep -q 'bd *ζ = 3965/3689' || { echo "tournament smoke: bd ratio drifted"; exit 1; }
printf '%s\n' "$tourn_out" | grep -q 'eqsplit *ζ = 1 ' || { echo "tournament smoke: eqsplit ratio drifted"; exit 1; }

# Exhaustive small-n certification smoke: every canonical ring with n ≤ 6
# vertices and integer weights in {1..3} — 604 instances up to symmetry —
# is solved, certified (internal/cert/build), and independently re-verified
# by the solver-free checker. The command exits nonzero on any certification
# failure or any certified ratio above the Theorem 8 bound 2; -eps 3/5
# keeps the near-tight frontier (ratio ≥ 7/5) non-empty.
enum_out="$(go run ./cmd/irshare enumerate -min-n 3 -max-n 6 -levels 3 -grid 8 -eps 3/5 -timeout 25s)"
printf '%s\n' "$enum_out"
printf '%s\n' "$enum_out" | grep -q '"instances": 604' || { echo "enumeration smoke: instance count drifted"; exit 1; }

# Split-engine parity smoke: a dense sweep on a random 33-ring runs on the
# incremental engine and again on a cold Instance (no evaluation cache, no
# incremental solver); the command fails unless both give identical results.
sweep_out="$(go run ./cmd/irshare sweep -n 33 -grid 64 -seed 1)"
printf '%s\n' "$sweep_out"
printf '%s\n' "$sweep_out" | grep -q 'cold baseline (identical results)' || { echo "sweep smoke: cold parity line missing"; exit 1; }

# Cluster: a dedicated race pass over the router's data structures (hash
# ring, lease WAL, membership), the certificate-verified routing path (the
# gate's check and its binding of the answer to the request) and the
# router's /debug/trace, then the two cluster smokes — the 3-node
# kill/recover acceptance test (a job's owning node hard-stopped
# mid-sweep, the job re-placed on a survivor from the router's lease
# checkpoint, final result bit-identical to a single-node run) and the
# router chaos replay (the 100-instance corpus routed under fault
# injection at cluster.probe and cluster.lease) — plus the irrouter
# binary's flag gating and graceful drain.
go test -race -count=2 ./internal/cluster -run 'TestRing|TestLease|TestRouterReadyz|TestCertRejection|TestRouterTrace'
go test ./internal/cluster -run 'TestClusterKillRecoverBitIdentical|TestClusterChaosReplay' -count=1
go test ./cmd/irrouter -count=1

# Record the router's proxy overhead: the same sustained /v1/ratio load
# driven directly against one backend and through a single-node router.
go run ./cmd/benchjson -bench 'RatioRPS' -pkg ./internal/cluster -out BENCH_cluster.json \
	-note "router overhead: sustained /v1/ratio RPS direct vs proxied through a single-node irrouter"
