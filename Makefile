# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync. The lint list lives here only: CI's lint
# job runs `make lint`.

GO ?= go

.PHONY: all build test race lint lint-ignore lint-atomic lint-seam lint-solve lint-border lint-tables lint-lkg lint-resolve lint-distribute lint-aggregate vet nightly bench bench-full bench-compare bench-scale chaos sim fmt

# Output snapshot for the regression-gate benchmarks (see cmd/benchgate).
BENCH_OUT ?= BENCH_pr28.json

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs go vet (the standard passes), then hfcvet, the project's own
# analyzers (the lock family lockscope, guardedby, lockorder; detrand,
# maporder, errsweep and hotalloc), then the grep lints below. See DESIGN.md
# "Concurrency & determinism invariants".
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/hfcvet ./...
	$(MAKE) lint-ignore
	$(MAKE) lint-atomic
	$(MAKE) lint-seam
	$(MAKE) lint-solve
	$(MAKE) lint-border
	$(MAKE) lint-tables
	$(MAKE) lint-lkg
	$(MAKE) lint-resolve
	$(MAKE) lint-distribute
	$(MAKE) lint-aggregate

# lint-ignore: every //hfcvet:ignore directive names an analyzer that
# `hfcvet -list` prints and says why. hfcvet only sees directives for the
# analyzers it runs, so one naming a deleted analyzer would otherwise lie
# inert. Analyzer fixtures exercise malformed forms on purpose; bench/ keeps
# two directives for the deleted floatdist.
lint-ignore:
	@names=$$($(GO) run ./cmd/hfcvet -list | awk '{printf "%s%s", s, $$1; s = "|"}'); \
	bad=$$(git grep -nE '(^|[[:space:]])//[[:space:]]*hfcvet:ignore' -- '*.go' ':(exclude)vendor' ':(exclude)internal/analysis' ':(exclude)bench' \
		| grep -vE "//hfcvet:ignore ($$names)[[:space:]]+[^[:space:]]"); \
	if [ -n "$$bad" ]; then echo "suppressions naming no registered analyzer, or giving no reason:"; echo "$$bad"; exit 1; fi

# lint-atomic keeps every atomic typed (atomic.Int64, atomic.Pointer, ...):
# a plain access to a typed atomic does not compile, so no variable can mix
# atomic and plain access.
lint-atomic:
	! git grep -nE 'atomic\.(Add|Load|Store|Swap|CompareAndSwap)(Int32|Int64|Uint32|Uint64|Uintptr|Pointer)\(' -- '*.go' ':(exclude)vendor'

# lint-seam enforces the overlay's delivery seam: outside the event driver
# and the Simulate harness, no non-test file of internal/overlay may name
# the virtual clock's type or test a mode flag.
lint-seam:
	! grep -nE 'vtime\.Sim|\bsim (!=|==) nil' $$(ls internal/overlay/*.go | grep -v -e _test.go -e driver_sim.go -e sim.go)

# lint-solve keeps §5 written once, in routing: the overlay runtime and the
# QoS router hand a child to routing.IntraSolve rather than turning it into a
# request themselves, and mlhfc resolves through routing.HierarchicalRouter
# over an hfc.Topology of groups rather than keeping a label table, a
# topological sort or a super-border election of its own (those live on as
# the oracle in internal/mlhfc/oracle_test.go).
lint-solve:
	! grep -nE 'svc\.Linear\(' $$(ls internal/overlay/*.go internal/qos/*.go | grep -v _test.go)
	! grep -nE 'labels|indeg|ClosestPairIndexed|superBorder' $$(ls internal/mlhfc/*.go | grep -v _test.go)

# lint-border keeps "which pair joins clusters a and b" answered in one place:
# hfc elects it (Build, and Dynamic over the live membership) and publishes it
# as a DenseTables; nothing outside internal/hfc reads a Borders map or runs
# a closest-pair election of its own (internal/geo only defines the
# primitive). Nowhere, internal/hfc included, does a second copy of the table
# come back: no map of border pairs beside it, and no coordinate hand-off
# hook beside its Pts.
lint-border:
	! grep -nE '\.Borders\[|[cC]losestPair(Indexed)?\(' $$(git ls-files '*.go' | grep -v -e _test.go -e '^vendor/' -e '^internal/hfc/' -e '^internal/geo/')
	! grep -nE 'map\[\[2\]int\]BorderPair|ResolveCoord' $$(git ls-files '*.go' | grep -v -e _test.go -e '^vendor/')

# lint-tables keeps the §4 tables in one representation: SCT_P and SCT_C are
# slices indexed by member rank and cluster id (internal/state), and nothing
# outside tests holds capability sets in an int-keyed map beside them.
lint-tables:
	! grep -rnF 'map[int]svc.CapabilitySet' --include='*.go' internal cmd examples | grep -v _test.go

# lint-lkg keeps routes in one store: routing.RouteCache holds an entry as a
# hit while it is fresh and as the last-known-good answer once it is stale,
# and nothing outside internal/routing keeps a second map of known-good
# routes, with a lock of its own, beside it.
lint-lkg:
	! grep -nE 'knownGood|storeLKG|lkgMu' $$(git ls-files '*.go' | grep -v -e _test.go -e '^vendor/' -e '^internal/routing/')

# lint-resolve keeps one in-process resolver over converged state:
# serve.Engine assembles a destination's router (routerLocked), core.Framework
# answers through its engine, and the Fig. 7 artifacts come from
# Engine.ResolveExplain. No non-test file brings back RouteDetailed or the
# one-call RouteHierarchical, and a HierarchicalRouter literal appears only
# where the parts differ: the engine, the overlay's live proxy (RPC solver),
# the QoS router (admission hooks) and mlhfc's group tier.
lint-resolve:
	! grep -nE 'RouteDetailed|RouteHierarchical\(' $$(git ls-files '*.go' | grep -v -e _test.go -e '^vendor/')
	! grep -nF 'HierarchicalRouter{' $$(git ls-files '*.go' | grep -v -e _test.go -e '^vendor/' -e '^bench/' -e '^internal/routing/' \
		-e '^internal/serve/engine.go$$' -e '^internal/overlay/overlay.go$$' -e '^internal/qos/router.go$$' -e '^internal/mlhfc/routing.go$$')
	! grep -nE 'NewLazyIndexes|HierarchicalRouter' internal/core/*.go

# lint-distribute keeps a capability update costing its cluster: the serving
# engine re-converges through state.Update (one cluster, copy-on-write), and
# the O(n) state.Distribute is called by whoever builds an engine's first
# states, never by a non-test file of internal/serve.
lint-distribute:
	! grep -n 'state\.Distribute(' $$(ls internal/serve/*.go | grep -v _test.go)

# lint-aggregate keeps §4's aggregate written once: a cluster's aggregate is
# the union of its members' sets, taken in state.convergeCluster for the
# converged model and, everywhere else (mlhfc's groups one level up, a live
# proxy into its own SCT_C slot), through svc.Union. No non-test file outside
# internal/svc and internal/state unions members with a loop of its own, and
# no proxy keeps a second copy of its aggregate beside SCT_C.
lint-aggregate:
	! grep -nF 'UnionInto(' $$(git ls-files '*.go' | grep -v -e _test.go -e '^vendor/' -e '^internal/svc/' -e '^internal/state/')
	! grep -nE 'aggCache|aggDirty' internal/overlay/*.go

# vet is the machine-readable variant: the registered-analyzer roster
# followed by the full suite with -json diagnostics (one JSON object per
# package, keyed by analyzer), for tooling that consumes findings.
vet:
	$(GO) run ./cmd/hfcvet -list
	$(GO) run ./cmd/hfcvet -json ./...

# bench runs the BenchmarkGate* regression gates and snapshots ns/op; CI
# compares a fresh snapshot against the newest committed BENCH_*.json and
# fails on >20% regressions.
bench:
	$(GO) run ./cmd/benchgate -write $(BENCH_OUT)

# bench-compare gates the working tree against the newest committed
# snapshot without overwriting it.
bench-compare:
	$(GO) run ./cmd/benchgate -write /tmp/bench-current.json
	$(GO) run ./cmd/benchgate -compare "$$(ls BENCH_*.json | sort -V | tail -1),/tmp/bench-current.json"

# bench-full runs the whole paper-reproduction benchmark suite.
bench-full:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-scale is the large-n construction smoke: one n=32k overlay built
# end-to-end through the geometric engine (no dense matrix) under a
# wall-clock budget. See DESIGN.md "The geometric engine".
bench-scale:
	HFC_BENCH_SCALE=1 $(GO) test -run TestScaleSmoke -v ./internal/experiments/

# chaos runs the partition→heal drill and its relatives under the race
# detector — the fault-injection acceptance suite CI's chaos job runs.
chaos:
	$(GO) test -race -run 'TestPartitionHealDrill|TestScheduledChaosAlwaysReconverges|TestRunnerTraceDeterminism' -count 2 ./internal/chaos/
	$(GO) test -race -run 'TestGrayNodeQuarantineAndRelease|TestDegradedRouteFallback' ./internal/overlay/
	$(GO) test -race -run 'TestEngineDegraded|TestEngineExcludesUnavailableProvider' ./internal/serve/

# sim runs the virtual-time determinism suite (golden traces and
# driver parity included) plus the 32k convergence drill under the race
# detector, then — without it, because they count heap objects — the
# delayed-delivery allocation and give-back pins (events, batches, the event
# driver's in-flight store) and the table footprint and zero-allocation pins,
# then smokes the end-to-end benchmark's overlay workload — CI's sim job. The 100k acceptance drill runs nightly
# (see nightly).
sim:
	$(GO) test -race -run 'TestSimulateDeterministic|TestSimulateGolden|TestSimModeMatchesRealMode|TestSentPayloadIsNotMutated|TestFloodMatchesPerMessagePosts|TestNetsimLatencyUnderVirtualTime' -count 2 ./internal/overlay/
	$(GO) test -race -run 'TestRunnerDeterministicUnderVirtualTime' -count 2 ./internal/chaos/
	$(GO) test -race -run 'TestSimScaleConvergence' -timeout 30m ./internal/experiments/
	$(GO) test -run 'AllocsPerRun|TestSimDriverInFlightStore|TestEventQueueGivesBack|TestEventStays40Bytes|TestNodeTablesFootprint|TestStateRoundAllocatesNoTableMemory' ./internal/vtime/ ./internal/overlay/
	$(GO) run ./bench -workload protocol-sim -seconds 1

# nightly is what CI's scheduled job runs — the checks too expensive for every
# push: the 100k-node convergence drill, then ten minutes of fuzzing for each
# committed fuzz target (go test -fuzz takes one package and one target at a
# time).
FUZZ_TARGETS = cluster:FuzzZahnCluster cluster:FuzzClusterDeterminism \
	svc:FuzzServiceGraphParse svc:FuzzGraphFrontMatter \
	routing:FuzzFindPathScratch geo:FuzzGeoIndex graph:FuzzCSRDijkstra \
	chaos:FuzzChaosSchedule vtime:FuzzVTimeSchedule routing:FuzzRouteScratch \
	serve:FuzzOpSequence
nightly:
	HFC_SIM_SCALE=1 $(GO) test -run 'TestSimConverge100k' -timeout 30m ./internal/experiments/
	for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime 10m ./internal/$${t%%:*}/ || exit 1; \
	done

fmt:
	gofmt -l -w $$(git ls-files '*.go' | grep -v '^vendor/')
