GO ?= go
FUZZTIME ?= 30s

# Per-package statement-coverage floors enforced by `make cover`.
COVER_FLOOR_core  = 70
COVER_FLOOR_serve = 70

.PHONY: build test check check-race race vet fmt bench fuzz cover chaos flight shard replica failover

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -shuffle=on ./internal/...

# check-race runs the whole module under the race detector, including
# the root-package serving stress test (concurrent readers vs the
# single-writer ingest loop).
check-race:
	$(GO) test -race ./...

# fmt fails (listing the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# check is the pre-merge gate: formatting, static analysis, a full
# build, and the internal packages under the race detector (the engine
# is internally parallel; races there are correctness bugs, not style).
check: fmt vet build race
	@echo "check: OK"

# bench compiles and runs every benchmark once (the root package's and
# internal/graph's), so a benchmark that no longer builds or panics fails
# CI. Numbers come from `go run ./bench`, not from here.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ . ./internal/graph/

# The five per-feature suites below (chaos, shard, flight, replica,
# failover) all take SUITE_FLAGS; CI passes SUITE_FLAGS=-short to shrink
# the soaks and streams.

# chaos runs the self-healing soak under the race detector: hundreds of
# randomized batches through a durable server while fsync failures, torn
# writes and scripted poison batches fire underneath, asserting the
# server ends Healthy, quarantines exactly the poisons, and matches a
# from-scratch run on the surviving stream.
chaos:
	$(GO) test -race -run TestChaosSoak -v $(SUITE_FLAGS) .

# shard runs the sharded-serving suite under the race detector: the
# differential equivalence harness (2- and 4-shard servers over 100+
# randomized partition-closed batches, PageRank and SSSP, checked
# against from-scratch runs at every Sync), the sharded durable soak
# (fsync failures confined to one shard's journal, server-wide degraded
# mode, replay without double-apply, restart equivalence), the serving
# contract suite at widths 1 and 2, and the fan-out applier's unit
# tests.
shard:
	$(GO) test -race -run 'TestShardEquivalence|TestShardSoak|TestServingContract' -v $(SUITE_FLAGS) .
	$(GO) test -race ./internal/partition/

# flight runs the flight-recorder smoke under the race detector: the
# end-to-end acceptance test (deterministic coalescing, a scripted fsync
# failure forcing a Degraded dump, /debug/flight filtered by trace), the
# trace-merge property test (every accepted submission's trace ID lands
# in exactly one applied trace set, at coalescing caps from 1 to
# unbounded and through quarantine), the ring torture tests twenty times over (a roomy ring and
# a two-slot ring where every write laps another; with the ring behind a
# mutex they cannot flake), and the <5% recorder apply-latency overhead
# check.
flight:
	$(GO) test -race -run TestFlightRecorder -v $(SUITE_FLAGS) .
	$(GO) test -race -run 'TestTrace' ./internal/flight/ ./internal/serve/
	$(GO) test -race -count=20 -run 'TestRing|TestSnapshotConsistent' ./internal/flight/

# replica runs the replication suite under the race detector: the
# leader/follower equivalence harness (~100 randomized batches streamed
# over a real HTTP stack, every acked generation's snapshot compared to
# the leader's), the kill/restart + seq-exact-resume e2e, the torn-
# frame/leader-outage chaos stream, and the replica package's unit,
# contract and frame-codec tests.
replica:
	$(GO) test -race -run 'TestReplica' -v $(SUITE_FLAGS) .
	$(GO) test -race $(SUITE_FLAGS) ./internal/replica/... ./internal/wal/

# failover runs the compaction-chaos e2e under the race detector: a
# leader checkpointing every 3 batches over a 5-record replication log,
# behind a proxy that partitions the stream, stalls connections
# silently, and refuses checkpoint fetches, while the durable follower
# is killed and restarted across compaction windows. Asserts the
# follower re-seeds itself from shipped checkpoints, the stall watchdog
# reclaims dead connections, and it ends Healthy, caught up, and
# generation-exact with the leader.
failover:
	$(GO) test -race -run TestFailoverCompactionChaos -v $(SUITE_FLAGS) .

# fuzz runs every fuzz target for FUZZTIME each (Go only allows one
# -fuzz pattern per invocation). The seed corpora alone run in `make
# test`; this target actually mutates.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzScan -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeBatch -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -run=^$$ -fuzz=FuzzReadSnapshot -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/replica/
	$(GO) test -run=^$$ -fuzz=FuzzCheckpointDecode -fuzztime=$(FUZZTIME) ./internal/replica/

# cover runs the full test suite with statement coverage and fails if
# any package with a COVER_FLOOR_<name> above dips under its floor. The
# summary (and GITHUB_STEP_SUMMARY, when set) gets the per-package table.
cover:
	@$(GO) test -cover ./... > cover.out 2>&1 || { cat cover.out; rm -f cover.out; exit 1; }
	@awk ' \
		/^ok/ { \
			pkg = $$2; cov = ""; \
			for (i = 1; i <= NF; i++) if ($$i == "coverage:") { cov = $$(i+1); sub(/%/, "", cov) } \
			if (cov == "") next; \
			printf "%-40s %6.1f%%\n", pkg, cov; \
			floor = 0; \
			if (pkg == "repro/internal/core")  floor = $(COVER_FLOOR_core); \
			if (pkg == "repro/internal/serve") floor = $(COVER_FLOOR_serve); \
			if (floor > 0 && cov + 0 < floor) { \
				printf "FAIL: %s coverage %.1f%% is under the %d%% floor\n", pkg, cov, floor; \
				bad = 1; \
			} \
		} \
		END { exit bad }' cover.out > cover.summary; \
	status=$$?; \
	cat cover.summary; \
	if [ -n "$$GITHUB_STEP_SUMMARY" ]; then \
		{ echo '### Coverage'; echo '```'; cat cover.summary; echo '```'; } >> "$$GITHUB_STEP_SUMMARY"; \
	fi; \
	rm -f cover.out cover.summary; \
	exit $$status
