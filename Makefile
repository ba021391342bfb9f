# Development targets. `make check` is the expanded tier-1 gate
# (see ROADMAP.md): build + vet + formatting + race-enabled tests.

GO ?= go

# Tight test timeouts: a reintroduced wedge (a Wait that never returns)
# should fail the suite in minutes, not hang CI until the runner's
# global kill. The robustness tests themselves complete in seconds.
TEST_TIMEOUT ?= 180s
RACE_TIMEOUT ?= 300s

.PHONY: build vet fmt test race check bench-smoke fault-smoke timeline-smoke phases-smoke hier-smoke fabric-smoke elastic-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./...

# The fault-injection matrix (every algorithm x wait policy with an
# injected straggler) lives in ./internal/faultinject; race already
# covers it via ./..., but run it by name so a path filter or build-tag
# mistake that silently drops the package fails loudly. The streaming
# telemetry detectors (regime shift, change point, straggler
# persistence) run by name for the same reason.
check: build vet fmt race
	$(GO) test -race -timeout $(RACE_TIMEOUT) -count=1 ./internal/faultinject/
	$(GO) test -race -timeout $(RACE_TIMEOUT) -count=1 \
		-run 'TestStream|TestTimeline|TestRenderTimeline' ./obs/ ./cmd/barrierbench/
	$(GO) test -race -timeout $(RACE_TIMEOUT) -count=1 \
		-run 'TestPhase|TestDrift|TestBucketOf|TestInstrumentPhases' ./barrier/ ./obs/
	$(GO) test -race -timeout $(RACE_TIMEOUT) -count=1 \
		-run 'TestHier|TestCachedMemoizes|TestSearchHierGroupSizes|TestMeasureHierGroupSizes' \
		./barrier/ ./model/ ./hostlat/ ./tune/
	$(GO) test -race -timeout $(RACE_TIMEOUT) -count=1 \
		./fabric/ ./internal/pad/
	$(GO) test -race -timeout $(RACE_TIMEOUT) -count=1 \
		-run 'TestFabric|TestDiffFabric' ./internal/faultinject/ ./cmd/benchdiff/
	$(GO) test -race -timeout $(RACE_TIMEOUT) -count=1 \
		-run 'TestPhaser|TestElastic|TestSweep|TestDiffElastic' \
		./barrier/ ./sim/ ./omp/ ./fabric/ ./obs/ \
		./internal/faultinject/ ./cmd/benchdiff/

# One quick barrierbench run per wait policy: exercises every wait
# discipline end to end (flag parsing through measurement) without the
# cost of a full sweep. The final run covers the fused-collective mode
# (fused allreduce vs two-episode reduction).
bench-smoke:
	@for w in spin spinyield spinpark adaptive; do \
		echo "== wait=$$w =="; \
		$(GO) run ./cmd/barrierbench -algos optimized -threads 4 \
			-episodes 200 -repeats 2 -wait $$w || exit 1; \
	done
	@echo "== collective allreduce =="
	@$(GO) run ./cmd/barrierbench -collective allreduce -algos optimized \
		-threads 4 -episodes 200 -repeats 2

# End-to-end robustness smoke: inject a stall mid-run and check the
# watchdog/timeout machinery reports it instead of hanging. Exercises
# fault parsing, watchdog attribution, and bounded waits through the
# CLI in one shot.
fault-smoke:
	$(GO) run ./cmd/barrierbench -fault '2@5:stall' -faultdeadline 50ms \
		-algos central,optimized -threads 4 -episodes 20

# Streaming telemetry smoke: one barrierbench run with the windowed
# stream attached (sparkline timeline on stdout) and one -once pass of
# the observed example, which flushes a window and renders the same
# timeline the /debug/timeline endpoint serves.
timeline-smoke:
	$(GO) run ./cmd/barrierbench -stream -streamwindow 20ms \
		-algos optimized -threads 4 -episodes 2000 -repeats 1
	$(GO) run ./examples/observed -once | tail -n 12

# Hierarchical barrier smoke: the dedicated two-level suite under the
# race detector at small P (group lines, representative tree, auto
# group size, targeted parked-representative wake), then one plain
# 1024-participant spinpark round through the CLI — the oversubscribed
# regime the two-level design exists for, cheap because a single
# measurement point is ~a second even at 1024 goroutines.
hier-smoke:
	$(GO) test -race -timeout $(RACE_TIMEOUT) -count=1 \
		-run 'TestHier|TestSearchHierGroupSizes|TestMeasureHierGroupSizes' \
		./barrier/ ./model/ ./tune/
	$(GO) run ./cmd/barrierbench -algos hier,dtour -plist 1024 \
		-episodes 50 -repeats 1 -wait spinpark

# Barrier fabric smoke: one quick joins/sec sweep through the CLI,
# then one -once pass of the fabric server example, which drives a
# burst of rounds and dumps the /debug/fabric snapshot. Exercises group registry, async arrivals, batched wake-ups
# and the sampled rollups end to end without the cost of the full
# acceptance sweep.
fabric-smoke:
	$(GO) run ./cmd/barrierbench -fabric -fabricgroups 16 -fabricp 4 \
		-fabricepisodes 20
	$(GO) run ./examples/fabricserver -once | tail -n 20

# Elastic membership smoke: the phaser/fabric elastic suites under the
# race detector (dynamic register/deregister, the sweep/arrive race
# regression, membership-aware wedge attribution), then one quick
# churn sweep through the CLI so the phaser-vs-central ratio line
# prints. Episodes are sized so the 1000/s churner lands cycles inside
# the timed window without the cost of the BENCH_pr10 acceptance sweep.
elastic-smoke:
	$(GO) test -race -timeout $(RACE_TIMEOUT) -count=1 \
		-run 'TestPhaser|TestElastic|TestSweep' \
		./barrier/ ./sim/ ./omp/ ./fabric/ ./obs/ ./internal/faultinject/
	$(GO) run ./cmd/barrierbench -elastic -threads 2,4 -churn 0,1000 \
		-episodes 5000

# Phase-resolved telemetry smoke: one barrierbench run with the phase
# probes armed (per-level tables plus the model-drift scoreboard on
# stdout) and one -once pass of the observed example, whose tail
# includes the drift scoreboard the /debug/phases endpoint serves.
phases-smoke:
	$(GO) run ./cmd/barrierbench -phases \
		-algos optimized -threads 4 -episodes 2000 -repeats 1
	$(GO) run ./examples/observed -once | tail -n 20
