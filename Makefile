# Development targets. `make check` is the expanded tier-1 gate
# (see ROADMAP.md): build + vet + formatting + race-enabled tests.
# `make smoke` drives every CLI mode and example once.

GO ?= go

# Tight test timeouts: a reintroduced wedge (a Wait that never returns)
# should fail the suite in minutes, not hang CI until the runner's
# global kill. The robustness tests themselves complete in seconds.
TEST_TIMEOUT ?= 180s
RACE_TIMEOUT ?= 300s

.PHONY: build vet fmt test race suites check smoke

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
	$(GO) test -race -count=1 -timeout $(RACE_TIMEOUT) ./...

check: build vet fmt race suites

# race has already run every suite once; this only lists them, so a
# path filter, build-tag mistake or rename that silently drops one
# fails loudly without a second race pass. Each entry is
# package:patterns; each pattern is an extended regexp anchored at the
# start of a test name and must match at least one test of the
# package. Listed: the fault-injection matrix, the streaming
# change-point and straggler detectors, the phase probes and drift
# scoreboard, the hierarchical barrier and its group-size search, the
# fabric, the elastic phaser, team and fabric groups, the one stall
# detector (liveness counts, dedup and poller) behind every watchdog,
# the golden Prometheus exposition of every obs writer, every
# (handler, format) pair of the obs endpoints, the simulator kernel's
# goroutine-leak check, the wait-policy names and their parsing, and
# the regime-default wait policy (per constructor, explicit override,
# yield-first counts, bounded waits) with barrierbench's report of it.
suites:
	@set -f; for s in \
		barrier:TestPhase[^r],TestHier,TestPhaser,TestRegimeDefault,TestWaitPolicy \
		obs:TestStream,TestTimeline,TestRenderTimeline,TestPhase,TestDrift,TestBucketOf,TestInstrumentPhases,TestElastic,TestExpositionGolden,TestHandlerFormats \
		cmd/barrierbench:TestStream,TestWaitPolicyResolved \
		model:TestHier \
		hostlat:TestCachedMemoizes \
		tune:TestSearchHierGroupSizes,TestMeasureHierGroupSizes \
		sim:TestPhaser,TestRunLeavesNoGoroutine \
		omp:TestElastic \
		fabric:TestFabric,TestElastic,TestSweep \
		internal/faultinject:Test.*Matrix,TestFabric,TestPhaser \
		internal/pad:Test \
		internal/liveness:Test; \
	do \
		pkg=$${s%%:*}; names=$$($(GO) test -list . ./$$pkg/) || exit 1; \
		for re in $$(echo "$${s#*:}" | tr , ' '); do \
			echo "$$names" | grep -Eq "^$$re" || \
				{ echo "suites: no test matching ^$$re in ./$$pkg/"; exit 1; }; \
		done; \
	done

# One quick pass over every barrierbench mode and example server, after
# the reproduction gate (barriersim's default run must reproduce
# results/experiments.txt byte for byte): one run per wait policy, the fused allreduce, an injected stall the
# watchdog must report, the windowed stream, the phase probes with the
# model-drift scoreboard, a 1024-participant spinpark round of the
# two-level barrier (the oversubscribed regime it exists for), then one
# -once burst of the observed example (timeline and scoreboard) and of
# the fabric server (its /debug/fabric snapshot).
smoke:
	@{ $(GO) run ./cmd/barriersim || echo "barriersim exited $$?"; } | \
		diff -u results/experiments.txt - && \
		echo "== barriersim output matches results/experiments.txt =="
	@for w in default spin spinyield spinpark; do \
		echo "== wait=$$w =="; \
		$(GO) run ./cmd/barrierbench -algos optimized -threads 4 \
			-episodes 200 -repeats 2 -wait $$w || exit 1; \
	done
	$(GO) run ./cmd/barrierbench -collective allreduce -algos optimized \
		-threads 4 -episodes 200 -repeats 2
	$(GO) run ./cmd/barrierbench -fault '2@5:stall' -faultdeadline 50ms \
		-algos central,optimized -threads 4 -episodes 20
	$(GO) run ./cmd/barrierbench -stream -streamwindow 20ms \
		-algos optimized -threads 4 -episodes 2000 -repeats 1
	$(GO) run ./cmd/barrierbench -phases \
		-algos optimized -threads 4 -episodes 2000 -repeats 1
	$(GO) run ./cmd/barrierbench -algos hier,dtour -plist 1024 \
		-episodes 50 -repeats 1 -wait spinpark
	@out=$$($(GO) run ./examples/observed -once) && \
		echo "$$out" | sed -n '/^timeline /,$$p'
	@out=$$($(GO) run ./examples/fabricserver -once) && \
		echo "$$out" | tail -n 20
