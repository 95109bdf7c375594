GO ?= go

.PHONY: check build vet fmt-check test race chaos bench bench-alloc bench-json fuzz-smoke perfbench-check nxbench parallel trace-demo obs-demo flightrec-demo drain-demo tenants-demo

## check: the tier-1 gate — build, vet, gofmt, the full test suite under
## the race detector, the fault-injection chaos suite, the zero-alloc
## hot-path gate, the parser/decoder fuzz smoke, the host-speed
## benchmark's own build and tests, and the observability +
## flight-recorder + graceful-drain + tenant-accounting self-checks. CI
## and pre-merge runs use this target.
check: build vet fmt-check race chaos bench-alloc fuzz-smoke perfbench-check obs-demo flightrec-demo drain-demo tenants-demo

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## chaos: the fault-injection suite under the race detector — injected
## CC errors, fault/paste storms, credit leaks, engine hangs, device
## kill/revive, failover, software fallback, graceful drain (including
## the kill-mid-drain race), overload shedding, tenant-series churn and
## burn-rate evaluation, and the parallel soak.
chaos:
	$(GO) test -race -run 'Chaos|Inject|FaultStorm|EngineHang|Offline|Deadline|Cancel|CreditLeak|Backoff|Resume|Drain|Overload|Admission|Tenant|Burn' . ./internal/nx ./internal/faultinject ./internal/topology ./internal/admission ./internal/obs

## bench: regenerate the paper's tables/figures as Go benchmarks.
bench:
	$(GO) test -bench . -benchtime 1x ./...

## bench-alloc: the zero-alloc acceptance gate. The AllocsPerRun assert
## (0 allocations per steady-state pooled one-shot, compress and
## decompress — with the flight recorder both detached AND attached)
## must run without the race detector — race instrumentation
## allocates — so it runs plain here, and the batch/pooled paths run
## again under -race for the memory model.
bench-alloc:
	$(GO) test -run 'TestIntoPathAllocFree|TestOneShotMappingsStable|TestMemberGrowLoopMappingsBounded|TestFlightRecorderAllocFree' -count=1 .
	$(GO) test -race -run 'TestCompressBatch|TestCompressGzipInto|TestCompressZlibInto|TestPooledFallback|TestStreamWriterPartialWrite' -count=1 .

## bench-json: run the E18 topology sweep (aggregate GB/s vs device
## count, claim C6), the E19 chaos sweep (throughput/p99 vs injected
## fault rate), the E20 observability-overhead measurement, the E21
## batched small-request sweep, the E22 flight-recorder overhead
## measurement, the E23 codec shoot-out, the E24 overload-protection
## sweep and the E25 tenant-interference run (burn-rate paging on the
## offender's label), exporting the raw points to BENCH_*.json.
bench-json:
	$(GO) run ./cmd/nxbench -json BENCH_topology.json
	$(GO) run ./cmd/nxbench -chaos sweep -json BENCH_chaos.json
	$(GO) run ./cmd/nxbench -obs-overhead -json BENCH_obs.json
	$(GO) run ./cmd/nxbench -smallreq -json BENCH_smallreq.json
	$(GO) run ./cmd/nxbench -flightrec-overhead -json BENCH_flightrec.json
	$(GO) run ./cmd/nxbench -codecs -json BENCH_codecs.json
	$(GO) run ./cmd/nxbench -overload -json BENCH_overload.json
	$(GO) run ./cmd/nxbench -tenants -json BENCH_tenants.json

## fuzz-smoke: 30 s of coverage-guided fuzzing over each attack surface
## fed by untrusted or operator input — the DEFLATE decoders (raw
## inflate, gzip unwrap, and the resumable session against the one-shot
## inflater), the block decoders (LZ4 block decode, 842 decode), the
## CLI-facing parsers (format names, the
## admission -key=value policy) and the Prometheus exposition round-trip
## (WriteProm output with adversarial tenant labels must always
## ParseProm back). Finds panics/OOMs in the bounds-checked decode loops
## and parser edge cases; go test -fuzz accepts one fuzz target per
## invocation, hence one run each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecompress$$' -fuzztime 30s ./internal/deflate
	$(GO) test -run '^$$' -fuzz '^FuzzGzipUnwrap$$' -fuzztime 30s ./internal/deflate
	$(GO) test -run '^$$' -fuzz '^FuzzSessionEqualsOneShot$$' -fuzztime 30s ./internal/deflate
	$(GO) test -run '^$$' -fuzz FuzzBlockDecode -fuzztime 30s ./internal/lz4
	$(GO) test -run '^$$' -fuzz FuzzDecompressRobust -fuzztime 30s ./internal/x842
	$(GO) test -run '^$$' -fuzz FuzzParseFormat -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzParseConfig -fuzztime 30s ./internal/admission
	$(GO) test -run '^$$' -fuzz FuzzPromRoundTrip -fuzztime 30s ./internal/obs

## perfbench-check: perfbench/ is a Go module of its own, so the
## repository-wide build and vet never compile it; vet and test it here
## so an internal API change cannot break the benchmark unseen.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) test -count=1 .

## obs-demo: observability self-check — run a workload behind an
## ephemeral exposition server, scrape /metrics, verify the Prometheus
## text parses and key series round-trip the snapshot, and that
## /healthz answers 200 on the healthy node.
obs-demo:
	$(GO) run ./cmd/nxbench -obs-demo

## flightrec-demo: flight-recorder self-check — recorder attached, clean
## traffic digested, a forced device outage survived through failover,
## a postmortem bundle written and fetched back over /debug/postmortems,
## and the failed request's digest + per-attempt spans + events verified
## to chain under one RequestID.
flightrec-demo:
	$(GO) run ./cmd/nxbench -flightrec-demo

## drain-demo: graceful-drain self-check — live traffic across two
## devices, one drained mid-flight: the drain must quiesce with zero
## dropped in-flight requests (dequeues == completes everywhere), the
## survivor stays byte-exact, the drain shows on the event bus, and
## Undrain restores the device to service.
drain-demo:
	$(GO) run ./cmd/nxbench -drain-demo

## tenants-demo: tenant accounting-plane self-check — two prioritised
## tenants behind an ephemeral server: /tenants carries both rows with
## quota standing, /metrics exposes the labeled latency families, every
## exemplar RequestID resolves to a flight-recorder digest, and the
## burn-rate evaluation stays quiet on the healthy node.
tenants-demo:
	$(GO) run ./cmd/nxbench -tenants-demo

## nxbench: render every experiment table (E1–E25 + ablations).
nxbench:
	$(GO) run ./cmd/nxbench

## parallel: serial-vs-parallel Writer/Reader throughput scaling.
parallel:
	$(GO) run ./cmd/nxbench -parallel

## trace-demo: record the quickstart run as Chrome trace_event JSON (the
## example parse-checks the file before reporting success) — load
## trace-demo.json in chrome://tracing or ui.perfetto.dev.
trace-demo:
	$(GO) run ./examples/quickstart -trace trace-demo.json -metrics
