GO ?= go

.PHONY: build test check check-ctx check-memo vet race bench bench-json bench-diff bench-smoke batch-smoke obs-smoke serve-smoke resume-smoke coord-smoke fuzz experiments netgen netgen-check perfbench-check

# Benchmark snapshot recorded for this PR (see EXPERIMENTS.md).
BENCH_JSON ?= BENCH_PR10.json

# Baseline the guarded (SWAR kernel) benchmarks are diffed against by
# bench-diff. Only meaningful on the machine that recorded it.
BENCH_BASE ?= BENCH_PR9.json

# The benchmarks bench-diff/bench-smoke re-run: the guarded SWAR 0-1
# kernels, the daemon's end-to-end request legs, the durable
# optimum-search paths — spill table and checkpoint/resume — and the
# vertical batch sorting entry points and raw columnar kernels (see
# cmd/benchjson defaultGuard).
BENCH_GUARDED = ZeroOneScalarVsBits|HalverEpsilon|GeneratedSort|SortDispatch|BenchmarkServe|MemoSpill|OptimalResume|SortBatch|BatchKernel

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 5m ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -short -timeout 5m ./...

# check is the full gate: static analysis, the race detector in short
# mode, and the tier-1 build+test pass.
check: vet race build test

# check-ctx stresses the cancellation and durability paths: the
# ctx-aware par/core/sortcheck/halver entry points, the CLI -timeout
# flows, and the kill/resume + spill + coordinator machinery (SIGKILL
# mid-frontier is the adversarial interleaving those paths must
# survive), under the race detector, twice (cancellation is inherently
# racy — a second run shifts the interleavings).
check-ctx:
	$(GO) test -race -count=2 -timeout 10m -run 'Ctx|Cancel|Canceled|Timeout|Resume|Spill|Coord' \
		./internal/par ./internal/core ./internal/sortcheck ./internal/halver ./internal/coord .

# perfbench-check compiles, vets and short-tests the end-to-end
# benchmark against this tree. perfbench/ is its own module, so
# ./... from the root never reaches it: without this gate a change to
# an internal API it calls would pass every other check and break only
# when the benchmark runs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short -count=1 ./...

# check-memo is the memo-differential gate: the optimum search with
# the transposition table on, off, shared between searches, and under
# constant eviction must be byte-identical to the exhaustive oracle at
# every worker count. Run under the race detector, twice — worker
# scheduling is the racy input that could corrupt the table.
check-memo:
	$(GO) test -race -count=2 -timeout 10m \
		-run 'OptimalMemo|OptimalNoncollidingWorkersDeterministic|MemoTable|Canon' \
		./internal/core

bench:
	$(GO) test -run XXX -bench . -benchmem .

# bench-json records the full suite (plus the obs hot-path and serve
# end-to-end benchmarks) as machine-readable JSON via cmd/benchjson.
bench-json:
	{ $(GO) test -run XXX -bench . -benchmem . ; \
	  $(GO) test -run XXX -bench . -benchmem ./internal/obs/ ; \
	  $(GO) test -run XXX -bench . -benchmem ./internal/serve/ ; } \
	| $(GO) run ./cmd/benchjson -o $(BENCH_JSON)
	@echo wrote $(BENCH_JSON)

# bench-diff re-runs the guarded benchmarks and fails if any regressed
# more than 15% against the committed baseline (BENCH_BASE). ns/op only
# compares within one machine — run it on the box that recorded the
# baseline.
bench-diff:
	{ $(GO) test -run XXX -bench '$(BENCH_GUARDED)' -benchmem . ; \
	  $(GO) test -run XXX -bench '$(BENCH_GUARDED)' -benchmem ./internal/serve/ ; } \
		| $(GO) run ./cmd/benchjson -o /tmp/bench_head.json
	$(GO) run ./cmd/benchjson -diff $(BENCH_BASE) /tmp/bench_head.json

# bench-smoke exercises the same gate machine-independently: two fresh
# short runs of the guarded benchmarks on the same machine, diffed with
# a lax threshold. Catches gross regressions and keeps the bench + diff
# tooling honest in CI, where comparing against a snapshot recorded on
# different hardware would be meaningless.
bench-smoke:
	{ $(GO) test -run XXX -bench '$(BENCH_GUARDED)' -benchtime 0.3s . ; \
	  $(GO) test -run XXX -bench '$(BENCH_GUARDED)' -benchtime 0.3s ./internal/serve/ ; } \
		| $(GO) run ./cmd/benchjson -o /tmp/bench_smoke_a.json
	{ $(GO) test -run XXX -bench '$(BENCH_GUARDED)' -benchtime 0.3s . ; \
	  $(GO) test -run XXX -bench '$(BENCH_GUARDED)' -benchtime 0.3s ./internal/serve/ ; } \
		| $(GO) run ./cmd/benchjson -o /tmp/bench_smoke_b.json
	$(GO) run ./cmd/benchjson -diff -threshold 0.5 /tmp/bench_smoke_a.json /tmp/bench_smoke_b.json

# batch-smoke exercises the vertical batch sorting surface under the
# race detector: the exhaustive 0-1 verification of every committed
# batch kernel (both the pure-Go and, where the CPU supports it, the
# AVX-512 implementations), the differential tests against slices.Sort
# (the []string abbreviated-key paths included), the float64
# bit-multiset check, the shape-panic contract, and the fuzz seed
# corpus. The SIMD kernels and the pooled transpose scratch are the
# assembly/unsafe surface; -race plus the go/simd subtest split is the
# cheapest way to keep both honest in CI. The simd subtests skip when
# sortkernels.BatchSIMDAvailable() is false, so the last line reports
# how many ran: a runner without AVX-512 tests only the Go kernels.
batch-smoke:
	$(GO) test -race -count=1 -timeout 5m -v \
		-run 'TestBatch|TestSortBatch|TestSortStrings|TestSortDispatchZeroAlloc|FuzzSortBatch' . \
		> /tmp/batch_smoke.out || { cat /tmp/batch_smoke.out; exit 1; }
	@echo "batch-smoke: ok; AVX-512 kernels ran in $$(grep -c -- '--- PASS: .*/simd' /tmp/batch_smoke.out) simd subtests," \
		"$$(grep -c -- '--- SKIP: .*/simd' /tmp/batch_smoke.out) skipped for lack of AVX-512"

# obs-smoke drives the live-telemetry path end to end: a short adversary
# optimum search with -progress and -journal, then cmd/obsreport over
# the journal, which must parse every line and find at least one
# heartbeat record. Exercises the sampler, the journal sink, and the
# report parser against each other.
obs-smoke:
	rm -f /tmp/obs_smoke.jsonl
	$(GO) run ./cmd/adversary -optimal -n 16 -blocks 2 -topology random -seed 3 \
		-progress -progress-interval 100ms -journal /tmp/obs_smoke.jsonl 2>/dev/null
	$(GO) run ./cmd/obsreport -require-heartbeats /tmp/obs_smoke.jsonl

# serve-smoke drives the daemon end to end: start shufflenetd with a
# per-request journal, fire a short loadgen burst across every endpoint
# (loadgen itself fails on any non-200), SIGTERM the daemon, and
# require a clean drain (exit 0) plus both per-request records and the
# final run entry in the journal.
serve-smoke:
	rm -f /tmp/serve_smoke.jsonl
	$(GO) build -o /tmp/shufflenetd ./cmd/shufflenetd
	$(GO) build -o /tmp/loadgen ./cmd/loadgen
	/tmp/shufflenetd -addr 127.0.0.1:18451 -journal /tmp/serve_smoke.jsonl & \
	pid=$$!; \
	/tmp/loadgen -addr http://127.0.0.1:18451 -duration 3s -concurrency 4 \
		-max-errors 0 -json || { kill $$pid; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "serve-smoke: daemon exited non-zero"; exit 1; }
	grep -q '"type":"request"' /tmp/serve_smoke.jsonl
	grep -q '"cmd":"shufflenetd"' /tmp/serve_smoke.jsonl
	@echo "serve-smoke: ok ($$(grep -c '"type":"request"' /tmp/serve_smoke.jsonl) requests journaled)"

# resume-smoke drives the checkpoint/resume path end to end with real
# processes: a checkpointing optimum search writes its frontier to the
# journal, a second run resumes from it (the whole 81-prefix frontier
# is already done, so every prefix is skipped and the seeded incumbent
# carries the result), and cmd/obsreport must parse the journal and
# render the resume summary.
resume-smoke:
	rm -f /tmp/resume_smoke.jsonl
	$(GO) run ./cmd/adversary -optimal -n 16 -blocks 2 -topology random -seed 3 \
		-journal /tmp/resume_smoke.jsonl
	$(GO) run ./cmd/adversary -optimal -n 16 -blocks 2 -topology random -seed 3 \
		-journal /tmp/resume_smoke.jsonl -resume /tmp/resume_smoke.jsonl \
		> /tmp/resume_smoke_out.txt
	grep -q '81/81 prefixes skipped' /tmp/resume_smoke_out.txt
	$(GO) run ./cmd/obsreport /tmp/resume_smoke.jsonl > /tmp/resume_smoke_report.txt
	grep -q 'resumed from seq' /tmp/resume_smoke_report.txt
	@echo "resume-smoke: ok"

# coord-smoke drives the distributed search end to end: an optcoord
# coordinator serves a random circuit, one adversary worker process
# joins over HTTP, works the leased frontier chunks, and the
# coordinator must verify the merged witness against the circuit.
coord-smoke:
	$(GO) build -o /tmp/optcoord ./cmd/optcoord
	$(GO) build -o /tmp/sn_adversary ./cmd/adversary
	$(GO) run ./cmd/snet -net random -n 16 -depth 8 -seed 3 -op text > /tmp/coord_smoke_net.txt
	/tmp/optcoord -file /tmp/coord_smoke_net.txt -addr 127.0.0.1:18452 -linger 2s \
		> /tmp/coord_smoke_out.txt & \
	pid=$$!; \
	sleep 1; \
	/tmp/sn_adversary -optimal -coord http://127.0.0.1:18452 || { kill $$pid; exit 1; }; \
	wait $$pid || { echo "coord-smoke: coordinator exited non-zero"; exit 1; }
	grep -q 'witness verified against the circuit' /tmp/coord_smoke_out.txt
	@echo "coord-smoke: ok"

# Short fuzz pass over the parsers / compiled-kernel round trip, the
# Sort dispatcher vs slices.Sort differential, and the batch façades
# (numeric and []string lanes) vs slices.Sort.
fuzz:
	$(GO) test ./internal/network/ -run FuzzCompileEval -fuzz FuzzCompileEval -fuzztime 20s
	$(GO) test . -run FuzzSortT -fuzz FuzzSortT -fuzztime 20s
	$(GO) test . -run FuzzSortBatch -fuzz FuzzSortBatch -fuzztime 20s

experiments:
	$(GO) run ./cmd/experiments

# netgen regenerates the committed sortkernels/ package from the
# curated depth-optimal networks.
netgen:
	$(GO) run ./cmd/netgen -preset sortkernels -out sortkernels

# netgen-check is the drift gate: regenerate into a scratch directory
# and require byte-identity with the committed sortkernels/. Fails when
# someone edits the generated files by hand or changes the generator
# (or the curated networks) without re-running make netgen.
netgen-check:
	tmp=$$(mktemp -d) && 	$(GO) run ./cmd/netgen -preset sortkernels -out $$tmp && 	diff -r sortkernels $$tmp && 	rm -rf $$tmp && echo netgen-check: sortkernels/ is in sync
