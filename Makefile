# Tier-1 verification and day-to-day targets. `make ci` is the one
# command the verify loop runs: build, vet, lint, the fused multiply-add
# check, tests, race tests.

GO ?= go

# Build identity, stamped into the binaries (irserver -version, the
# /stats build block, the ir_build_info metric). Harmless defaults
# ("dev"/"unknown") apply to a plain `go build`.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT  ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS := -X repro/internal/obs.Version=$(VERSION) -X repro/internal/obs.Commit=$(COMMIT)

.PHONY: all build test race vet lint check-fma loc fuzz-smoke vuln bench-smoke bench-json test-wal test-replication test-failover test-obs test-shard test-oracle check-docs ci

all: ci

# The BSD legs compile the mapped tuple storage (storage/mmap.go is
# `unix`) and the directory lock for the other platforms that take them.
# GOOS=windows does not build (wal/lock.go needs Flock).
build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...
	GOOS=freebsd $(GO) build ./...
	GOOS=openbsd $(GO) build ./...
	GOOS=netbsd $(GO) build ./...

# -short keeps the long randomized runs out of the tier-1 fast path;
# the failover explorer needs GOEXPERIMENT=synctest and runs only in
# make test-failover (and its build in make vet). bench/ is
# a module of its own (the benchmark harness, `replace repro => ../`),
# so ./... does not reach it: test and vet it explicitly, or a signature
# slip in internal/* breaks the benchmark without failing CI.
test:
	$(GO) test -short ./...
	$(GO) test -C bench -short ./...

race:
	$(GO) test -short -race ./...

# The second line vets the failover explorer, whose files build only
# with GOEXPERIMENT=synctest, so they cannot stop compiling unnoticed.
vet:
	$(GO) vet ./...
	GOEXPERIMENT=synctest $(GO) vet ./internal/replication/
	$(GO) vet -C bench ./...

# Invariant lint: the repo-specific analyzers of internal/analysis
# (lock ordering, per-query metering, sentinel-error discipline, core
# determinism, metric registration — see docs/static-analysis.md) over
# the whole tree. Any unsuppressed finding fails; `vet` above carries
# the stock suite (copylocks, lostcancel, printf, ...).
lint:
	$(GO) run ./cmd/irlint ./...

# No implicit fused multiply-add in the deterministic packages. The Go
# spec lets the compiler fuse x*y + z into one rounding, and gc does on
# arm64, ppc64le, riscv64 and loong64 (never on amd64), so a score, a
# crossing or a stopping test could differ in the last ulp from one
# architecture to the next. An explicit float64(x*y) rounds the product
# and prevents the fusion. The packages' test binaries are cross-compiled
# for those four architectures and disassembled (no emulator runs them):
# any fused instruction in a non-test function of this module fails.
FMA_ARCHS := arm64 ppc64le riscv64 loong64
FMA_PKGS  := vec geom core topk oracle stb dataset

check-fma:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for arch in $(FMA_ARCHS); do \
		for pkg in $(FMA_PKGS); do \
			GOARCH=$$arch $(GO) test -c -o "$$tmp/t" ./internal/$$pkg || exit 1; \
			$(GO) tool objdump -s '^repro/internal/' "$$tmp/t" > "$$tmp/dis" || exit 1; \
			awk -v arch=$$arch '/^TEXT / { fn = $$2; keep = $$3 !~ /_test\.go$$/; next } \
				keep && match($$0, /\tFN?M(ADD|SUB)[DS]?[ \t]/) { \
					print arch, fn, $$1, substr($$0, RSTART + 1, RLENGTH - 2) }' "$$tmp/dis" >> "$$tmp/fused"; \
		done; \
	done && \
	sort -u "$$tmp/fused" > "$$tmp/found" && \
	if [ -s "$$tmp/found" ]; then \
		cat "$$tmp/found"; \
		echo "check-fma: fused multiply-add at $$(wc -l < "$$tmp/found") places; wrap each product in float64(...)"; \
		exit 1; \
	fi && \
	echo "check-fma: no fused multiply-add on $(FMA_ARCHS)"

# Non-test Go outside bench/ and testdata/: the figure ISSUE files and
# every ROADMAP re-anchor quote.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*' -not -name '*_test.go' | xargs cat | wc -l

# 10-second native-fuzz budget per target: the WAL frame decoder, the
# crash-recovery scanner, the query validation gate, the shard route's
# imposed result, the tuple- and list-file openers with every read
# their files then serve, and the shard manifest loader. The committed
# seed corpora under testdata/fuzz replay in every plain `go test`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRecord -fuzztime=10s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzReplay -fuzztime=10s ./internal/wal
	$(GO) test -run='^$$' -fuzz=FuzzValidateQuery -fuzztime=10s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzAnalyzeImposed -fuzztime=10s ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzOpenTupleFile -fuzztime=10s ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzOpenListFile -fuzztime=10s ./internal/storage
	$(GO) test -run='^$$' -fuzz=FuzzLoadManifest -fuzztime=10s ./internal/shard

# Known-vulnerability report, never a gate: runs where the govulncheck
# binary exists and prints a skip note where it does not (the build
# container does not ship it, and the module graph pins to stdlib).
vuln:
	-@command -v govulncheck >/dev/null 2>&1 && govulncheck ./... || echo "vuln: govulncheck not installed; skipping (report-only)"

# A fast benchmark pass over the analyze path: enough to catch gross
# regressions without the full figure sweep of BenchmarkFig. The bulk-load
# layer rides along at a fixed iteration count: the generators and the
# dataset save irgen goes through (ST n = 200 000 and WSJ -scale 2, the
# bench/ harness's two datasets; KB too for the generators), the MemIndex
# build, and one whole checkpoint — a merge, not
# a save — of each of the two datasets, whose B/op is what a checkpoint
# costs in memory. So does the sharded
# round 2: the coordinator's replay at a pruned and an unpruned reply
# size, and one recorded shard reply through encode, decode and replay.
# And the miss path where it is real: never-repeated /analyze over a
# DiskIndex under an empty Overlay (what irserver -wal serves) — its
# allocs/op and B/op are what a random access and a list page read cost
# in garbage. BenchmarkColdStream is bench/'s cold-analyze workload in
# process (ST n = 200 000, two clients, 400 requests an op, a quarter of
# them φ = 2): its peak-live-MB is the live heap with the deepest query
# in flight, its scan-pages-MB the page arena at its peak (the
# candidate-table pages, the rank order and the region phases'
# per-candidate buffers, outside the heap on Linux), its rss-anon-MB the
# anonymous part of the resident set at its peak (heap and arena), and
# its rss-file-MB the file-backed part (the touched pages of the mapped
# tuple file, and the test binary): the last two are what the server's
# resident set follows; a list file mapped again shows up in the last. The two region-hit
# paths close it: a /topk served by a cached entry's containment test,
# and a write checked against 64 cached certificates (its allocs/op is
# the invalidation pass's garbage). BenchmarkBatchTopK is the measurement
# topk.Multi stands on: 16 ranked queries over one subspace, fused into
# one scan against sixteen scans of their own. BenchmarkCheckpointWriters
# has 1, 2 and 4 writers race the checkpoints they trigger: every
# rewrite should win (won-share 1) and the log stay near the threshold.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkFig/fig10|BenchmarkServerAnalyzeParallel' \
		-benchmem -benchtime=200ms .
	$(GO) test -run '^$$' -bench 'BenchmarkApplyInvalidation|BenchmarkCacheTopK' -benchmem -benchtime=200ms .
	$(GO) test -run '^$$' -bench 'BenchmarkCacheAnalyze/miss-st-disk' -benchmem -benchtime=200x .
	$(GO) test -run '^$$' -bench 'BenchmarkColdStream' -benchmem -benchtime=1x .
	$(GO) test -run '^$$' -bench 'BenchmarkBatchTopK' -benchmem -benchtime=20x .
	$(GO) test -run '^$$' -bench 'BenchmarkSaveDataset|BenchmarkBuildColumnar' -benchmem -benchtime=3x ./internal/lists/
	$(GO) test -run '^$$' -bench 'BenchmarkGenerate' -benchmem -benchtime=3x ./internal/dataset/
	$(GO) test -run '^$$' -bench 'BenchmarkCheckpoint$$' -benchmem -benchtime=3x ./internal/engine/
	$(GO) test -run '^$$' -bench 'BenchmarkCheckpointWriters' -benchtime=1x ./internal/engine/
	$(GO) test -run '^$$' -bench 'BenchmarkReplayRegions|BenchmarkShardReply' -benchmem -benchtime=20x ./internal/shard/

# The bench-smoke set, six runs of each benchmark, summarised by
# cmd/benchjson into BENCH_<PR>.json: per benchmark the median, min and
# max of ns/op, B/op, allocs/op and every custom metric, with the Go
# version, GOMAXPROCS, host and commit. The min–max range is the spread
# within one run of six; it understates the spread between runs
# (ROADMAP item 22). go test takes -count from GOFLAGS, which make
# passes on to the recipe. The raw output is left in BENCH_<PR>.txt if
# summarising fails.
bench-json:
	@test -n "$(PR)" || { echo 'usage: make bench-json PR=<n>' >&2; exit 2; }
	$(MAKE) -s --no-print-directory bench-smoke GOFLAGS=-count=6 > BENCH_$(PR).txt
	$(GO) run ./cmd/benchjson -commit '$(VERSION)' < BENCH_$(PR).txt > BENCH_$(PR).json
	rm BENCH_$(PR).txt

# Durability focus: the WAL package under -race, the crash-recovery and
# checkpoint property tests — the checkpoint's contract with the bulk
# loader (merged files byte-equal to rebuilt ones), its memory bound and
# its wait-for-me with Close among them — and a bench smoke so the fsync
# overhead of the write path stays tracked.
test-wal:
	$(GO) test -race ./internal/wal/...
	$(GO) test -race -run 'TestSaveIndexIsSaveDataset|TestSaveDatasetLeavesNoDebris' ./internal/lists/
	$(GO) test -race -run 'TestDurable|TestCheckpoint|TestCloseDuringCheckpoint|TestStatsDurable' ./internal/engine/... ./internal/server/...
	$(GO) test -run '^$$' -bench 'BenchmarkApplyWAL' -benchmem -benchtime=50ms ./internal/engine/

# Replication focus: the shipping/follower package under -race (stream,
# resume, snapshot-fallback and quorum property tests), the engine-side
# hooks, and the standby HTTP posture.
test-replication:
	$(GO) test -race ./internal/replication/...
	$(GO) test -race -run 'TestCommit|TestApplyReplicated|TestCheckpointEventSink|TestOpenDirManifestMoved' ./internal/engine/
	$(GO) test -race -run 'TestStandbyHTTP|TestNilEngine' ./internal/server/

# Failover focus: the failover explorer under -race, 200 seeded
# schedules per row in virtual time (GOEXPERIMENT=synctest; kills,
# restarts, cut links and partitions of 3- and 5-member quorum clusters
# under writes, invariants I1–I4 after every step, see
# docs/replication.md), the real-TCP smoke trials and the
# deposed-primary regression, the coordinator internals, and the
# routing client/proxy unit tests.
test-failover:
	GOEXPERIMENT=synctest $(GO) test -race -run 'TestFailoverExplorer' -timeout 30m ./internal/replication/ -explorer.schedules=200
	$(GO) test -race -run 'TestClusterFailover|TestDeposedPrimary|TestFailoverChaos' ./internal/replication/
	$(GO) test -race -run 'TestBackoffJitter|TestHeartbeatAge|TestQuorumPartitioned|TestHandshakeFences' ./internal/replication/
	$(GO) test -race -run 'TestFence|TestAdvanceEpoch|TestAdoptEpoch' ./internal/engine/
	$(GO) test -race ./internal/client/

# Observability focus: the obs package (registry, exposition, request
# IDs, slow log) under -race plus the server-side conformance and
# propagation suites.
test-obs:
	$(GO) test -race ./internal/obs/...
	$(GO) test -race -run 'TestProxy|TestStatsBuild|TestMetrics|TestRequestID|TestSlowlog' ./internal/server/ ./internal/client/

# Sharding focus: the scatter-gather coordinator suite — bit-identity
# to a single node across shard counts 1/2/4/8 with mutations, the
# region-certificate property, one retry loop and one live attempt per
# shard RPC within one time budget, a stalled write that ends with its
# client, the shard-killed fault-injection e2e, and the
# dialect-parity test (the coordinator front answers like a single node
# because it is internal/server) — all under -race.
test-shard:
	$(GO) test -race -count=1 ./internal/shard/

# Exact-oracle focus: TestMethodsMatchOracle at full scale — 100 000
# general-position and 100 000 tie-heavy instances (grids, duplicates),
# each held to internal/oracle's exact answer for every method, φ 0–2,
# composition on and off. The two rows run in parallel; a plain `go test`
# draws 150 instances per row. About 6 minutes on 2 CPUs.
test-oracle:
	ORACLE_INSTANCES=100000 $(GO) test -count=1 -run 'TestMethodsMatchOracle' -v -timeout 30m ./internal/core/

# Docs drift check: markdown cross-references must resolve, every flag
# the docs mention must exist in the binaries, the analyzer, metric
# and figure tables must list exactly what the code registers, and the
# file-format versions the docs name (IRTUP003, ...) must include the
# current one and none newer.
check-docs:
	$(GO) run ./cmd/docscheck

ci: build vet lint check-fma test race
