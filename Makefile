GO ?= go

.PHONY: all fmt vet build test race cover bench-smoke bench-gate fuzz-smoke expt-smoke docs-check ci

all: build

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package, so hidden
# inter-test state (a leaked goroutine, a shared temp dir) surfaces in
# CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

# Race gate over every internal package: -short keeps the unit suites
# quick, and expt runs separately without it — TestChaosSoak skips
# under -short, and its exactly-once watch and strictly-increasing
# log-offset invariants drive both streams' resume loop through API
# replica crashes and RPC faults. expt's short tests are not run twice.
race:
	$(GO) test -race -short $$($(GO) list ./internal/... | grep -v /internal/expt)
	$(GO) test -race ./internal/expt/...

# Coverage artifact: a whole-repo coverprofile plus the per-function
# summary CI uploads (cover.out, cover.txt).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tee cover.txt

# Perf gate: one iteration of the Table 7 / Fig. 5 scale experiment and
# of the scheduler scale experiment, so a regression that breaks or
# grossly slows either benchmark path fails CI.
bench-smoke:
	$(GO) test -run=xxx -bench='BenchmarkTable7Figure5ScaleTest|BenchmarkSchedulerScale' -benchtime=1x .

# Benchmark correctness gate: every workload of the wall-clock benchmark
# (bench/, BENCHMARK.json) at a one-second size, judged only by its
# correctness gate — every job COMPLETED with the history its watch
# delivered, single_durable's reopen on the same DataDir included. No
# timing bound applies: CI hosts are too noisy for one.
bench-gate:
	$(GO) run ./bench -workload all -seconds 1

# Fuzz gate for the hand-rolled wire codecs: a short coverage-guided
# run of each roundtrip fuzzer (etcd command entries, RPC frames,
# commit-log segments, mongo oplog ops, learner log lines). Corrupt or
# truncated input must error, never panic; go's fuzzer allows one
# -fuzz target per invocation, hence one run each.
fuzz-smoke:
	$(GO) test -run=xxx -fuzz=FuzzCommandCodecRoundtrip -fuzztime=10s ./internal/etcd
	$(GO) test -run=xxx -fuzz=FuzzFrameCodecRoundtrip -fuzztime=10s ./internal/rpc
	$(GO) test -run=xxx -fuzz=FuzzSegmentRecordRoundtrip -fuzztime=10s ./internal/commitlog
	$(GO) test -run=xxx -fuzz=FuzzOplogOpRoundtrip -fuzztime=10s ./internal/mongo
	$(GO) test -run=xxx -fuzz=FuzzLogLineRoundtrip -fuzztime=10s ./internal/core

# Experiment smoke: every row of the experiment registry (internal/expt;
# `go run ./cmd/ffdl-bench -list` prints it) at its smoke size, each
# writing the bench-<name>.json artifact CI uploads. The gated rows —
# obs (overhead within 5%), chaos (zero invariant violations),
# commitlog (zero torture violations) — fail the target, but only after
# every row has run and written its artifact, so a red run keeps all
# the evidence.
expt-smoke:
	$(GO) run ./cmd/ffdl-bench -smoke -out .

# Docs drift gate: README.md must mention every example, and
# docs/architecture.md must cover every internal package and list every
# experiment registry row (as a "| `<name>` |" table row), and the watch
# protocol spec must exist, cover all four watch layers, and be linked
# from the architecture doc and the README. The negative list is the
# other direction: names of retired options must not linger in the docs.
docs-check:
	@test -f README.md || { echo "README.md missing"; exit 1; }
	@test -f docs/architecture.md || { echo "docs/architecture.md missing"; exit 1; }
	@test -f docs/watch-protocol.md || { echo "docs/watch-protocol.md missing"; exit 1; }
	@names=$$($(GO) run ./cmd/ffdl-bench -list | cut -f1); \
	[ -n "$$names" ] || { echo "docs-check: ffdl-bench -list printed no experiments"; exit 1; }; \
	ok=1; \
	for name in $$names; do \
		grep -qF "| \`$$name\` |" docs/architecture.md || { echo "docs/architecture.md does not list experiment '$$name'"; ok=0; }; \
	done; \
	for d in examples/*/; do \
		name=$$(basename $$d); \
		grep -q "examples/$$name" README.md || { echo "README.md does not mention examples/$$name"; ok=0; }; \
	done; \
	for d in internal/*/; do \
		pkg=$$(basename $$d); \
		grep -q "internal/$$pkg" docs/architecture.md || { echo "docs/architecture.md does not cover internal/$$pkg"; ok=0; }; \
	done; \
	for anchor in WatchStream "Store.Watch" "status bus" WatchStatus TakeDropped "change feed" EventResync Dispatcher commitlog OplogImage FollowLogs "retained floor" DataDir "survive a process restart"; do \
		grep -q "$$anchor" docs/watch-protocol.md || { echo "docs/watch-protocol.md does not cover '$$anchor'"; ok=0; }; \
	done; \
	for anchor in Durability DataDir mongo-oplog learner-logs "Recovery on open"; do \
		grep -q "$$anchor" docs/architecture.md || { echo "docs/architecture.md does not cover '$$anchor'"; ok=0; }; \
	done; \
	for anchor in Observability "subsystem.name" "/v1/metrics" "/v1/jobs/{id}/trace" DisableObs; do \
		grep -q "$$anchor" docs/architecture.md || { echo "docs/architecture.md does not cover '$$anchor'"; ok=0; }; \
	done; \
	for anchor in "watch.refills" "watch.degraded_refills"; do \
		grep -q "$$anchor" docs/watch-protocol.md || { echo "docs/watch-protocol.md does not cover '$$anchor'"; ok=0; }; \
	done; \
	for gone in UnbatchedAblation GobCodec LegacyReplication EtcdUnbatched EtcdGobCodec "Config.Admission" statusFeedLoop degradedStatus "Two feeders" deployWithRetry "LCM.Deploy" keyLearnerExit StorageBandwidth "Config.Pack" ReplayJob status-bus "watch.replays" AggregateBandwidth WatchChurn watch-churn BenchCodec RenderThroughput tp-submitters CommitLogCursor OffsetsRewriteEvery offsets.log FuzzOffsetMapDecode ReadFrom StartSecondary FreezeMTBF InitiateMultipart CompareAndSwap ForceLeader UpdateMany StreamLogs forwardWatch forwardLogs CompactRevisions Options.WatchHistory TruncateBefore LastRevision "revision→offset" cmdReader opReader frameReader durableReader maxCodecLen maxOpLen maxFrameLen maxDurableLen QueueDelays DropFeedNext FeedDropMTBF quota_events Registry.Watch; do \
		if grep -n "$$gone" README.md docs/*.md; then echo "docs still mention retired '$$gone'"; ok=0; fi; \
	done; \
	grep -q "watch-protocol.md" docs/architecture.md || { echo "docs/architecture.md does not link watch-protocol.md"; ok=0; }; \
	grep -q "watch-protocol.md" README.md || { echo "README.md does not link watch-protocol.md"; ok=0; }; \
	[ $$ok -eq 1 ] || exit 1
	@echo "docs-check: README, architecture and watch-protocol docs are complete and linked"

ci: fmt vet build test race bench-smoke bench-gate fuzz-smoke docs-check
