GO ?= go

.PHONY: all fmt vet build test race cover bench-gate fuzz-smoke expt-smoke docs-check deadsurface ci

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
# The etcd proposal tests that cross a failover, a lost quorum or a
# seeded fault schedule run three times more, so an interleaving bug in
# the batch loop's re-proposal and timeout paths cannot pass on one
# lucky run. So do the learner-log tests of a follow joining between two
# records and of line collection independent of wake timing, since a
# line reaches the fan-out only while a follow listens. The file store
# holds its active segment's descriptor under a mutex that the log's
# appends, compaction and Close all take, so its tests and the DataDir
# stop/reopen test run three times too. The tenant dispatcher keeps no
# ticker, so a failed store read, write or LCM call is recovered only by
# its one-shot retry and a closed status subscription only by the resync
# that answers it: those fault tests, the resync that restores a running
# job's footprint after a reopen, the terminal note racing a resync, and
# the LCM-failover preemption that needs the halt re-issued, run three
# times as well. So do the trace read that follows a terminal status and
# the teardown reads that follow a completion, since each races a write
# landing just behind the status a watch delivered.
race:
	$(GO) test -race -short $$($(GO) list ./internal/... | grep -v /internal/expt)
	$(GO) test -race ./internal/expt/...
	$(GO) test -race -count=3 -run 'TestBatchedProposalsSurviveLeaderFailover|TestLeaderFailoverContinuesService|TestNoQuorumTimesOutEachProposalOnce|TestExactlyOnceUnderFailoverSchedule' ./internal/etcd
	$(GO) test -race -count=3 -run 'TestFollowJoinsBetweenRecords|TestLogCollectionIgnoresWakeTiming|TestStoppedPlatformReleasesDataDir|TestClosedStatusSubscriptionResyncsDispatcher|TestFailedResumedReadRestoresFootprint|TestSkippedResumedEventRestoresFootprint|TestRunningJobKeepsFootprintAcrossReopen|TestUserResumeClearsTheMarkerOfAHaltedVictim|TestJobTraceMatchesHistory|TestSingleLearnerJobCompletes' ./internal/core
	$(GO) test -race -count=3 -run 'TestFailedQueuedReadDispatchesThroughOneRetry|TestFailedHaltIsIssuedAgain|TestFailedResumeLookupIsOwedToRetry|TestTerminalNoteRacingResyncLeavesNoFootprint|TestPreemptionWaitsForTheVictimsMarker' ./internal/tenant
	$(GO) test -race -count=3 -run 'TestPreemptionSurvivesLCMFailover' ./internal/chaos
	$(GO) test -race -count=3 -run 'TestFileStore|TestLogCloseRefusesAppends' ./internal/commitlog
	$(GO) test -race -count=3 -run 'TestReadersHoldDocsWhileWritersUpdate|TestSharedPushValueIsNotWritten' ./internal/mongo

# Coverage artifact: a whole-repo coverprofile plus the per-function
# summary CI uploads (cover.out, cover.txt).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tee cover.txt

# Benchmark correctness gate: every workload of the wall-clock benchmark
# (bench/, BENCHMARK.json) at a one-second size, judged only by its
# correctness gate — every job COMPLETED with the history its watch
# delivered, single_durable's reopen on the same DataDir included. No
# timing bound applies: CI hosts are too noisy for one.
bench-gate:
	$(GO) run ./bench -workload all -seconds 1

# Fuzz gate for the hand-rolled wire codecs and the kube owner index: a
# short coverage-guided run of each roundtrip fuzzer (etcd command
# entries, RPC frames and RPC message bodies, commit-log segments, mongo
# oplog ops, learner log lines) — corrupt or truncated input must error,
# never panic — and of
# the owner index's op-sequence fuzzer, checked against the full-scan
# oracle after every op, of BSA gang placement, checked against the
# sample-from-scratch reference for the same RNG stream, and of the etcd
# store's key index and watcher maps, checked against the linear-scan
# oracle, and of the job volume's sharing contract (every read view
# stays as it was, every watcher holds one wake-up exactly when a write
# landed since its last receive), checked against a model. go's fuzzer allows one -fuzz target per invocation, hence one
# run each. It minimizes every new interesting input before it explores
# again, for up to 60 s by default, so a 10 s run could sit at 0
# execs/s after its first finds; -fuzzminimizetime caps each
# minimization at 100 execs.
fuzz-smoke:
	$(GO) test -run=xxx -fuzz=FuzzCommandCodecRoundtrip -fuzztime=10s -fuzzminimizetime=100x ./internal/etcd
	$(GO) test -run=xxx -fuzz=FuzzFrameCodecRoundtrip -fuzztime=10s -fuzzminimizetime=100x ./internal/rpc
	$(GO) test -run=xxx -fuzz=FuzzBodyRoundtrip -fuzztime=10s -fuzzminimizetime=100x ./internal/rpc
	$(GO) test -run=xxx -fuzz=FuzzSegmentRecordRoundtrip -fuzztime=10s -fuzzminimizetime=100x ./internal/commitlog
	$(GO) test -run=xxx -fuzz=FuzzOplogOpRoundtrip -fuzztime=10s -fuzzminimizetime=100x ./internal/mongo
	$(GO) test -run=xxx -fuzz=FuzzLogLineRoundtrip -fuzztime=10s -fuzzminimizetime=100x ./internal/core
	$(GO) test -run=xxx -fuzz=FuzzOwnerIndex -fuzztime=10s -fuzzminimizetime=100x ./internal/kube
	$(GO) test -run=xxx -fuzz=FuzzBSAMatchesReference -fuzztime=10s -fuzzminimizetime=100x ./internal/sched
	$(GO) test -run=xxx -fuzz=FuzzStoreMatchesLinearScan -fuzztime=10s -fuzzminimizetime=100x ./internal/etcd
	$(GO) test -run=xxx -fuzz=FuzzVolumeReadsStayPut -fuzztime=10s -fuzzminimizetime=100x ./internal/nfs

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
# other direction: names of retired options must not linger in the docs,
# the examples' READMEs or the package doc (ffdl.go).
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
	for anchor in WatchStream "Store.Watch" "status bus" WatchStatus "change feed" Dispatcher commitlog OplogImage FollowLogs "retained floor" DataDir "survive a process restart" "Volume.Watch"; do \
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
	for gone in UnbatchedAblation GobCodec LegacyReplication EtcdUnbatched EtcdGobCodec "Config.Admission" statusFeedLoop degradedStatus "Two feeders" deployWithRetry "LCM.Deploy" keyLearnerExit StorageBandwidth "Config.Pack" ReplayJob status-bus "watch.replays" AggregateBandwidth WatchChurn watch-churn BenchCodec RenderThroughput tp-submitters CommitLogCursor OffsetsRewriteEvery offsets.log FuzzOffsetMapDecode ReadFrom StartSecondary FreezeMTBF InitiateMultipart CompareAndSwap ForceLeader UpdateMany StreamLogs forwardWatch forwardLogs CompactRevisions Options.WatchHistory TruncateBefore LastRevision "revision→offset" cmdReader opReader frameReader durableReader maxCodecLen maxOpLen maxFrameLen maxDurableLen QueueDelays DropFeedNext FeedDropMTBF quota_events Registry.Watch AppendValue Record.Value non-compacting leaseExpiryLoop opExpireLease EventExpire KeepAlive NewMountWith ChunkCache CounterValues hasLogDir jobLogForReadLocked log_open_errors "learner-logs/<jobID>" encBufs bench-smoke setPathCOW Filter.compile interpretedMatch OplogFloor DeployAttempts Job.Succeeded "kube keeps Job objects after success" EventResync WatchHealthInterval histReplayLocked revision-resumable TakeDropped ResyncsSkipped AuditsClean resyncTick Store.Revision "conditional resync" "revision-based resume" TestWatchReplaysAgainstSnapshotRestoredLeader LastHeartbeat nodeCapacityChanged heartbeat-only cloneObject TestStoreCopiesAtBoundaries "deep-copy boundaries" "Kube store reads return deep copies" statusMu 64-slot DeepClone "resync tick" chunkCache mountChunkSize Tracer.Begin Tracer.Finish "retention ring"; do \
		if grep -n "$$gone" README.md docs/*.md examples/*/README.md ffdl.go; then echo "docs still mention retired '$$gone'"; ok=0; fi; \
	done; \
	grep -q "watch-protocol.md" docs/architecture.md || { echo "docs/architecture.md does not link watch-protocol.md"; ok=0; }; \
	grep -q "watch-protocol.md" README.md || { echo "README.md does not link watch-protocol.md"; ok=0; }; \
	[ $$ok -eq 1 ] || exit 1
	@echo "docs-check: README, architecture and watch-protocol docs are complete and linked"

# Dead-surface gate: every exported identifier, method and struct field
# declared outside the harness packages needs a non-test caller outside
# them; what only a harness needs is listed, with that harness, in
# tools/deadsurface/allow.txt (see tools/deadsurface/main.go).
deadsurface:
	$(GO) run ./tools/deadsurface

ci: fmt vet build test race bench-gate fuzz-smoke docs-check deadsurface
