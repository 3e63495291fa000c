GO ?= go

.PHONY: all ci fmt vet lint build test examples race stress recovery chaos fed-chaos wire load-smoke bench bench-smoke fuzz-smoke

all: ci

# ci is the gate GitHub Actions runs: formatting, static checks (go vet
# plus the repo's own gridmon-vet analyzers), the tier-1 build/test
# pass, the race-detector pass, a one-iteration benchmark smoke run, a
# smoke run of the bench/ end-to-end benchmark, and a few seconds of
# each fuzz target. The examples run after the tests.
ci: fmt vet lint build test examples race bench bench-smoke fuzz-smoke

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the custom analyzer suite (lockcheck, simdet, workacct,
# ctxflow, wirecode — see README "Static analysis") over the module.
lint:
	$(GO) run ./cmd/gridmon-vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# examples runs every program under examples/ to completion (about a
# second each); a walkthrough that breaks exits non-zero.
examples:
	@for e in examples/*/; do \
		echo "== $$e"; \
		$(GO) run ./$$e || exit 1; \
	done

# race runs the full test suite under the race detector — the gate for
# the concurrent surfaces: streams, the transport, the Grid facade.
race:
	$(GO) test -race ./...

# stress re-runs just the concurrent-serving gates under the race
# detector: parallel queries mixed with the Advance pump, checked
# against serialized-oracle snapshots, plus the cache semantics, the
# expression memo (warm answers equal fresh ones, its bounds, its keys
# copied out of the request) and the reused answer scratch (every served
# frame equals a fresh answer's, answers served concurrently; a
# Router's spliced reply equals the pre-splice merge of the same leaf
# replies, TestV3ScratchSplice), the table of request strings a server
# resolves grid.query bodies through (TestRequestStringsStayBounded,
# TestRequestStringsShareOwnedCopies) and the scratch every served query
# borrows coming back empty (TestLentListComesBackEmpty,
# TestAdKeyListComesBackEmpty, TestSearchScratchComesBackEmpty,
# TestAdvertListComesBackEmpty, TestConstraintScratchComesBackEmpty),
# and subscriptions answering as the query does in all three systems
# (TestContinuousQueryMatchesQuery and FuzzContinuousQuery's seeds: R-GMA
# deliveries run on the query path's scratch, inside whatever refreshes
# the sensors; MDS polls run on it under Advance's lock), and a client's
# table of decoded records serving replies that share records at once
# (TestAnswerTextsConcurrent: every answer is a fresh decode's, and
# after every pass every held record is still what its bytes decode
# to, so no shared field map was written), and the
# one bounded map behind those tables and the cache (TestBoundedMap*:
# goroutines getting, storing and overflowing one map).
# The all-misses scratch case then runs 25 more times: its frames hold
# only if no query reads an answer stored by one that started with or
# after it (queryCache.lookup's rule).
stress:
	$(GO) test -race -count=2 -run 'Concurrent|QueryCache|Memo|Scratch|RequestStrings|ComesBackEmpty|ContinuousQuery|AnswerTexts|BoundedMap' .
	$(GO) test -race -count=2 -run 'ComesBackEmpty' ./internal/core ./internal/ldap ./internal/rgma ./internal/hawkeye
	$(GO) test -race -count=25 -run 'TestV3ScratchFrames/cache-misses' .

# recovery re-runs the crash-injection suite hard: kills at every WAL
# byte/record boundary, differential recovery against the volatile
# oracles, and the facade restart tests — repeated, under the race
# detector, so a flaky recovery path can't hide behind one lucky pass.
recovery:
	$(GO) test -race -count=5 -run 'Crash|Durable|Equivalence|Restart|Reattach|Compaction|TestGridStorage' ./internal/storage ./internal/rgma ./internal/mds .

# chaos re-runs the resilience gates hard under the race detector: the
# fault-injection suite (latency, stalls, partial writes, mid-frame
# resets — typed error or correct retried result, never a hang), the
# breaker/backoff/admission unit contracts, the load-shedding bounds,
# server-close-under-load, and the client-side server-restart drill.
# GRIDMON_WALLCLOCK=1 turns on the wall-clock bounds of the shedding
# tests (shed < 1ms, accepted p99 within 3x, the ungated collapse),
# which plain `go test` only logs: they need a quiet machine.
chaos:
	GRIDMON_WALLCLOCK=1 $(GO) test -race -count=3 -run 'Chaos|Breaker|Backoff|Admission|Overload|Shed|ServerClose|SurvivesServerRestart' . ./internal/transport

# fed-chaos re-runs the federation gates hard under the race detector:
# the differential suite (federated answers bit-identical to the
# in-process oracle, and to a single grid up to the pinned federation
# tax) and the federation chaos suite (leaf death, stalled branches,
# mid-frame partitions, breaker-marked branches, churn recovery,
# replica failover, stream partitions — typed error or correct partial
# result, inside the carved budget, never a hang).
fed-chaos:
	$(GO) test -race -count=3 ./internal/federation

# wire re-runs the wire-protocol gates hard under the race detector:
# the equivalence suites (identical answers in-process and over the
# binary codec; identical event sequences in-process and remote), the
# transport's call and stream suites (TestV3*, the stream client's
# TestV3Stream* among them), the shared binary encoding's own (binenc), the
# typed record codec round trips, the reused answer scratch
# (TestV3ScratchFrames), the Router's spliced replies held byte for byte
# to the pre-splice merge (TestV3ScratchSplice), the checked-in digest of
# every answer in-process, remote and through a Router
# (TestAnswerDigest), the request strings a server resolves grid.query
# bodies through (TestRequestStrings*), the scratch a served query
# borrows coming back empty (Test*ComesBackEmpty), events never aliasing
# pooled scratch (TestWireEventScratch), relayed by a Router with their
# record sections byte for byte as rendered (TestWireEventRelayBytes) and
# served at a copy and no decode (TestWireEventAllocBudget, which skips
# under -race), a stream's first frame the preamble alone
# (TestWireSubscribePreambleAlone), a stream buffer over the maximum
# refused on both ends (TestWireSubscribeBufferBounded), the length
# placeholder the record renderers fill in (TestCodecPutUvarintAt), and
# the pipelining chaos case
# (mid-frame reset with K>1 in-flight calls fails exactly the affected
# calls, typed, no hang).
wire:
	$(GO) test -race -count=3 -run 'Proto|Wire|V3|Codec|ChaosPipelined|AnswerDigest|RequestStrings|ComesBackEmpty' . ./internal/transport ./internal/binenc

# load-smoke proves the closed-loop load generator end to end: an
# in-process server, two users, one second — enough to catch rot without
# measuring anything.
load-smoke:
	$(GO) run ./cmd/gridmon-load -users 2 -duration 1s -advance 250ms -cache 5s

# bench runs every benchmark exactly once — a smoke pass proving the
# harness works, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-smoke proves the end-to-end benchmark (bench/, BENCHMARK.json)
# still builds, passes its own tests and runs every workload through
# its correctness gate — half-second phases, so the numbers mean
# nothing. The measuring run is `go run ./bench` (see bench/README.md).
bench-smoke:
	$(GO) test ./bench
	$(GO) run ./bench -short

# fuzz-smoke gives each native fuzz target a few seconds beyond its
# checked-in seed corpus: the counted-size and append-form invariants
# ResponseBytes rests on (SizeBytes is the length of the canonical
# rendering; fold-free lookups find what strings.ToLower found), the
# wire decoders that read what a peer sent (never panic, allocate in
# proportion to the frame, round-trip what they accept; the walk that
# checks a reply a client relays accepts what the reply decoder
# accepts; a server's grid.query decode through its table of request
# strings, cold, warm or started over, is the copying decode), the merge the federation Router splices its branches'
# replies with (what the reply decoder accepts, what MergeResultSets
# merges, allocation in proportion to the replies), the server's frame
# reader and the two client ones under them, a call connection's and a
# stream's (never panic or hang: a well-formed answer or a closed
# connection, every call returned and every stream ended), the two replay
# decoders that read what a data directory holds (the same bounds, and
# every record the encoders log replays to the state that logged it),
# the SQL, LDAP-filter and ClassAd-expression parsers that read what a
# user wrote (parse or error, never a panic or a stack overflow,
# allocation in proportion to the text; an accepted filter or expression
# renders to a canonical form that parses back to itself; the ClassAd
# expression and ad parsers answer what the parser that lexed the whole
# input first answered, error text included), the facade's memo of
# what they parsed (any system and expression answers the same on a grid
# that parsed it before as on one that did not), the SQL LIKE
# matcher (what the recursive matcher it replaced answers, with no
# allocation), the ProducerServlet answering from its producers' rows
# (what the scratch-table body it replaced answers, for any SQL), and
# the -shards flag parser (never a panic; an accepted map renders back
# to one that parses equal), and a subscription in any of the three
# dialects (an MDS watcher holds what Grid.Query answers after each
# poll, a Hawkeye trigger fires for what the Manager query answers and
# matchmaking accepts, an R-GMA stream is ScanSelect's answer over each
# published batch; a refusal carries the code Grid.Query fails with,
# FuzzContinuousQuery), and the one-byte length placeholder the record
# renderers fill in (FuzzPutUvarintAt: prefix, value, suffix as
# AppendUvarint writes them) — twenty-one targets.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzWireMerge$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzQueryDecode$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzQueryMemo$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzV3ServerFrames$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzV3ClientFrames$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzV3StreamFrames$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzValueSize$$' -fuzztime $(FUZZTIME) ./internal/relational
	$(GO) test -run '^$$' -fuzz '^FuzzExprAppend$$' -fuzztime $(FUZZTIME) ./internal/classad
	$(GO) test -run '^$$' -fuzz '^FuzzEntrySize$$' -fuzztime $(FUZZTIME) ./internal/ldap
	$(GO) test -run '^$$' -fuzz '^FuzzRegistryReplay$$' -fuzztime $(FUZZTIME) ./internal/rgma
	$(GO) test -run '^$$' -fuzz '^FuzzGIISReplay$$' -fuzztime $(FUZZTIME) ./internal/mds
	$(GO) test -run '^$$' -fuzz '^FuzzSQLParse$$' -fuzztime $(FUZZTIME) ./internal/relational
	$(GO) test -run '^$$' -fuzz '^FuzzLikeMatch$$' -fuzztime $(FUZZTIME) ./internal/relational
	$(GO) test -run '^$$' -fuzz '^FuzzLDAPFilter$$' -fuzztime $(FUZZTIME) ./internal/ldap
	$(GO) test -run '^$$' -fuzz '^FuzzClassAdParse$$' -fuzztime $(FUZZTIME) ./internal/classad
	$(GO) test -run '^$$' -fuzz '^FuzzParseAd$$' -fuzztime $(FUZZTIME) ./internal/classad
	$(GO) test -run '^$$' -fuzz '^FuzzServletSelect$$' -fuzztime $(FUZZTIME) ./internal/rgma
	$(GO) test -run '^$$' -fuzz '^FuzzShardMap$$' -fuzztime $(FUZZTIME) ./internal/federation
	$(GO) test -run '^$$' -fuzz '^FuzzContinuousQuery$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzPutUvarintAt$$' -fuzztime $(FUZZTIME) ./internal/binenc
