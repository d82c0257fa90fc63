# Convenience targets; tier-1 verification is `make build test`,
# the race lane (ROADMAP.md) is `make race`.

GO ?= go

.PHONY: all build test race vet lint bench bench-smoke locbench-test verify-table journal-smoke corpus-smoke checkpoint-smoke staticreach-smoke serve-smoke spec-smoke

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race lane: the verification engine fans verifications out over
# goroutines and shares cached switched traces between them — run the
# suite under the race detector whenever that machinery changes.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Lint lane: Go-level vet plus the MiniC static checker suite over the
# checked-in subjects (testdata/lint/ holds known-bad fixtures and is
# deliberately excluded).
lint: vet
	$(GO) run ./cmd/eolvet testdata/*.mc

bench:
	$(GO) test -bench . -benchmem -benchtime 10x .

# Bench smoke lane: every benchmark must still compile and survive one
# iteration (no measurements) — keeps the bench suite from bit-rotting
# between real benchmarking sessions.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# locbench (the localization benchmark) is a separate module, so the
# root `go test ./...` never builds it; vet and run its short-mode
# tests on their own.
locbench-test:
	cd locbench && $(GO) vet ./... && $(GO) test ./...

# Sequential vs parallel vs cached verification scheduling table.
verify-table:
	$(GO) run ./cmd/benchtab -table verify -reps 5

# Observability smoke: run one localization with the JSONL run journal
# on, then validate the journal (docs/OBSERVABILITY.md).
journal-smoke:
	$(GO) run ./cmd/eoloc -correct testdata/fig1_fixed.mc -input 1 \
		-root 'read() * 0' -trace /tmp/eol-journal-smoke.jsonl \
		testdata/fig1_faulty.mc
	$(GO) run ./cmd/journalcheck /tmp/eol-journal-smoke.jsonl

# Corpus smoke lane: sharded multi-subject localization over the smoke
# manifest — two fig1 subjects locate, one long-running subject hits its
# 5ms deadline, so eolcorpus must exit 1. The shards=1 and shards=2
# outputs are compared byte-for-byte (the determinism contract of
# docs/CORPUS.md) and the corpus journal is validated.
corpus-smoke:
	$(GO) build -o /tmp/eolcorpus-smoke ./cmd/eolcorpus
	/tmp/eolcorpus-smoke -shards 1 -o /tmp/eol-corpus-1.json \
		testdata/corpus/smoke.json; test $$? -eq 1
	/tmp/eolcorpus-smoke -shards 2 -o /tmp/eol-corpus-2.json \
		-trace /tmp/eol-corpus-smoke.jsonl testdata/corpus/smoke.json; \
		test $$? -eq 1
	cmp /tmp/eol-corpus-1.json /tmp/eol-corpus-2.json
	$(GO) run ./cmd/journalcheck /tmp/eol-corpus-smoke.jsonl

# Checkpoint smoke lane: localize a long-trace grepsim subject with
# checkpointed switched replay on (default) and off (-checkpoints -1).
# Results and journal must be byte-identical — the transparency contract
# of docs/CHECKPOINT.md — and the journal must validate.
checkpoint-smoke:
	$(GO) build -o /tmp/eolcorpus-ckpt ./cmd/eolcorpus
	/tmp/eolcorpus-ckpt -o /tmp/eol-ckpt-on.json \
		-trace /tmp/eol-ckpt-on.jsonl testdata/corpus/checkpoint.json
	/tmp/eolcorpus-ckpt -checkpoints -1 -o /tmp/eol-ckpt-off.json \
		-trace /tmp/eol-ckpt-off.jsonl testdata/corpus/checkpoint.json
	cmp /tmp/eol-ckpt-on.json /tmp/eol-ckpt-off.json
	cmp /tmp/eol-ckpt-on.jsonl /tmp/eol-ckpt-off.jsonl
	$(GO) run ./cmd/journalcheck /tmp/eol-ckpt-on.jsonl

# Static-reach smoke: the SPDG reach filter must fire on the
# element-disjointness subjects (static_reach_skips > 0), the output
# must be shard-count invariant, and switching the filter off must
# change nothing but the skip accounting — the journal byte-for-byte,
# the JSON up to the two skip counters.
staticreach-smoke:
	$(GO) build -o /tmp/eolcorpus-sr ./cmd/eolcorpus
	/tmp/eolcorpus-sr -shards 1 -o /tmp/eol-sr-on.json \
		-trace /tmp/eol-sr-on.jsonl testdata/corpus/staticreach.json
	/tmp/eolcorpus-sr -shards 2 -o /tmp/eol-sr-on2.json \
		-trace /tmp/eol-sr-on2.jsonl testdata/corpus/staticreach.json
	cmp /tmp/eol-sr-on.json /tmp/eol-sr-on2.json
	cmp /tmp/eol-sr-on.jsonl /tmp/eol-sr-on2.jsonl
	/tmp/eolcorpus-sr -shards 1 -no-static-reach -o /tmp/eol-sr-off.json \
		-trace /tmp/eol-sr-off.jsonl testdata/corpus/staticreach.json
	cmp /tmp/eol-sr-on.jsonl /tmp/eol-sr-off.jsonl
	grep -v -e '"static_reach_skips"' -e '"replay_skips"' /tmp/eol-sr-on.json > /tmp/eol-sr-on.stripped
	grep -v -e '"static_reach_skips"' -e '"replay_skips"' /tmp/eol-sr-off.json > /tmp/eol-sr-off.stripped
	cmp /tmp/eol-sr-on.stripped /tmp/eol-sr-off.stripped
	grep -q '"static_reach_skips": [1-9]' /tmp/eol-sr-on.json
	$(GO) run ./cmd/journalcheck /tmp/eol-sr-on.jsonl

# Speculation smoke lane: localize the long-trace corpus with
# speculative verification off (default) and on (-speculate). Speculation
# is results-neutral (docs/SPECULATION.md): the JSON reports and the run
# journals must be byte-identical — only the in-process Spec* cost
# counters may differ, and those stay out of both documents — and the
# journal must validate.
spec-smoke:
	$(GO) build -o /tmp/eolcorpus-spec ./cmd/eolcorpus
	/tmp/eolcorpus-spec -o /tmp/eol-spec-off.json \
		-trace /tmp/eol-spec-off.jsonl testdata/corpus/checkpoint.json
	/tmp/eolcorpus-spec -speculate -o /tmp/eol-spec-on.json \
		-trace /tmp/eol-spec-on.jsonl testdata/corpus/checkpoint.json
	cmp /tmp/eol-spec-off.json /tmp/eol-spec-on.json
	cmp /tmp/eol-spec-off.jsonl /tmp/eol-spec-on.jsonl
	$(GO) run ./cmd/journalcheck /tmp/eol-spec-on.jsonl

# Serve smoke lane: boot the resident server (docs/SERVER.md) on an
# ephemeral port and drive it with eoloadgen — health probe; a corpus
# request whose response must be byte-identical to eolcorpus batch
# output (the A/B contract); an async job whose NDJSON event stream
# must validate as a corpus journal; and an open-loop load burst that
# must observe at least one rate-limit 429.
serve-smoke:
	$(GO) build -o /tmp/eolserve-smoke ./cmd/eolserve
	$(GO) build -o /tmp/eoloadgen-smoke ./cmd/eoloadgen
	$(GO) build -o /tmp/eolcorpus-serve ./cmd/eolcorpus
	rm -f /tmp/eol-serve-addr
	/tmp/eolserve-smoke -addr 127.0.0.1:0 -addr-file /tmp/eol-serve-addr \
		-rate 5 -burst 2 & \
	SRV=$$!; \
	trap 'kill $$SRV 2>/dev/null' EXIT; \
	for i in $$(seq 1 100); do test -s /tmp/eol-serve-addr && break; sleep 0.1; done; \
	BASE=http://$$(head -1 /tmp/eol-serve-addr); \
	/tmp/eoloadgen-smoke -base $$BASE -healthz && \
	/tmp/eoloadgen-smoke -base $$BASE -tenant corpus \
		-corpus testdata/corpus/smoke.json -o /tmp/eol-serve-corpus.json && \
	{ /tmp/eolcorpus-serve -o /tmp/eol-serve-batch.json \
		testdata/corpus/smoke.json; test $$? -eq 1; } && \
	cmp /tmp/eol-serve-corpus.json /tmp/eol-serve-batch.json && \
	/tmp/eoloadgen-smoke -base $$BASE -tenant jobs \
		-corpus testdata/corpus/smoke.json -async \
		-events /tmp/eol-serve-events.jsonl -o /tmp/eol-serve-job.json && \
	/tmp/eoloadgen-smoke -base $$BASE -tenant hammer \
		-subject testdata/corpus/smoke.json -n 12 -rate 100 \
		-min-rejected 1 -o /tmp/eol-serve-load.json
	$(GO) run ./cmd/journalcheck /tmp/eol-serve-events.jsonl
