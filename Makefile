# CI entry points. `make ci` is the gate future PRs run (and what the
# GitHub Actions workflow executes); `make bench` is the benchmark's
# smoke run — all five workloads of `go run ./benchmark` against a real
# trainer and a real gsgcn-serve, every answer checked — and
# `make serve-smoke` drives the datagen→train→index→serve pipeline as
# real processes: flags, signals, ports, a mapped warm boot and shard
# churn. Neither writes a tracked file;
# performance claims come from `go run ./benchmark` alone
# (benchmark/README.md).

GO ?= go

# Coverage ratchet: `make cover` fails when total statement coverage
# drops below this floor. The floor trails the measured total by one
# point, rounded down to a half (87.6% over every package but
# benchmark/ when last measured); raise it as coverage rises, never
# lower it.
COVER_FLOOR ?= 86.5

.PHONY: ci loc lint vet build test race cover fuzz bench serve-smoke

ci: loc lint build race cover bench serve-smoke

# Non-test source lines per package, Go plus assembly — the number
# ROADMAP item 3 tracks (internal/serve above all) — first in every CI
# log. Every package of the module is counted, the root package (.)
# and benchmark/ included: the list is `go list ./...`'s, as module
# paths made relative. A package with *.s files shows how many of its
# lines they are. The last line is the sum over every package, so a
# change's net effect on the code is one number.
loc:
	@mod=$$($(GO) list -m); total=0; \
	for d in $$($(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./... | sed -e "s|^$$mod\$$|.|" -e "s|^$$mod/||"); do \
		asm=$$(cat /dev/null $$(find $$d -maxdepth 1 -name '*.s') | wc -l); \
		n=$$(cat $$(find $$d -maxdepth 1 \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go') | wc -l); \
		total=$$((total + n)); \
		printf '%6d  %s' $$n $$d; \
		if [ $$asm -gt 0 ]; then printf ' (%d asm)' $$asm; fi; \
		echo; \
	done; \
	printf '%6d  total\n' $$total

# lint subsumes vet: formatting drift fails the gate, every package
# must carry a godoc package comment (scripts/pkgdoc-lint), and
# staticcheck runs when the host has it (the offline CI image does not
# vendor it). internal/mat has amd64 assembly with a portable
# fallback that an amd64 host never compiles, so lint also builds the
# module and vets mat for arm64 — the fallback cannot rot unseen. For
# the same reason it vets internal/artifact for windows: on a non-unix
# host Open (mmap_portable.go) reads the file into the heap.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/mat/...
	GOOS=windows GOARCH=amd64 $(GO) vet ./internal/artifact/...
	$(GO) run ./scripts/pkgdoc-lint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipped"; \
	fi

# ./... covers every package, including internal/serve.
vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -p 1 serializes packages: the perf package asserts on real
# wall-clock shard measurements, which cross-package contention on
# small CI hosts would otherwise skew. -shuffle=on randomizes test
# order so determinism contracts (bit-identical ANN/topk results
# across Workers settings and rebuilds) cannot hide behind incidental
# execution order.
race:
	$(GO) test -race -shuffle=on -p 1 ./...

# Coverage summary with a ratchet: the profile is left in coverage.out
# for `go tool cover -html` drill-downs, and the total must clear
# COVER_FLOOR. -p 1 for the same reason as race: the perf package's
# wall-clock assertions must not share the host with other packages'
# test binaries. The benchmark package is left out of the profile: it
# is a main package that drives subprocesses for minutes, which its
# unit tests cannot, and `make bench` is what exercises it.
cover:
	$(GO) test -p 1 -coverprofile=coverage.out $$($(GO) list ./... | grep -v '/benchmark$$')
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{print $$NF}' | tr -d '%'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' \
		|| { echo "cover: total $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }

# Fuzzing on a fixed budget, eight targets from the committed corpora
# (internal/{wire,artifact,core,mat}/testdata/fuzz and
# pkg/client/testdata/fuzz), one -fuzz target per `go test` run: the
# frame decoder against itself — Decode versus ReadMessage parsing in
# place, through its one-buffer fallback, and fed a byte at a time —
# then the two file loaders, which must answer any bytes with a value
# or a typed error, never a panic, then the quantized walk's ADC table,
# every entry of which must keep Dot's bits on hostile numbers (NaN,
# ±Inf, subnormals, -0), and its row scores, which must keep the Go
# loop's bits at every kernel level the host has, then the three GEMM
# forms on rows 1 to 200 wide (FuzzNarrowRows, named for the 8-wide
# rows it began with), which
# must keep the untiled portable loops' bits on the same hostile
# numbers, then the block kernel under narrow propagation
# (FuzzGatherCSR), which must give every row one GatherSum's bits at
# every kernel level the host has on hostile numbers, row lists and
# widths 1 to 24, then Exp and Log1p on arbitrary float64 bit patterns, which
# must keep math.Exp's and math.Log1p's bits at every kernel level the
# host has (FuzzExpLog1p), then query sequences with reloads, whose
# answers must be the same bytes unsharded and on 3 shards over json,
# wire and tcp (mode=ann across transports only). The corpora
# alone run as plain tests in every `go test`; this target also
# mutates. -fuzzminimizetime bounds what the engine spends shrinking
# each new-coverage input: at its default (60 s) two finds in the first
# seconds stall both workers for the rest of a 30 s budget. Not part of
# `make ci`'s quick path: the CI workflow's full job calls it.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecode -fuzztime 30s -fuzzminimizetime 1000x
	$(GO) test ./internal/artifact -run '^$$' -fuzz FuzzDecode -fuzztime 30s -fuzzminimizetime 1000x
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzLoadModel -fuzztime 30s -fuzzminimizetime 1000x
	$(GO) test ./internal/mat -run '^$$' -fuzz FuzzPQQuery -fuzztime 30s -fuzzminimizetime 1000x
	$(GO) test ./internal/mat -run '^$$' -fuzz FuzzNarrowRows -fuzztime 30s -fuzzminimizetime 1000x
	$(GO) test ./internal/mat -run '^$$' -fuzz FuzzGatherCSR -fuzztime 30s -fuzzminimizetime 1000x
	$(GO) test ./internal/mat -run '^$$' -fuzz FuzzExpLog1p -fuzztime 30s -fuzzminimizetime 1000x
	$(GO) test ./pkg/client -run '^$$' -fuzz FuzzShapesAndTransports -fuzztime 30s -fuzzminimizetime 1000x

# The benchmark's smoke run: 3 s of each of the five workloads, exit
# non-zero unless every one reports `checks: correct` with no failed
# operation. A correctness gate, not a performance one — -quick numbers
# are not comparable between runs; a speed claim is paired full runs
# under the bounds in BENCHMARK.json. Everything it writes goes under
# the git-ignored .bench_build/. The Go Benchmark* functions remain as
# developer tools (`go test -bench`), outside the gate.
bench:
	$(GO) run ./benchmark -quick

# End-to-end serving smoke, only what real processes can show (the
# answers' bytes are the Go suites' business): generate a dataset,
# train briefly, build 3 i8pq shard artifacts with gsgcn-index, boot
# gsgcn-serve from a -config file (SIGHUP must advance the version,
# SIGTERM must exit 0), then from flags, warm from those mapped artifacts
# with the wire listener on an ephemeral port, read from the log. The
# final phase runs gsgcn-loadgen against it (reload storm + shard churn
# mid-traffic): no hard failure, and the share of requests the stopped
# shard turned away must be above zero and at most 35%.
serve-smoke:
	@mkdir -p bin
	$(GO) build -o bin/gsgcn-datagen ./cmd/gsgcn-datagen
	$(GO) build -o bin/gsgcn-train ./cmd/gsgcn-train
	$(GO) build -o bin/gsgcn-serve ./cmd/gsgcn-serve
	$(GO) build -o bin/gsgcn-index ./cmd/gsgcn-index
	$(GO) build -o bin/gsgcn-loadgen ./cmd/gsgcn-loadgen
	bash scripts/serve-smoke.sh
