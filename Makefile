GO ?= go

# Every main in the module; `make bins` proves each still builds.
MAINS := \
	./cmd/glp4nn-bench \
	./cmd/glp4nn-info \
	./cmd/glp4nn-serve \
	./cmd/glp4nn-train \
	./examples/multigpu \
	./examples/quickstart

.PHONY: tier1 vet build test race alloc purego bins bench-tensor bench-sim serve chaos checkpoint stats clean

# tier1 is the CI gate: vet, build, the full test suite under the race
# detector (the host-side parallel engine must stay race-clean), the
# zero-allocation kernel gate, the pure-Go fallback build, and a build of
# every binary.
tier1: vet build race alloc purego bins

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The chaos soak trains all four workloads under fault storms; with race
# instrumentation on a small CI box that legitimately exceeds go test's
# default 10-minute per-package timeout, so the budget is raised here.
#
# internal/parallel runs one top-level test per process: its soaks each hold
# several CaffeNet-sized replicas, the race detector multiplies that, and in
# one process the package is OOM-killed on a 16 GB box; one test at a time
# bounds peak RSS by the largest single test. The one subtest that alone
# still exceeds 16 GB under -race, TestCrashResumeSoakBitIdentical/CaffeNet,
# is skipped in this loop only — `make test` runs it without -race.
race:
	$(GO) test -race -timeout 45m $$($(GO) list ./... | grep -v '/internal/parallel$$')
	@set -e; for t in $$($(GO) test -list . ./internal/parallel | grep -E '^(Test|Fuzz)'); do \
		echo "race ./internal/parallel $$t"; \
		$(GO) test -race -timeout 45m -run "^$$t\$$" \
			-skip '^TestCrashResumeSoakBitIdentical$$/^CaffeNet$$' ./internal/parallel; \
	done

# The steady-state allocation contract (Gemm, Im2col/Col2im, the scratch
# arena, a prefetched input batch end to end, the simulator's event engine
# per launch and the runtime's planned launch) must run without -race:
# race instrumentation skews the allocation accounting, so the tests skip
# themselves under the race build.
alloc:
	$(GO) test -run 'SteadyStateAllocs' ./internal/tensor ./internal/data ./internal/simgpu ./internal/core

# The pure-Go fallback (no asm micro-kernels, the only path off amd64) must
# stay green: vet and the focused kernel/engine suites with the asm files
# excluded. The purego GEMM is several times slower, so this runs the
# packages that pin the numeric contract rather than the whole-repo soak
# (which `race` already covers on the asm path).
purego:
	$(GO) vet -tags purego ./...
	$(GO) test -tags purego -timeout 30m ./internal/tensor ./internal/kernels ./internal/dnn ./internal/models

bins:
	@mkdir -p bin
	@set -e; for m in $(MAINS); do \
		echo "build $$m"; \
		$(GO) build -o bin/$$(basename $$m) $$m; \
	done

# Focused fault-injection/self-healing suite: the chaos soak (all four
# workloads under seeded fault storms, bitwise-invariance checked), the
# deterministic rollback test, the mid-run degradation test, the
# device-loss eviction soak (replica evicted mid-run, post-eviction
# training bitwise identical to the healthy N-device run), and the
# crash-resume soak (trainer killed mid-run and restored from a durable
# checkpoint, bitwise identical to the uninterrupted run), and the
# overlapped all-reduce bit-identity suite (blocking vs bucketed-overlapped
# arms on all four workloads, plus an eviction mid-soak), and the adaptive
# plan-swap soak (the first profiling window's records dropped, the pinned
# fallbacks re-profiled and swapped at step boundaries, bitwise identical to
# the serial reference replaying the same width schedule). Not a separate tier1
# dependency: `race` already runs these via ./... — this target exists for
# fast iteration on the recovery paths alone.
chaos:
	$(GO) test -race -timeout 45m -run 'TestChaosSoak|TestStepRollback|TestMidRunDegradation|TestDeviceLossSoak|TestCrashResumeSoak|TestOverlappedAllReduce|TestAdaptivePlanSwapInvariance' -v ./internal/parallel/

# Durable-checkpoint suite alone: the on-disk GLPC codec, corruption
# refusal (flipped CRC byte, truncated tail, wrong version, a declared
# length beyond the file, out-of-range plans), the decoder fuzz seeds,
# atomic-write guarantees, the crash-resume soak, and the CLI resume paths.
checkpoint:
	$(GO) test -race -timeout 45m -run 'TestDurable|TestCheckpoint|TestPeekRefusesHugeDeclaredLength|TestPeekRefusesPlanOutOfRange|FuzzCheckpointDecode|TestCrashResumeSoak|TestWriteFileAtomic|TestTrainerCheckpoint|TestResumeRefuses' -v ./internal/parallel/ ./cmd/glp4nn-train/

# Kernel micro-benchmarks over the paper's Table 5 convolution geometries
# (GEMM shapes and im2col/col2im column layouts).
bench-tensor:
	$(GO) test -run '^$$' -bench 'Gemm|Im2col|Col2im' -benchmem ./internal/tensor

# One timing-only (Compute=false) solver step of each paper net on a K40C
# and a P100, naive and through core.Runtime ({net}/{K40C,P100}/{naive,glp4nn}):
# the loop the benchmark's sim-paper workload times, its drains replayed from
# the device's drain memo; the {naive,glp4nn}-cold arms shift every step's
# host clock so each drain is simulated, the cost of the event engine itself.
# "Where does a simulated step's host time go" is this with a profile:
#   go test -run '^$' -bench 'TimingOnlyStep/CIFAR10/P100/glp4nn$' -o /tmp/models.test -cpuprofile /tmp/cpu.prof ./internal/models
#   go tool pprof -top /tmp/models.test /tmp/cpu.prof
bench-sim:
	$(GO) test -run '^$$' -bench TimingOnlyStep -benchmem ./internal/models

# Serving demo: freeze CIFAR10, answer a seeded heavy-tailed request load
# through the dynamic batcher on the GLP4NN runtime, and report p50/p99 as
# JSON (drop -json for the human-readable report).
serve:
	$(GO) run ./cmd/glp4nn-serve -net CIFAR10 -glp4nn -dag -requests 128 -clients 8 -json

# Simplicity trajectory (ROADMAP item 5): the numbers a simplifying PR
# quotes before and after in CHANGES.md. Non-test Go lines outside
# benchmark/ (total, then every package under internal/ with its
# exported-symbol count),
# each CLI's non-test lines and flag count, the settable options (exported fields of every
# exported *Config / *Options struct under internal/), the façade's
# exported-symbol count, the registered experiment IDs and the examples/
# mains. Tier-1 wall time is `time make test`.
stats:
	@printf 'non-test Go lines (outside benchmark/): '; \
		find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l
	@for p in internal/*/; do \
		printf '%s: %s lines, %s exported symbols\n' $${p%/} \
			$$(find $$p -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) \
			$$($(GO) doc -short ./$$p | wc -l); \
	done
	@for c in bench info serve train; do \
		printf 'cmd/glp4nn-%s: %s non-test lines, %s flags\n' $$c \
			$$(find cmd/glp4nn-$$c -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) \
			$$($(GO) run ./cmd/glp4nn-$$c -h 2>&1 | grep -c '^  -'); \
	done
	@printf 'options: '; find internal -name '*.go' -not -name '*_test.go' | xargs awk ' \
		/^type ([A-Z][A-Za-z0-9]*)?(Config|Options) struct \{/ { inside = 1; next } \
		inside && /^}/ { inside = 0 } \
		inside && match($$0, /^\t([A-Z][A-Za-z0-9]*, )*[A-Z][A-Za-z0-9]* /) { \
			names = substr($$0, RSTART, RLENGTH); n += gsub(/,/, ",", names) + 1 } \
		END { print n + 0 }'
	@printf 'facade exported symbols: '; $(GO) doc -short ./ | wc -l
	@printf 'experiment IDs: '; $(GO) run ./cmd/glp4nn-bench -list | grep -c '^  [a-z]'
	@printf 'examples: '; ls -d examples/*/ | wc -l

clean:
	rm -rf bin
