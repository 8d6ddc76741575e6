.PHONY: all build test check faults experiments load-smoke obs-smoke commit-smoke consistency-smoke perfbench-smoke bench-json bench-diff bench-baseline clean

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: everything compiles and every suite passes.
check:
	dune build
	dune runtest

faults:
	dune exec bin/experiments_main.exe -- faults

experiments:
	dune exec bin/experiments_main.exe

# CI-sized open-loop load grid (both A/B arms of the sharded name
# service); the full grid is `experiments_main -- load`.
load-smoke:
	dune exec bin/experiments_main.exe -- --quick load

# Traced mid-size load cell: exports obs_trace.json (Chrome
# trace-event JSON, validated by the binary itself before it exits
# zero) and obs_metrics.json (per-node metrics registries), and
# prints the critical-path stage breakdown.
obs-smoke:
	dune exec bin/experiments_main.exe -- trace

# Group-commit A/B smoke pair (force-per-record vs 5 ms window at 64
# sessions) plus the kill-mid-commit recovery scenario; the full
# clients x window x footprint grid is `experiments_main -- commit`.
commit-smoke:
	dune exec bin/experiments_main.exe -- --quick commit

# Relaxed-consistency A/B smoke grid (one-copy vs release vs
# commutative at reduced sizes); the full grid is
# `experiments_main -- consistency`.
consistency-smoke:
	dune exec bin/experiments_main.exe -- --quick consistency

# One short traced seed-1 run of each repository-benchmark workload.
# The benchmark exits non-zero on a correctness violation or when its
# repetitions' simulated digests differ; each workload's digest must
# also equal the one pinned in bench/perfbench_digests, and its
# simulated layer metrics the lines pinned in bench/perfbench_layers.
# The layer lines leave out host costs (events, ns per event, peak
# queue, words allocated, trace overhead), so a host-only change
# moves the digest, which counts events, but not the layer lines.
PERFBENCH_HOST_LAYERS = ^(sim\.events_per_op|sim\.ns_per_event|sim\.peak_pending|host\.|obs\.trace_overhead_pct)

# Ceilings on host.major_direct_words_per_op.  Page-sized copies are
# the bulk of direct major-heap allocation, and an 8 KB page is 1,025
# words: a gcp-commit transaction copies no page at all, and dsm-pages
# copies one per write fault and one per downgrade (about 1.4 pages
# per op; read faults share the image).  A ceiling, not a pin,
# because allocation counts shift a little between OCaml versions.
PERFBENCH_MAJOR_CEILINGS = gcp-commit=1025 dsm-pages=2050

perfbench-smoke:
	@mkdir -p _build
	@for w in ns-open gcp-commit dsm-pages; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 1 \
	    > _build/perfbench-$$w.out || { cat _build/perfbench-$$w.out; exit 1; }; \
	  got=$$(sed -n 's/.*simulated digest \([0-9a-f]*\).*/\1/p' _build/perfbench-$$w.out); \
	  want=$$(awk -v w=$$w '$$1 == w { print $$2 }' bench/perfbench_digests); \
	  sed -n 's/^layer //p' _build/perfbench-$$w.out | grep -Ev '$(PERFBENCH_HOST_LAYERS)' \
	    | awk -v w=$$w '{ print w, $$1, $$2, $$3 }' > _build/perfbench-$$w.layers; \
	  awk -v w=$$w '$$1 == w' bench/perfbench_layers > _build/perfbench-$$w.layers.want; \
	  if [ -n "$$got" ] && [ "$$got" = "$$want" ]; then \
	    echo "perfbench-smoke: $$w digest $$got matches"; \
	  else \
	    echo "perfbench-smoke: $$w digest '$$got' DRIFTED from '$$want' in bench/perfbench_digests"; \
	    echo "(intentional? update bench/perfbench_digests and say why in CHANGES.md)"; \
	    exit 1; \
	  fi; \
	  if [ -s _build/perfbench-$$w.layers ] && cmp -s _build/perfbench-$$w.layers.want _build/perfbench-$$w.layers; then \
	    echo "perfbench-smoke: $$w simulated layer metrics match"; \
	  else \
	    echo "perfbench-smoke: $$w simulated layer metrics DRIFTED from bench/perfbench_layers:"; \
	    diff _build/perfbench-$$w.layers.want _build/perfbench-$$w.layers | head -20; \
	    echo "(intentional? replace the $$w lines of bench/perfbench_layers with _build/perfbench-$$w.layers and say why in CHANGES.md)"; \
	    exit 1; \
	  fi; \
	  ceil=$$(echo '$(PERFBENCH_MAJOR_CEILINGS)' | tr ' ' '\n' | sed -n "s/^$$w=//p"); \
	  major=$$(awk '$$1 == "layer" && $$2 == "host.major_direct_words_per_op" { print $$3 }' _build/perfbench-$$w.out); \
	  if [ -z "$$ceil" ]; then :; \
	  elif [ -n "$$major" ] && awk -v m="$$major" -v c="$$ceil" 'BEGIN { exit !(m <= c) }'; then \
	    echo "perfbench-smoke: $$w major-direct words/op $$major within the ceiling of $$ceil"; \
	  else \
	    echo "perfbench-smoke: $$w major-direct words/op '$$major' over the ceiling of $$ceil"; \
	    echo "(a page-sized copy is back: pages are copied only where they leave an MMU frame (Mmu.dirty_pages, Mmu.downgrade, the twin) or enter a write-mode one (Page.to_frame); Protocol messages, the WAL, the prepared table and Segment_store share Page.image values)"; \
	    exit 1; \
	  fi; \
	done

# Machine-readable benchmark baseline (wall-clock + simulated
# metrics); BENCH_QUICK=1 selects the reduced sizes CI uses.
bench-json:
	dune exec bench/main.exe -- --json $(if $(BENCH_QUICK),--quick,)

# Fail if the fixed-seed simulated metrics drift from the committed
# quick-size baseline.  The simulation is deterministic and
# machine-independent, so any diff is a real behaviour change.  The
# JSON holds one "simulated" section per line, so the diff names the
# sections that moved; the host-specific "wall_clock" line is
# stripped from both sides.
bench-diff:
	dune exec bench/main.exe -- --json --quick
	@mkdir -p _build
	@grep -v '^ "wall_clock"' BENCH_core.json > _build/bench_now.sim
	@grep -v '^ "wall_clock"' bench/BENCH_baseline.json > _build/bench_base.sim
	@if cmp -s _build/bench_base.sim _build/bench_now.sim; then \
	  echo "bench-diff: simulated metrics match the committed baseline"; \
	else \
	  echo "bench-diff: simulated metrics DRIFTED from bench/BENCH_baseline.json:"; \
	  diff _build/bench_base.sim _build/bench_now.sim | cut -c1-200 | head -20; \
	  echo "(intentional? refresh with: make bench-baseline)"; \
	  exit 1; \
	fi

# Refresh the committed baseline after an intentional perf change.
bench-baseline:
	dune exec bench/main.exe -- --json --quick
	cp BENCH_core.json bench/BENCH_baseline.json
	@echo "updated bench/BENCH_baseline.json -- commit it"

clean:
	dune clean
