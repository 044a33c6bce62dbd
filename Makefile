.PHONY: all build test check audit fuzz bench bench-smoke serve-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

# The CI gate: everything compiles (including tests and benches), the test
# suite passes, the optimizer driver runs end to end with structured
# stats on a real workload, and every client's no-alias claims are
# discharged by the dynamic auditor (the two `audit` runs below).
check:
	dune build @all
	dune runtest
	dune exec bin/tbaac.exe -- optimize --workload format --licm --slf --dse --stats
	dune exec bin/tbaac.exe -- optimize --workload format --licm --slf --dse --jobs 2 --stats
	dune exec bin/tbaac.exe -- fuzz --count 25 --seed 1 --out ""
	dune exec bin/tbaac.exe -- audit
	dune exec bin/tbaac.exe -- audit --licm --slf --dse

# The full differential-testing sweep: 200 generated programs through the
# 24-configuration matrix and all four oracles, then a fault-injected run
# that must produce shrunk, replaying counterexamples (the fuzzer testing
# itself). Slower than `check`; run before releases.
fuzz:
	dune exec bin/tbaac.exe -- fuzz --count 200 --seed 1
	dune exec bin/tbaac.exe -- fuzz --count 25 --seed 1 --fault-rate 0.05

# The defense-in-depth gate: the whole workload suite through the guarded
# pipeline (IR validated after every pass) and the simulator under the
# dynamic soundness auditor — once with the paper's RLE configuration,
# once with the LICM/SLF/DSE clients stacked on top, so every client's
# claims are discharged on every dynamic workload. Fails on any
# quarantined pass or any no-alias claim contradicted by a concrete
# execution.
audit:
	dune exec bin/tbaac.exe -- audit
	dune exec bin/tbaac.exe -- audit --licm --slf --dse

bench:
	dune exec bench/main.exe

# Ratio-based regression gates: the alias-query legs must stay >= 5x and
# within 20% of the recorded BENCH_alias.json snapshot; the simulator
# fast-path legs must stay >= 3x and within 20% of BENCH_sim.json; the
# optimizer-pipeline warm-edit leg must stay >= 5x of cold (regenerate
# any snapshot with the same bench's --write flag, e.g.
#   dune exec bench/bench_alias.exe -- --write
#   dune exec bench/bench_pipeline.exe -- --write).
bench-smoke:
	dune exec bench/bench_alias.exe -- --check
	dune exec bench/bench_sim.exe -- --check
	dune exec bench/bench_incr.exe -- --check
	dune exec bench/bench_server.exe -- --check
	dune exec bench/bench_pipeline.exe -- --check

# The daemon robustness gate: storm tbaad's dispatch stack with the
# seeded chaos harness (malformed JSON, ill-typed documents, oversized
# batches, deadline-busting queries, fault-injected engines) across
# several seeds, then fire the load generator's shed/backoff burst via
# the server bench. Fails on any crash, any non-structured error, any
# unsound degraded answer, or any document that does not recover.
serve-smoke:
	dune build bin
	dune exec bin/tbaad.exe -- --chaos 1 --chaos-ops 400 --workers 2
	dune exec bin/tbaad.exe -- --chaos 2 --chaos-ops 400 --workers 2
	dune exec bin/tbaad.exe -- --chaos 3 --chaos-ops 400 --workers 2

clean:
	dune clean
