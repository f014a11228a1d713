#!/bin/sh
# Tier-1 gate: formatting of dune files, full build, full test suite.
set -eu
cd "$(dirname "$0")"

# Every BENCH_*.json this script writes is a CI artifact and must parse:
# the writers hand-roll their JSON, so a `%.3f` of nan or a slipped quote
# would otherwise ship an unreadable artifact unnoticed.
check_json() { python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$1"; }

dune build @fmt
dune build
dune runtest

# CLI regression, explicitly: campaign -j independence, crash survival,
# db rank coverage preservation (test/cli/check_campaign.ml)
dune build @test/cli/runtest

# Observability smoke: a tiny parallel campaign with live progress and a
# merged Chrome trace; the trace must parse and span the orchestrator plus
# both worker lanes (test/cli/check_trace.ml). The trace is kept at the
# repo root so CI can upload it as an artifact.
rm -rf ci_campaign.db ci_trace.json
dune exec --no-build bin/sic.exe -- campaign --db ci_campaign.db -j 2 \
  --progress --trace ci_trace.json \
  --design counter --design gcd --backend compiled --seeds 1 --cycles 300
dune exec --no-build test/cli/check_trace.exe -- ci_trace.json 3
rm -rf ci_campaign.db

# Coverage-closure smoke: the formal <-> fuzz loop on the closure fixture
# must reach a fixpoint with every point covered or formally excluded
# (exit 0 = nothing open), the closed database's report must carry the
# exclusion section, and rank --json must see an empty uncovered list.
# The bench (BENCH_close.json, uploaded as a CI artifact) re-runs the
# loop at -j 1 / -j 2 and fails if the database bytes differ.
rm -rf ci_close.db
dune exec --no-build bin/sic.exe -- close --db ci_close.db --design closefix \
  --bound 8 -j 2
dune exec --no-build bin/sic.exe -- db report ci_close.db | grep -q 'proven unreachable'
dune exec --no-build bin/sic.exe -- db rank ci_close.db --json | grep -q '"uncovered":\[\]'
SIC_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- close
check_json BENCH_close.json
rm -rf ci_close.db

# Simulation throughput smoke: tiny traces and measurement quota, but the
# full pipeline — every backend replays every Table 2 workload and must
# produce identical coverage counts before timing. Writes BENCH_sim.json
# (uploaded as a CI artifact) in the same layout as a full run.
SIC_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- sim
check_json BENCH_sim.json

# Lane-engine smoke: at --lanes 1 the bit-parallel engine runs lockstep,
# so its saved counts must be byte-identical to compiled's under the same
# seed; then a full-width 62-seed pass on the same design must complete.
# (The per-lane exactness differential — lane k vs a solo compiled run on
# stream k — gates every design inside the sim bench above.)
rm -f ci_lanes_lockstep.bin ci_lanes_compiled.bin
dune exec --no-build bin/sic.exe -- cover --design serv --backend lanes \
  --cycles 2000 --save-counts ci_lanes_lockstep.bin > /dev/null
dune exec --no-build bin/sic.exe -- cover --design serv --backend compiled \
  --cycles 2000 --save-counts ci_lanes_compiled.bin > /dev/null
cmp ci_lanes_lockstep.bin ci_lanes_compiled.bin
dune exec --no-build bin/sic.exe -- cover --design serv --backend lanes \
  --lanes 62 --cycles 2000 > /dev/null
rm -f ci_lanes_lockstep.bin ci_lanes_compiled.bin

# Verilog frontend smoke, end to end on RTL this repo never generated:
# lower the vendored RISC-V core, insert the scan chain, simulate its
# t2a.hex program and preview line/toggle/FSM coverage; then render the
# HTML coverage report (kept at the repo root so CI can upload it as an
# artifact) and time the frontend (BENCH_verilog.json, also uploaded).
rm -f ci_verilog.html
dune exec --no-build bin/sic.exe -- scan examples/verilog/rv.v --line --toggle --fsm
dune exec --no-build bin/sic.exe -- cover examples/verilog/rv.v \
  --line --toggle --fsm --cycles 2000 --html ci_verilog.html
SIC_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- verilog
check_json BENCH_verilog.json

# Engine-profiler smoke on the same core: ranked hotspot tables with real
# source attribution, plus the collapsed-stack artifact (kept at the repo
# root so CI can upload it for flamegraph tooling). The ranked output
# must name actual rv.v lines, proving the tape -> statement -> source
# provenance chain survived lowering.
rm -f ci_hotspots.folded
dune exec --no-build bin/sic.exe -- hotspots examples/verilog/rv.v \
  --cycles 5000 --folded ci_hotspots.folded | tee /tmp/ci_hotspots.out
grep -q 'rv\.v:[0-9]' /tmp/ci_hotspots.out
grep -q 'rv\.v:[0-9]' ci_hotspots.folded

# Coverage-service smoke: in-process server on an ephemeral port — ingest
# rate plus cached / 304 / uncached GET /report latency and /watch SSE
# fan-out broadcast latency. Writes BENCH_serve.json (uploaded as a CI
# artifact) in the same layout as a full run. (The sic serve CLI itself
# is smoked by test/cli/check_serve.)
SIC_BENCH_SMOKE=1 dune exec --no-build bench/main.exe -- serve
check_json BENCH_serve.json

# Live-plane smoke against the real binary: attach a /watch subscriber,
# push a run, require one SSE delta within the timeout, validate the
# Prometheus exposition, and SIGTERM with the stream attached (must
# drain to exit 0). The rendered dashboard is kept at the repo root so
# CI can upload it as an artifact.
rm -f ci_dashboard.html
dune exec --no-build test/cli/check_watch.exe -- _build/default/bin/sic.exe ci_dashboard.html
rm -rf watch_smoke_db_*
