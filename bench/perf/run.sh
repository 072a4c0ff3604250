#!/usr/bin/env bash
# Build the benchmark from source in this checkout (release profile),
# then run it with the given arguments, e.g.
#
#   bash bench/perf/run.sh --workload memcached-64t --seed 1 --seconds 10 --trace 0
#   bash bench/perf/run.sh --seed 42 --out a.json
#
# Build output goes to stderr, so the benchmark's last stdout line is its
# result.  The dune cache is off so that nothing is written outside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --profile release --cache=disabled ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
