#!/bin/sh
# Smoke-test the benchmark: all five workloads and one traced run on
# T5.I3.D2K, every BENCHMARK.json metric present, oracle green.  CI calls
# this one line; extra arguments go to pytest.
set -e
cd "$(dirname "$0")/.."
exec python3 -m pytest bench/test_smoke.py -q -p no:cacheprovider "$@"
