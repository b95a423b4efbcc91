#!/bin/sh
# Rewrites the paper-bench goldens from a build: for each
# bench/golden/<name>.txt, runs build/bench/bench_<name> with
# OVSX_OBS_JSON=obs.json in a scratch directory (the same relative path
# check.cmake uses) and keeps its stdout, plus <name>.obs.json when the
# bench publishes one.
#
#   bench/golden/regenerate.sh [build-dir]    (default: build)
#
# A change that moves a paper number regenerates the goldens and the
# EXPERIMENTS.md rows together.
set -eu
build=$(cd "${1:-build}" && pwd)
golden=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
for txt in "$golden"/*.txt; do
    name=$(basename "$txt" .txt)
    rm -f obs.json
    OVSX_OBS_JSON=obs.json "$build/bench/bench_$name" > "$txt"
    if [ -f obs.json ]; then
        mv obs.json "$golden/$name.obs.json"
    else
        rm -f "$golden/$name.obs.json"
    fi
done
