#!/usr/bin/env bash
# Regenerates cmd/*/default.pgo: one CPU profile of BenchmarkLedgerCells
# (bench_test.go: the 28 collector-matrix cells and one default sweep,
# which is all the traffic the binaries serve), copied byte for byte
# beside every main.go. Plain `go build` picks the file up, and equal
# bytes let the seven builds share one set of dependency objects. Run it
# after a PR that rewrites a hot path or claims a wall_s gain (DESIGN.md
# §5 "Profile-guided builds"). The test binary and the raw profile stay
# in a temporary directory outside the tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cd "$root"
go test -run '^$' -bench '^BenchmarkLedgerCells$' -benchtime 5x \
  -o "$tmp/repro.test" -cpuprofile "$tmp/cpu.pprof" .
for main in cmd/*/main.go; do
  cp "$tmp/cpu.pprof" "$(dirname "$main")/default.pgo"
done
sha256sum cmd/*/default.pgo
