#!/usr/bin/env bash
# Regenerates cmd/*/default.pgo: one CPU profile of BenchmarkLedgerCells
# (bench_test.go: the 28 collector-matrix cells and one default sweep,
# which is all the traffic the binaries serve), copied byte for byte
# beside every main.go. Plain `go build` picks the file up, and equal
# bytes let the six builds share one set of dependency objects. Run it
# after a PR that rewrites a hot path or claims a wall_s gain (DESIGN.md
# §5 "Profile-guided builds"). The test binary and the raw profile stay
# in a temporary directory outside the tree.
#
# Then it checks what the new profile makes the compiler do, and exits 1
# if it inlines vm.(*Thread).Call into raytrace's recursive shade: one
# sample in three did, and that build ran every raytrace and mtrt cell
# 20-35 % slower (DESIGN.md §5 "The forest lives in the record"). The
# sample is a coin; run pgo.sh again. It also exits 1 unless the profile
# inlines the allocation path whole, four hot-budget edges:
# vm.(*Frame).alloc into (*Frame).New, heap.(*Heap).Alloc into
# (*Frame).alloc, and heap.(*Heap).bindRefs and heap.(*Arena).Alloc into
# (*Heap).Alloc. The first two sit at the hot budget's edge, and a
# handle-table change that costs Heap.Alloc a few nodes more drops the
# first. The last two are keyed by their line offsets inside Heap.Alloc,
# so a line added to or removed from it drops them without a word.
# `bash pgo.sh --check` runs only the checks, against the committed
# profile.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cd "$root"

check() {
  go build -o "$tmp/cgrun" -gcflags='repro/internal/...=-m -d=pgodebug=1' ./cmd/cgrun 2>"$tmp/inline.txt"
  if grep 'hot-budget check allows inlining' "$tmp/inline.txt" |
    grep 'Thread).Call .* in function repro/internal/workload.shade$' >&2; then
    echo "pgo.sh: cmd/cgrun/default.pgo inlines Thread.Call into raytrace's shade (above); rerun pgo.sh" >&2
    exit 1
  fi
  echo "pgo.sh: the profile does not inline Thread.Call into shade"
  inlined 'vm.(*Frame).alloc' 'vm.(*Frame).New' '(*Frame).alloc'
  inlined 'heap.(*Heap).Alloc' 'vm.(*Frame).alloc' 'heap.(*Heap).Alloc'
  inlined 'heap.(*Heap).bindRefs' 'heap.(*Heap).Alloc' '(*Heap).bindRefs'
  inlined 'heap.(*Arena).Alloc' 'heap.(*Heap).Alloc' '(*Arena).Alloc'
}

# inlined CALLEE CALLER NAME exits 1 unless -m reports "inlining call to
# NAME" at every site where the hot budget let repro/internal/CALLEE into
# repro/internal/CALLER, and there is at least one such site.
inlined() {
  local sites
  sites="$(grep -F "for call repro/internal/$1 (cost" "$tmp/inline.txt" |
    grep -F " in function repro/internal/$2" | sed -E 's/.* at ([^ ]+) in function .*/\1/' | sort -u || true)"
  for site in $sites; do
    grep -qF "$site: inlining call to $3" "$tmp/inline.txt" || sites=""
  done
  if [ -z "$sites" ]; then
    echo "pgo.sh: cmd/cgrun/default.pgo does not inline $1 into $2; rerun pgo.sh, or cut the callee's cost" >&2
    exit 1
  fi
  echo "pgo.sh: the profile inlines $1 into $2"
}

if [ "${1:-}" = "--check" ]; then
  check
  exit 0
fi
go test -run '^$' -bench '^BenchmarkLedgerCells$' -benchtime 5x \
  -o "$tmp/repro.test" -cpuprofile "$tmp/cpu.pprof" .
for main in cmd/*/main.go; do
  cp "$tmp/cpu.pprof" "$(dirname "$main")/default.pgo"
done
sha256sum cmd/*/default.pgo
check
