#!/usr/bin/env bash
# Builds the HiLight benchmark from the checkout it is run in and runs it:
#
#   bash hlbench/run.sh --workload table1-compile --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. The build cache, temporary files,
# the binary and one machine-tagged result file per run all stay under
# .bench_build/ there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/results"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$root/hlbench" build -o "$build/hlbench" .

# The source a result came from: the git commit when the checkout is a
# repository, otherwise a digest of every Go source and module file.
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
else
	commit="src-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

exec "$build/hlbench" --results "$build/results" --commit "$commit" "$@"
