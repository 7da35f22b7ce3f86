#!/bin/sh
# Builds the benchmark and runs it with the arguments given:
#
#	sh perfbench/run.sh --workload doop_join --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files) and
# everything the benchmark writes goes under perfbench/out, so a run touches
# nothing outside its checkout. The first run in a checkout compiles the
# standard library into that cache; later runs find everything up to date.
set -e
cd "$(dirname "$0")"
mkdir -p out/gocache out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" GOTOOLCHAIN=local
go build -o out/bin/perfbench .
exec out/bin/perfbench "$@"
