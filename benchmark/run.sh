#!/usr/bin/env bash
# One command for the benchmark. Run it from the root of the checkout.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       one workload in one fresh process and deployment; prints every
#       metric by name with its unit, writes benchmark/out/<W>.json,
#       ends with the one-line JSON result; non-zero exit if any
#       correctness check failed
#   benchmark/run.sh --all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#       every workload in turn, results kept under DIR (default
#       benchmark/out/suite)
#   benchmark/run.sh --aa [--seed N] [--seconds S] [--runs R]
#       the suite twice over the same code (R runs per workload and
#       side, interleaved), then `compare`
#   benchmark/run.sh compare A B
#       one row per workload x end-to-end metric: both medians, the
#       ratio with its base, the bound and ok / regressed / unresolved;
#       non-zero exit on `regressed`
#   benchmark/run.sh spread [--seconds S] [--runs R]
#       R runs per workload on R seeds; the quartile spread of every
#       end-to-end metric against its bound
#   benchmark/run.sh --crash-check [--seed N]
#   benchmark/run.sh test
#       the benchmark's own unit tests
#
# The program is built from source, offline, into $CARGO_TARGET_DIR
# (default: the repo's own target/). Scratch deployments live under
# benchmark/out/ and are removed on every exit path; what a killed run
# left behind is removed by the next run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

case "${1:-}" in
    compare)
        exec python3 "$here/suite.py" "$@"
        ;;
    test)
        shift
        exec cargo test --release --offline --manifest-path "$here/Cargo.toml" "$@"
        ;;
esac

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/cpdb-benchmark"

case "${1:-}" in
    --all | --aa | spread)
        mode="${1#--}"
        shift
        CPDB_BENCHMARK_BIN="$bin" exec python3 "$here/suite.py" "$mode" "$@"
        ;;
    *)
        exec "$bin" "$@"
        ;;
esac
