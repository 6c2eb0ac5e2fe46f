#!/usr/bin/env bash
# The repository's benchmark, in one command (see benchmark/README.md):
#
#   benchmark/run.sh                      all six workloads, prints every end-to-end metric
#   benchmark/run.sh --trace              adds the traced run: per-layer metrics and span files
#   benchmark/run.sh --repeat-check       runs the set twice; fails unless the two agree
#   benchmark/run.sh --self-test          the unit tests of the harness itself
#   benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
#                                         one workload on a time budget, as the driver calls it
#
# Builds the release `scenarios` binary of the repository first, then the
# harness. Results go to benchmark/out/; the last line of stdout is one JSON
# object with the metrics. Exits with a code other than 0 when a build or a
# check fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ ! -f Cargo.toml ] || [ ! -d crates/workload ]; then
    echo "error: $(pwd) is not a checkout of the repository: nothing to build and measure" >&2
    exit 2
fi

# with CARGO_TARGET_DIR set, every build shares it; without, the harness
# keeps its artefacts under benchmark/ and leaves the root's target/ alone
root_target=${CARGO_TARGET_DIR:-target}
bench_target=${CARGO_TARGET_DIR:-benchmark/target}

if [ "${1:-}" = "--self-test" ]; then
    cargo test --release --offline --manifest-path benchmark/e2e/Cargo.toml --target-dir "$bench_target"
    cargo test --release --offline --manifest-path benchmark/layers/Cargo.toml --target-dir "$bench_target"
    exit 0
fi

# the layers package links against the crates it probes, so it is built
# only for a traced run: when an API change breaks it, the end-to-end
# numbers are still there
trace=0
prev=
for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then trace=1; fi
    if [ "$prev" = "--trace" ] && [ "$arg" = "0" ]; then trace=0; fi
    prev=$arg
done

cargo build --release --offline --manifest-path Cargo.toml -p mm-workload --bin scenarios >&2
cargo build --release --offline --manifest-path benchmark/e2e/Cargo.toml --target-dir "$bench_target" >&2
layers=()
if [ "$trace" = 1 ]; then
    if [ -f benchmark/layers/Cargo.toml ] &&
        cargo build --release --offline --manifest-path benchmark/layers/Cargo.toml --target-dir "$bench_target" >&2; then
        layers=(--layers-bin "$bench_target/release/mm-bench-layers")
    else
        echo "warning: benchmark/layers did not build: the traced run will fail, the end-to-end run is unaffected" >&2
    fi
fi

exec "$bench_target/release/mm-bench-e2e" --scenarios-bin "$root_target/release/scenarios" ${layers[@]+"${layers[@]}"} "$@"
