#!/bin/sh
# Golden-output check for `quest simulate`: seeded offline runs (one
# LUT-dominated, two where the greedy matcher takes a share, one of
# them questbench's matching-heavy d=13 point) and sliding-window
# runs, diffed against tools/golden/simulate.txt.
# questbench parses these lines, and any change to the two-level
# decode step, the window commit rule or the matchers shows up here.
#
# Usage: test_simulate_golden.sh /path/to/quest /path/to/golden-dir
set -eu

quest="${1:?usage: test_simulate_golden.sh /path/to/quest GOLDEN_DIR}"
golden="${2:?usage: test_simulate_golden.sh /path/to/quest GOLDEN_DIR}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

{
    "$quest" simulate --distance 5 --error-rate 3e-3 --trials 20000 \
        --seed 1
    "$quest" simulate --distance 9 --error-rate 2e-2 --trials 300 \
        --seed 1
    "$quest" simulate --distance 13 --error-rate 1e-2 --trials 300 \
        --seed 1
    "$quest" simulate --distance 7 --error-rate 1e-2 --trials 2000 \
        --seed 1 --stream-window 6 --stream-stride 3
    "$quest" simulate --distance 9 --error-rate 2e-2 --trials 300 \
        --seed 1 --stream-window 6 --stream-stride 3
} > "$work/simulate.txt"
diff -u "$golden/simulate.txt" "$work/simulate.txt"
