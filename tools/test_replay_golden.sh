#!/bin/sh
# Golden-output check for `quest replay`: replay a seeded 4-qubit
# trace with and without the classical fault model and diff stdout
# against the committed outputs in tools/golden/. Any change to the
# decode path, the bus accounting or the fault draws shows up here.
#
# Usage: test_replay_golden.sh /path/to/quest /path/to/golden-dir
set -eu

quest="${1:?usage: test_replay_golden.sh /path/to/quest GOLDEN_DIR}"
golden="${2:?usage: test_replay_golden.sh /path/to/quest GOLDEN_DIR}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

"$quest" trace-gen --out "$work/t4.qtrace" --qubits 4 --seed 7 \
    > /dev/null
"$quest" replay --trace "$work/t4.qtrace" --error-rate 2e-3 \
    > "$work/replay_plain.txt"
"$quest" replay --trace "$work/t4.qtrace" --error-rate 2e-3 \
    --fault-rate 2e-2 --faults-report > "$work/replay_faults.txt"
diff -u "$golden/replay_plain.txt" "$work/replay_plain.txt"
diff -u "$golden/replay_faults.txt" "$work/replay_faults.txt"
