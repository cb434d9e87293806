#!/bin/sh
# Bad-trace probe: replay a trace that names logical qubits `quest
# replay` never places, and pass only if it exits with status exactly
# 1, names the instruction and --mces on stderr, and prints no
# panic (an internal assertion is a crash, not a format error).
#
# Usage: test_bad_trace.sh MODE /path/to/quest
#   defaults  trace-gen's defaults (16 qubits) replayed with replay's
#             defaults (4 MCEs)
#   flip40    a 4-qubit trace with the byte at offset 40 (the low
#             operand byte of instruction 16) inverted
set -u

mode="${1:?usage: test_bad_trace.sh defaults|flip40 /path/to/quest}"
quest="${2:?usage: test_bad_trace.sh defaults|flip40 /path/to/quest}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
t="$work/t.qtrace"

case "$mode" in
    defaults)
        "$quest" trace-gen --out "$t" > /dev/null || exit 1
        ;;
    flip40)
        "$quest" trace-gen --out "$t" --qubits 4 --instructions 64 \
            > /dev/null || exit 1
        b=$(od -An -tu1 -j40 -N1 "$t" | tr -d ' ')
        # shellcheck disable=SC2059
        printf "$(printf '\\%03o' $((b ^ 255)))" \
            | dd of="$t" bs=1 seek=40 conv=notrunc 2> /dev/null
        ;;
    *)
        echo "unknown mode '$mode'" >&2
        exit 1
        ;;
esac

err="$("$quest" replay --trace "$t" --rounds 16 2>&1 >/dev/null)"
rc=$?
if [ "$rc" -ne 1 ]; then
    echo "FAIL: replay of the $mode trace exited $rc, want 1" >&2
    echo "$err" >&2
    exit 1
fi
case "$err" in
    *"panic:"*)
        echo "FAIL: replay of the $mode trace panicked:" >&2
        echo "$err" >&2
        exit 1
        ;;
esac
case "$err" in
    *"instruction "*"--mces"*) ;;
    *)
        echo "FAIL: stderr does not name the instruction and --mces:" >&2
        echo "$err" >&2
        exit 1
        ;;
esac
