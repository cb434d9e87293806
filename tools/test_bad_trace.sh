#!/bin/sh
# Bad-trace probe: replay a malformed trace, and pass only if it
# exits with status exactly 1, names the problem on stderr, and
# prints no panic (an internal assertion is a crash, not a format
# error).
#
# Usage: test_bad_trace.sh MODE /path/to/quest
#   defaults   trace-gen's defaults (16 qubits) replayed with replay's
#              defaults (4 MCEs); stderr names the instruction and
#              --mces
#   flip40     a 4-qubit trace with the byte at offset 40 (the low
#              operand byte of instruction 16) inverted; as defaults
#   truncated  a 64-instruction trace cut to its first 41 bytes (the
#              8-byte header, 16 whole instructions and half of the
#              17th); stderr names the file and its 33-byte body
#   empty      a trace cut to its 8-byte header; stderr names the file
#              and says it holds no instructions
set -u

usage="usage: test_bad_trace.sh defaults|flip40|truncated|empty /path/to/quest"
mode="${1:?$usage}"
quest="${2:?$usage}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
t="$work/t.qtrace"
want='instruction *--mces'

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
    truncated)
        "$quest" trace-gen --out "$work/full.qtrace" --qubits 4 \
            --instructions 64 > /dev/null || exit 1
        head -c 41 "$work/full.qtrace" > "$t"
        want="$t*33-byte"
        ;;
    empty)
        "$quest" trace-gen --out "$work/full.qtrace" --qubits 4 \
            --instructions 64 > /dev/null || exit 1
        head -c 8 "$work/full.qtrace" > "$t"
        want="$t*no instructions"
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
# shellcheck disable=SC2254
case "$err" in
    *$want*) ;;
    *)
        echo "FAIL: stderr does not match '$want':" >&2
        echo "$err" >&2
        exit 1
        ;;
esac
