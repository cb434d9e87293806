#!/bin/sh
# Usage-error probe: run a quest command that must be rejected at
# flag parsing, and pass only if it exits with status exactly 2 and
# names the offending flag on stderr. A crash (signal, assertion,
# abort) exits with some other status and fails the probe.
#
# Usage: test_usage_error.sh FLAG /path/to/quest ARGS...
set -u

flag="${1:?usage: test_usage_error.sh FLAG /path/to/quest ARGS...}"
shift
err="$("$@" 2>&1 >/dev/null)"
rc=$?
if [ "$rc" -ne 2 ]; then
    echo "FAIL: '$*' exited $rc, want 2" >&2
    echo "$err" >&2
    exit 1
fi
case "$err" in
    *"$flag"*) ;;
    *)
        echo "FAIL: stderr of '$*' does not name $flag:" >&2
        echo "$err" >&2
        exit 1
        ;;
esac
