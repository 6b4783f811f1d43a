#!/bin/sh
# Ratio gate over two `skyprob serve` logs.
#
#   ci/serve_ratio.sh LOG_A LOG_B FIELD FLOOR
#
# Reads the number printed right after FIELD on the first line of each
# log that contains FIELD (for example `requests/s` or `first all-sky:`),
# prints A / B, and exits nonzero when the ratio is below FLOOR or either
# number is missing. serve prints the numbers it is gated on without
# units in the way: requests/s as a plain rate, all-sky times in seconds.
set -eu
if [ $# -ne 4 ]; then
    echo "usage: $0 LOG_A LOG_B FIELD FLOOR" >&2
    exit 2
fi

pick() {
    awk -v field="$2" '
        index($0, field) {
            rest = substr($0, index($0, field) + length(field))
            if (match(rest, /^ *[0-9]+(\.[0-9]+)?/)) {
                print substr(rest, RSTART, RLENGTH) + 0
            }
            exit
        }' "$1"
}

a=$(pick "$1" "$3")
b=$(pick "$2" "$3")
if [ -z "$a" ] || [ -z "$b" ]; then
    echo "serve_ratio: no number after '$3' in $1 ('$a') or $2 ('$b')" >&2
    exit 1
fi
awk -v a="$a" -v b="$b" -v floor="$4" -v field="$3" 'BEGIN {
    ratio = b > 0 ? a / b : 0
    verdict = ratio >= floor ? "ok" : "FAIL"
    printf "%s %s / %s = %.2fx (floor %sx): %s\n", field, a, b, ratio, floor, verdict
    exit ratio >= floor ? 0 : 1
}'
