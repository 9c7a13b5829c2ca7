#!/usr/bin/env bash
# Two-build A/B of VM execution speed: run the `selfbench --vmexec-only`
# probe from a parent build and a change build, alternating which goes
# first, N times, and print per VM the paired ratios (change / parent of
# the median fusion-on round wall time) and how many pairs the change won.
#
#   scripts/ab_vmexec.sh <parent selfbench> <change selfbench> [pairs]
#
# Both binaries must have the `--vmexec-only` mode (a parent that predates
# it can be given this tree's crates/harness/src/bin/selfbench.rs before
# it is built). Default: 10 pairs. Output goes to a
# temporary directory; nothing in the working tree is written.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: $0 <parent selfbench> <change selfbench> [pairs]" >&2
    exit 2
fi
parent=$1
change=$2
pairs=${3:-10}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Median fusion-on round wall time of one probe run, per VM: "wasm js".
probe() {
    "$1" --vmexec-only --out "$work" 2>&1 |
        awk '/^\[vmexec\] (wasm|js):/ {
                 vm = $2; sub(":", "", vm)
                 for (i = 1; i <= NF; i++) if ($i == "median") { t[vm] = $(i + 1); break }
             }
             END { print t["wasm"], t["js"] }'
}

declare -a wasm_ratios js_ratios
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        read -r pw pj < <(probe "$parent")
        read -r cw cj < <(probe "$change")
    else
        read -r cw cj < <(probe "$change")
        read -r pw pj < <(probe "$parent")
    fi
    wasm_ratios+=("$(awk -v c="$cw" -v p="$pw" 'BEGIN { printf "%.4f", c / p }')")
    js_ratios+=("$(awk -v c="$cj" -v p="$pj" 'BEGIN { printf "%.4f", c / p }')")
    echo "pair $((i + 1)): wasm parent ${pw}s change ${cw}s (${wasm_ratios[-1]}); js parent ${pj}s change ${cj}s (${js_ratios[-1]})"
done

summary() {
    local vm=$1
    shift
    printf '%s\n' "$@" | sort -n | awk -v vm="$vm" '
        { r[NR] = $1; if ($1 < 1) won++ }
        END {
            med = (NR % 2) ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2
            printf "%s: median change/parent %.4f (%+.1f%%), change won %d of %d pairs, ratios %s..%s\n",
                vm, med, (med - 1) * 100, won, NR, r[1], r[NR]
        }'
}
summary wasm "${wasm_ratios[@]}"
summary js "${js_ratios[@]}"
