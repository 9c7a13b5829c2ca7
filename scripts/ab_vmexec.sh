#!/usr/bin/env bash
# Two-build A/B of VM execution speed: run the `selfbench --vmexec-only`
# probe from a parent build and a change build, alternating which goes
# first, N times, and print per VM the paired ratios (change / parent of
# the median fusion-on round wall time) and how many pairs the change won;
# then the same per kernel, from each probe's BENCH_vmexec.json, with the
# call-heavy CHStone kernels (AES, BLOWFISH, SHA, MIPS) listed apart and
# the other VM's ratio on the same kernel beside each as a control.
#
#   scripts/ab_vmexec.sh <parent selfbench> <change selfbench> [pairs]
#
# Both binaries must have the `--vmexec-only` mode (a parent that predates
# it can be given this tree's crates/harness/src/bin/selfbench.rs before
# it is built). A binary named without a `/` is looked up on PATH, as the
# shell would run it. The script stops, naming the probe, if a binary is
# not an executable file, or if a probe exits non-zero or prints no
# median for either VM. Default: 10 pairs. Output goes to a temporary
# directory; nothing in the working tree is written.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: $0 <parent selfbench> <change selfbench> [pairs]" >&2
    exit 2
fi
parent=$1
change=$2
pairs=${3:-10}
for side in parent change; do
    bin=${!side}
    if [[ $bin != */* ]]; then
        bin=$(command -v -- "$bin" || true)
    fi
    if [[ -z $bin || ! -f $bin || ! -x $bin ]]; then
        echo "$0: the $side selfbench '${!side}' is not an executable file (a name without '/' is looked up on PATH)" >&2
        exit 2
    fi
    printf -v "$side" '%s' "$bin"
done
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Run one probe of binary $1, named $2 in messages, and set `wasm` and
# `js` to its median fusion-on round wall time per VM. Its per-kernel
# medians go to $work/kernels as "<pair> <p|c> <vm> <kernel>@<size>
# <seconds>" lines, tagged with $3. Stops the script if the probe exits
# non-zero or prints no positive median for either VM.
probe() {
    local log="$work/probe.log"
    rm -f "$work/BENCH_vmexec.json"
    if ! "$1" --vmexec-only --out "$work" >"$log" 2>&1; then
        echo "$0: probe $2 ($1) exited non-zero; the end of its output:" >&2
        tail -n 20 "$log" >&2
        exit 1
    fi
    read -r wasm js < <(awk '/^\[vmexec\] (wasm|js):/ {
                 vm = $2; sub(":", "", vm)
                 for (i = 1; i <= NF; i++) if ($i == "median") { t[vm] = $(i + 1); break }
             }
             END { print t["wasm"] + 0, t["js"] + 0 }' "$log")
    if ! awk -v w="$wasm" -v j="$js" 'BEGIN { exit !(w > 0 && j > 0) }' || [[ ! -f $work/BENCH_vmexec.json ]]; then
        echo "$0: probe $2 ($1) printed no [vmexec] wasm and js medians (wasm '$wasm', js '$js') or wrote no BENCH_vmexec.json" >&2
        exit 1
    fi
    awk -v tag="$3" '
        /"vm": "/ { vm = $0; sub(/.*"vm": "/, "", vm); sub(/".*/, "", vm) }
        /"kernel": "/ {
            k = $0; sub(/.*"kernel": "/, "", k); sub(/".*/, "", k)
            s = $0; sub(/.*"size": "/, "", s); sub(/".*/, "", s)
            t = $0; sub(/.*"fused_wall_s_q1_median_q3": \[/, "", t); split(t, q, /, */)
            print tag, vm, k "@" s, q[2]
        }' "$work/BENCH_vmexec.json" >>"$work/kernels"
}

declare -a wasm_ratios js_ratios
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        probe "$parent" "parent $((i + 1))" "$i p"
        pw=$wasm pj=$js
        probe "$change" "change $((i + 1))" "$i c"
        cw=$wasm cj=$js
    else
        probe "$change" "change $((i + 1))" "$i c"
        cw=$wasm cj=$js
        probe "$parent" "parent $((i + 1))" "$i p"
        pw=$wasm pj=$js
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

# Per kernel: the paired ratios of its fusion-on median, grouped per VM
# into the call-heavy CHStone kernels and the rest. Each line ends with
# the other VM's ratio on the same kernel as a control: a change to one
# VM leaves the other's code as it was, so that column shows how far the
# host alone moves a kernel.
awk '
    # Median paired ratio and wins of kernel key k, into med[k], won[k]
    # and pairs[k].
    function ratios(k,   i, m, a, b, x, r) {
        m = 0; won[k] = 0
        for (i = 0; (k, i, "p") in t || (k, i, "c") in t; i++) {
            if (!((k, i, "p") in t) || !((k, i, "c") in t) || t[k, i, "p"] <= 0) continue
            r[++m] = t[k, i, "c"] / t[k, i, "p"]
            if (r[m] < 1) won[k]++
        }
        for (a = 2; a <= m; a++) for (b = a; b > 1 && r[b - 1] > r[b]; b--) { x = r[b]; r[b] = r[b - 1]; r[b - 1] = x }
        pairs[k] = m
        if (m > 0) med[k] = (m % 2) ? r[(m + 1) / 2] : (r[m / 2] + r[m / 2 + 1]) / 2
    }
    { t[$3 " " $4, $1, $2] = $5; key[$3 " " $4] = 1 }
    END {
        for (k in key) ratios(k)
        for (k in key) {
            if (pairs[k] == 0) continue
            split(k, f, " "); name = f[2]; sub(/@.*/, "", name)
            group = (name ~ /^(AES|BLOWFISH|SHA|MIPS)$/) ? "call-heavy" : "other"
            other = (f[1] == "wasm" ? "js" : "wasm")
            line = sprintf("%s %s %s: median change/parent %.4f (%+.1f%%), change won %d of %d pairs",
                f[1], group, f[2], med[k], (med[k] - 1) * 100, won[k], pairs[k])
            c = other " " f[2]
            if (pairs[c] > 0)
                line = line sprintf("; %s control %.4f (%+.1f%%), won %d of %d",
                    other, med[c], (med[c] - 1) * 100, won[c], pairs[c])
            print line
        }
    }' "$work/kernels" | sort
