#!/usr/bin/env bash
# Run a fixed list of CLI argvs under two source trees, this checkout and a
# base checkout, and report every difference between them: the run
# directories, stdout, stderr and exit codes, compared with `diff -r`.
#
#   tools/compare_runs.sh BASE_TREE [WORK_DIR]
#
# BASE_TREE is another checkout of photonlink (its `src/` is imported);
# WORK_DIR (default: a new temporary directory) receives one directory per
# tree and argv.  Each run imports `<tree>/src` on one BLAS thread and writes
# into `out/` under its own working directory, so the two trees' runs differ
# only where the programs do; the tree's path is replaced by `<tree>` in
# stdout and stderr, where warnings name source files.  When something
# differs, tools/numeric_diff.py then prints, for each differing file, the
# largest change of any number in it and where, and what else differs.
# Exits 0 when nothing differs, 1 when something does, 2 on bad usage.  A
# change that moves a number on purpose differs from its parent here, so
# comparing against another checkout is done by hand; given this checkout
# itself as BASE_TREE (`tools/compare_runs.sh .`, a CI step) it checks that
# every argv gives the same bytes in fresh processes.
set -u

if [ $# -lt 1 ] || [ $# -gt 2 ] || [ ! -d "$1/src/photonlink" ]; then
    echo "usage: $0 BASE_TREE [WORK_DIR]  (BASE_TREE holds src/photonlink)" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")/.." && pwd)
base=$(cd "$1" && pwd)
work=${2:-$(mktemp -d)}

# the benchmark's argvs (perfbench/workloads.py) at its seeds 1 and 7919
# are among them, so a byte-identity claim covers every run its gate checks
argvs=(
    "--scenario emit-a"
    "--scenario emit-b"
    "--scenario transfer"
    "--scenario transfer --dt 0.5"
    "--scenario qpt"
    "--scenario qpt --shots 20000 --seed 1"
    "--scenario qpt --shots 20000 --seed 7919"
    "--scenario entangle"
    "--scenario entangle --shots 20000 --seed 1"
    "--scenario entangle --shots 20000 --seed 7919"
    "--scenario upgrade"
    "--scenario upgrade --shots 5000 --seed 3"
    "--scenario budget"
    "--scenario readout-sim --shots 2000"
    "--scenario readout-sim --shots 25000 --seed 7919"
    "--scenario sweep --sweep-param eta_c --sweep-values 0.72,0.77,0.90,1.0"
    "--scenario sweep --sweep-param eta_c --sweep-values 0.77,0.89,0.98"
    "--scenario sweep --sweep-param eta_c --sweep-values 0.77,0.81,0.98"
    "--scenario sweep --sweep-param eta_c --sweep-values 0.77,0.9 --shots 2000 --seed 5"
    "--scenario sweep --sweep-param dt --sweep-values 0.5,1,0.5"
    "--scenario sweep --sweep-param idle_ns --sweep-values 40,0 --t-scale 1e-4"
    "--scenario sweep --sweep-param dt --sweep-values 0.5,1 --t-scale 3e-4"
)

for side in base this; do
    tree=$base
    [ "$side" = this ] && tree=$here
    for i in "${!argvs[@]}"; do
        dir="$work/$side/$i"
        mkdir -p "$dir"
        # word splitting of the argv string is intended: no argv holds a space
        # shellcheck disable=SC2086
        (cd "$dir" && PYTHONPATH="$tree/src" OPENBLAS_NUM_THREADS=1 PYTHONDONTWRITEBYTECODE=1 \
            python3 -m photonlink.cli --out out ${argvs[$i]} >stdout.raw 2>stderr.raw
         echo $? >exit_code)
        for stream in stdout stderr; do
            sed "s|$tree|<tree>|g" "$dir/$stream.raw" >"$dir/$stream"
            rm "$dir/$stream.raw"
        done
        echo "$side $i: exit $(cat "$dir/exit_code"): ${argvs[$i]}"
    done
done

if diff -r "$work/base" "$work/this"; then
    echo "no difference ($work)"
else
    python3 "$here/tools/numeric_diff.py" "$work/base" "$work/this"
    echo "differences found ($work)" >&2
    exit 1
fi
