#!/usr/bin/env bash
# Compare what the qidsim CLI writes from two source trees.
#
#   tools/compare_outputs.sh BASE HEAD
#
# BASE and HEAD are checkouts of this repository, for example a git worktree
# of the base commit and the working tree.  Each command below runs once per
# side, with PYTHONPATH=<side>/src and QIDSIM_OUTPUT_DIR set to a fresh
# directory of that side, so a relative --out path or --dump-wigner stem
# writes there.
# Stdout, stderr, the exit code and every file a command writes must be
# byte-identical.  Each command that differs is printed with the start of
# its diff, and the script then exits 1; it exits 0 when every command
# matches, and 2 when it cannot run them.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BASE HEAD" >&2
    exit 2
fi
for root in "$1" "$2"; do
    if [ ! -d "$root/src/qidsim" ]; then
        echo "error: $root has no src/qidsim" >&2
        exit 2
    fi
done
python=${PYTHON:-python3}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

commands=(
    "cv --xi 0.5,3 --grid 512"
    "cv"
    "cv --xi 0,0.25,1.5,2.5,3 --alpha 0.2 --grid 700"
    "cv --xi 4,6,8,20,100"
    "cv --xi 2.75 --grid 256"
    "cv --xi 3 --grid 64"
    "cv --grid 8"
    "cv --xi 0.5 --grid 8"
    "cv --xi 1 --grid 256 --dump-wigner w --format csv"
    "cv --xi 0,0.5,3 --grid 160 --dump-wigner j --format json"
    "cv --xi 0.5 --grid 513 --format json"
    "cv --xi 0.5,3 --grid 512 --alpha 1"
    "distribute --dim 64 --alpha 0.3 --input random:3"
    "distribute --dim 65 --alpha 0.3 --input random:3"
    "distribute --dim 3 --alpha 0.5 --input 1,1j,0.5"
    "distribute --dim 5 --alpha 0.6 --input random:18446744073709551616"
    "covariance --dim 5 --trials 2 --seed 1"
    "covariance --dim 4 --trials 20 --seed 3"
    "covariance --dim 3 --trials 2 --seed 18446744073709551616"
    "clone --dim-range 2:12"
    "clone"
    "clone --dim-range 3:3 --format json"
    "coherent-clone --displacement 3+4j"
    "distribute --dim 4 --alpha 0.5 --out d.json"
    "clone --dim-range 2:5 --out c.csv"
    "cv --xi 0.5 --grid 256 --format json --out r.json"
)

for side in base head; do
    if [ "$side" = base ]; then root=$1; else root=$2; fi
    src=$(cd "$root/src" && pwd)
    # the package must come from this side's tree, not from an installed copy
    found=$(PYTHONPATH=$src "$python" -c 'import qidsim; print(qidsim.__file__)')
    if [ "$found" != "$src/qidsim/__init__.py" ]; then
        echo "error: $side imports qidsim from $found, not from $src" >&2
        exit 2
    fi
    for i in "${!commands[@]}"; do
        run=$work/$side/$i
        mkdir -p "$run/files"
        code=0
        # word splitting of the command is intended: no argument has a space
        # shellcheck disable=SC2086
        PYTHONPATH=$src QIDSIM_OUTPUT_DIR=$run/files \
            "$python" -m qidsim.cli ${commands[$i]} >"$run/stdout" 2>"$run/stderr" || code=$?
        echo "$code" >"$run/exit_code"
    done
done

status=0
for i in "${!commands[@]}"; do
    if ! diff -r "$work/base/$i" "$work/head/$i" >"$work/diff"; then
        echo "differs: qidsim ${commands[$i]}"
        head -n 40 "$work/diff" | cut -c 1-200
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "all ${#commands[@]} commands match"
fi
exit "$status"
