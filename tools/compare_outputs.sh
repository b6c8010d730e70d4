#!/usr/bin/env bash
# Output-equivalence check between two source trees of nlheat.
#
# Usage: tools/compare_outputs.sh PARENT CHANGE OUT
#
# PARENT and CHANGE are checkouts of this repository (each with src/ and
# benchmarks/configs/). In each tree the script runs, with --threads 1 unless
# stated:
#   - the command of each benchmarks/configs/*.yaml (inflate, perturb, besov
#     or tables) at --seed 1 and --seed 2;
#   - nlheat identities --seed 5;
#   - nlheat sample and nlheat solve on a d = 3 dym powerlog N = 4 config;
#   - a fixed-step (solver.tol: null) solve at d = 1;
#   - a d = 2 powerlog tables run with --threads 2;
#   - an inflate run with a vector base and epsilon 0.5.
# Each run leaves its output directory, stdout, stderr and exit code under
# OUT/parent or OUT/change; the extra configs go to OUT/configs. Nothing is
# written outside OUT (bytecode writing is off). Then `diff -r` compares the
# two sides. Exit status: 0 when nothing differs, 1 when something does,
# 2 on usage errors.
set -u

if [ $# -ne 3 ] || [ ! -d "$1/src/nlheat" ] || [ ! -d "$2/src/nlheat" ]; then
    echo "usage: $0 PARENT CHANGE OUT (PARENT and CHANGE hold src/nlheat)" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
configs="$out/configs"
rm -rf "$configs" "$out/parent" "$out/change"
mkdir -p "$configs"

cat > "$configs/dym-d3-sample.yaml" <<'EOF'
kind: sample
seed: 3
grid: {dim: 3}
profile: {kind: powerlog}
nonlinearity: {preset: dym, algebra: so3}
experiment: {radii: [4], trials: 1}
EOF
sed 's/^kind: sample/kind: solve/' "$configs/dym-d3-sample.yaml" \
    > "$configs/dym-d3-solve.yaml"
cat > "$configs/fixed-step-solve.yaml" <<'EOF'
kind: solve
seed: 4
grid: {dim: 1}
profile: {kind: white}
nonlinearity: {preset: antisym2}
solver: {tol: null}
experiment: {radii: [32], trials: 1, log_exponent: 3}
EOF
cat > "$configs/powerlog-d2-tables.yaml" <<'EOF'
kind: tables
seed: 3
grid: {dim: 2}
profile: {kind: powerlog}
nonlinearity: {preset: dym, algebra: so3}
experiment: {radii: [8, 16], trials: 6}
EOF
cat > "$configs/base-inflate.yaml" <<'EOF'
kind: inflate
seed: 5
grid: {dim: 1}
profile: {kind: white}
nonlinearity: {preset: antisym2}
experiment: {radii: [16, 32], trials: 2, log_exponent: 3, epsilon: 0.5,
             base: [0.25, -0.5]}
EOF

# run SIDE TREE NAME ARGS...: one nlheat command, from OUT/SIDE
run() {
    local dir="$out/$1" tree=$2 name=$3
    shift 3
    mkdir -p "$dir"
    (cd "$dir" && PYTHONPATH="$tree/src" PYTHONDONTWRITEBYTECODE=1 \
        python3 -m nlheat.cli "$@" > "$name.stdout" 2> "$name.stderr"
     echo $? > "$name.exit")
}

for side in parent change; do
    tree=${!side}
    for config in "$tree"/benchmarks/configs/*.yaml; do
        base=$(basename "$config" .yaml)
        kind=$(sed -n 's/^kind: *\([a-z]*\).*/\1/p' "$config")
        for seed in 1 2; do
            run "$side" "$tree" "$base-seed$seed" "$kind" --config "$config" \
                --seed "$seed" --threads 1 --out "runs/$base-seed$seed"
        done
    done
    run "$side" "$tree" identities identities --seed 5
    for name in dym-d3-sample dym-d3-solve fixed-step-solve base-inflate; do
        kind=$(sed -n 's/^kind: *//p' "$configs/$name.yaml")
        run "$side" "$tree" "$name" "$kind" --config "$configs/$name.yaml" \
            --threads 1 --out "runs/$name"
    done
    run "$side" "$tree" powerlog-d2-tables tables \
        --config "$configs/powerlog-d2-tables.yaml" --threads 2 \
        --out "runs/powerlog-d2-tables"
done

if diff -r "$out/parent" "$out/change"; then
    echo "no difference in $(find "$out/parent" -type f | wc -l) files"
    exit 0
fi
echo "outputs differ" >&2
exit 1
