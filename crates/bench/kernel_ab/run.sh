#!/bin/sh
# In-process kernel A/B: exports PARENT_REV (default HEAD~1) to
# target/kernel_ab/parent, renames its crates to version 0.0.9 so that cargo
# resolves them beside this checkout's 0.1.0, builds both into one binary and
# runs it pinned to the highest-numbered CPU this process is allowed.
#
#   crates/bench/kernel_ab/run.sh [PARENT_REV] [kernel_ab arguments…]
#   crates/bench/kernel_ab/run.sh HEAD~1 --reps 301 --only client_setup
#   crates/bench/kernel_ab/run.sh HEAD          # A/A: the harness's own noise
#
# `git archive`, not `git worktree`: the copy is a plain directory under
# target/, leaves nothing in .git and is replaced on every run.
set -eu
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
rev=HEAD~1
if [ $# -gt 0 ] && [ "${1#--}" = "$1" ]; then
    rev=$1
    shift
fi
parent="$root/target/kernel_ab/parent"
rm -rf "$parent"
mkdir -p "$parent"
git -C "$root" archive "$rev" | tar -x -C "$parent"
sed -i 's/^version = "0\.1\.0"$/version = "0.0.9"/' "$parent/Cargo.toml"
grep -q '^version = "0\.0\.9"$' "$parent/Cargo.toml" || {
    echo "run.sh: no workspace version line to rename in $rev's Cargo.toml" >&2
    exit 1
}
cargo build --release --quiet \
    --manifest-path "$root/crates/bench/kernel_ab/Cargo.toml" \
    --target-dir "$root/target/kernel_ab/build"
cpu=$(taskset -cp $$ | sed 's/.*[ ,-]//')
echo "# parent $(git -C "$root" rev-parse --short "$rev"), pinned to CPU $cpu" >&2
exec taskset -c "$cpu" "$root/target/kernel_ab/build/release/kernel_ab" "$@"
