#!/usr/bin/env bash
# Byte-identity check of a change against another commit.
#
#   tools/diff_bench_data.sh <git-ref> [bench ...]
#
# Builds <git-ref> from a clean export (`git archive`, so the repository's
# worktree list and index are never touched) and the working tree, then
# diffs, build against build:
#   * every bench's `data,` lines (the columns that hold wall-clock times are
#     masked: `fastopt` solve milliseconds, `micro` wall_ms and events/sec);
#   * every shipped scenario's `slate_cli` summary, with `grep -v wall-clock`,
#     at default arguments and at `--duration=3 --warmup=1`.
# Both builds run the working tree's scenario files, so the inputs match.
# Naming benches limits the bench part to them. Exits 0 when nothing
# differs, 1 on any difference (the diff is printed), 2 on usage errors.
#
# Environment:
#   DIFF_SCRATCH  scratch directory for the export, builds and outputs
#                 (default: ${TMPDIR:-/tmp}/slate-diff-bench-data); the
#                 ref's export, build and outputs are kept per commit and
#                 reused by later runs
#   DIFF_BUILD    build directory of the working tree (default: build)
#   DIFF_JOBS     parallel build jobs (default: 2)
#   SLATE_JOBS    passed through to the benches (default here: 2)
set -euo pipefail

if [ $# -lt 1 ] || [ "$1" = "-h" ] || [ "$1" = "--help" ]; then
  sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'
  [ $# -lt 1 ] && exit 2 || exit 0
fi
ref=$1
shift

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}") || {
  echo "diff_bench_data: unknown git ref '$ref'" >&2
  exit 2
}
scratch=${DIFF_SCRATCH:-${TMPDIR:-/tmp}/slate-diff-bench-data}
head_build=${DIFF_BUILD:-$root/build}
jobs=${DIFF_JOBS:-2}
export SLATE_JOBS=${SLATE_JOBS:-2}
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)

ref_src=$scratch/src-$sha
ref_build=$scratch/build-$sha
if [ ! -f "$ref_src/CMakeLists.txt" ]; then
  rm -rf "$ref_src"
  mkdir -p "$ref_src"
  git -C "$root" archive "$sha" | tar -x -C "$ref_src"
fi

if [ $# -gt 0 ]; then
  benches=("$@")
else
  # Every bench but the two that print no data lines: micro_dataplane
  # (google-benchmark) and micro_optimizer_scaling (a JSON baseline).
  benches=()
  for f in "$root"/bench/*.cc; do
    b=$(basename "$f" .cc)
    case $b in micro_dataplane | micro_optimizer_scaling) continue ;; esac
    benches+=("$b")
  done
fi

build() {  # <src> <build dir>
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$2" -j "$jobs" --target slate_cli "${benches[@]}" > /dev/null
}

# Masks the wall-clock columns of the data lines that carry them.
mask() {
  { grep '^data,' || true; } | awk -F, -v OFS=, '
    $2 == "fastopt" { $5 = "-"; $7 = "-" }
    $2 == "micro"   { $5 = "-"; $7 = "-" }
    { print }'
}

# Runs every bench and scenario into <output dir>. Outputs already there
# are kept: the ref's outputs are computed once per commit.
collect() {  # <build dir> <output dir>
  local bin=$1 out=$2 work name
  mkdir -p "$out/bench" "$out/scenario"
  work=$(mktemp -d "$scratch/run.XXXXXX")
  for b in "${benches[@]}"; do
    [ -f "$out/bench/$b.txt" ] && continue
    (cd "$work" && "$bin/bench/$b" "$work/$b.json") | mask > "$work/out"
    mv "$work/out" "$out/bench/$b.txt"
  done
  for f in "$root"/examples/scenarios/*.slate; do
    name=$(basename "$f" .slate)
    if [ ! -f "$out/scenario/$name.default.txt" ]; then
      "$bin/examples/slate_cli" "$f" | grep -v wall-clock > "$work/out"
      mv "$work/out" "$out/scenario/$name.default.txt"
    fi
    if [ ! -f "$out/scenario/$name.short.txt" ]; then
      "$bin/examples/slate_cli" "$f" --duration=3 --warmup=1 |
        grep -v wall-clock > "$work/out"
      mv "$work/out" "$out/scenario/$name.short.txt"
    fi
  done
  rm -rf "$work"
}

echo "diff_bench_data: building $ref ($sha) in $ref_build" >&2
build "$ref_src" "$ref_build"
echo "diff_bench_data: building the working tree in $head_build" >&2
build "$root" "$head_build"

echo "diff_bench_data: running ${#benches[@]} benches and the shipped scenarios" >&2
ref_out=$scratch/out-$sha
head_out=$scratch/out-head
rm -rf "$head_out"
collect "$ref_build" "$ref_out"
collect "$head_build" "$head_out"

# Compare only what this run produced for the working tree.
status=0
for f in "$head_out"/bench/*.txt "$head_out"/scenario/*.txt; do
  rel=${f#"$head_out"/}
  diff -u --label "$ref/$rel" --label "working-tree/$rel" "$ref_out/$rel" "$f" ||
    status=1
done
if [ $status -ne 0 ]; then
  echo "diff_bench_data: outputs differ from $ref" >&2
  exit 1
fi
echo "diff_bench_data: no difference from $ref:" \
     "$(cat "$head_out"/bench/*.txt | wc -l) data lines from ${#benches[@]} benches," \
     "$(ls "$head_out"/scenario | wc -l) scenario summaries"
