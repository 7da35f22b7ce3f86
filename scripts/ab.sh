#!/bin/sh
# A/B comparison of the working tree against a git revision on the repository
# benchmark:
#
#	scripts/ab.sh <rev> [--pairs N] [--workload W] [--seed S]
#
# <rev> is exported with git archive into perfbench/out/ab/<sha>/. Each pair
# then runs both sides' own `sh perfbench/run.sh --workload W --seed S
# --seconds 30 --trace 0`, alternating which side runs first. Without
# --workload every workload in BENCHMARK.json runs; --pairs defaults to 10,
# --seed to 1.
#
# From the JSON line each run ends with it prints, per workload and
# end-to-end metric of BENCHMARK.json: the paired median ratio change/rev
# with its quartiles [q1, q3], "change better in k/n", and a sign-test
# verdict (two-sided, 5%): better, worse or unresolved. The verdict is
# unresolved whenever the rev's own IQR/median exceeds the metric's bound.
# Everything goes to BENCH_ab_<short sha>.json at the repository root. The
# script reads perfbench/ and BENCHMARK.json and edits neither; it exits 1
# when a run fails or reports an incorrect result.
set -e
usage() {
	echo "usage: scripts/ab.sh <rev> [--pairs N] [--workload W] [--seed S]" >&2
	exit 2
}
[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10 workload= seed=1
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--pairs) pairs=$2 ;;
	--workload) workload=$2 ;;
	--seed) seed=$2 ;;
	*) usage ;;
	esac
	shift 2
done
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

cd "$(dirname "$0")/.."
root=$PWD
sha=$(git rev-parse --verify "$rev^{commit}")
short=$(git rev-parse --short "$sha")
base=$root/perfbench/out/ab/$sha
if [ ! -f "$base/perfbench/run.sh" ]; then
	rm -rf "$base"
	mkdir -p "$base"
	git archive "$sha" | tar -x -C "$base"
fi
if [ -z "$workload" ]; then
	workload=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' BENCHMARK.json)
fi

runs=$root/perfbench/out/ab/runs-$short.tsv
: >"$runs"
# run <side> <dir> <workload> <pair> <first>: one benchmark run, its final
# JSON line appended to the runs file.
run() {
	out=$(sh "$2/perfbench/run.sh" --workload "$3" --seed "$seed" --seconds 30 --trace 0) || {
		echo "ab: $1 run of $3 failed" >&2
		exit 1
	}
	printf '%s\t%s\t%s\t%s\t%s\n' "$3" "$4" "$5" "$1" "$(printf '%s\n' "$out" | tail -n 1)" >>"$runs"
}
for w in $workload; do
	i=0
	while [ "$i" -lt "$pairs" ]; do
		if [ $((i % 2)) -eq 0 ]; then
			echo "ab: $w pair $((i + 1))/$pairs: $short first" >&2
			run rev "$base" "$w" "$i" rev
			run change "$root" "$w" "$i" rev
		else
			echo "ab: $w pair $((i + 1))/$pairs: change first" >&2
			run change "$root" "$w" "$i" change
			run rev "$base" "$w" "$i" change
		fi
		i=$((i + 1))
	done
done

python3 - "$runs" "BENCH_ab_$short.json" "$sha" "$pairs" "$seed" <<'PY'
import json, math, os, platform, statistics, subprocess, sys

runs_path, out_path, sha, pairs, seed = sys.argv[1:6]
bench = json.load(open("BENCHMARK.json"))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

def sign_test(k, n):
    # Two-sided binomial test of k successes in n untied pairs at p = 1/2.
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(k, n - k) + 1)) / 2 ** n
    return min(1.0, 2 * tail)

by = {}
incorrect = []
for line in open(runs_path):
    w, pair, first, side, raw = line.rstrip("\n").split("\t", 4)
    res = json.loads(raw)
    if not res.get("correct") or res.get("failed"):
        incorrect.append(f"{w} pair {int(pair) + 1} {side}")
    by.setdefault(w, {}).setdefault(int(pair), {"first": first})[side] = res

report = {
    "rev": sha, "change": "working tree", "pairs": int(pairs), "seed": int(seed),
    "command": "sh perfbench/run.sh --workload W --seed S --seconds 30 --trace 0",
    "host": {"cpus": os.cpu_count(), "platform": platform.platform(),
             "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()},
    "workloads": {},
}
for w, ps in by.items():
    entry = {"runs": [ps[p] for p in sorted(ps)], "metrics": {}}
    print(f"{w} ({len(ps)} pairs, change/rev)")
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        both = [(p["rev"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in ps.values() if name in p["rev"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        ratios = [c / r if r else float("inf") for r, c in both]
        untied = [(r, c) for r, c in both if r != c]
        k = sum(1 for r, c in untied if (c < r) == lower)
        p = sign_test(k, len(untied))
        parent = [r for r, _ in both]
        q1, q3 = quartiles(parent)
        med = statistics.median(parent)
        spread = (q3 - q1) / med if med else float("inf")
        if spread > m["bound"] or p >= 0.05:
            verdict = "unresolved"
        else:
            verdict = "better" if 2 * k > len(untied) else "worse"
        r1, r3 = quartiles(ratios)
        entry["metrics"][name] = {
            "ratio_median": statistics.median(ratios), "ratio_q1": r1, "ratio_q3": r3,
            "better": k, "n": len(both), "sign_p": p,
            "rev_iqr_over_median": spread, "bound": m["bound"], "verdict": verdict,
        }
        print(f"  {name:12} ratio {statistics.median(ratios):.3f} [{r1:.3f}, {r3:.3f}]"
              f"  change better in {k}/{len(both)}  {verdict}"
              f"  (sign p {p:.3f}, rev IQR/median {spread:.3f}, bound {m['bound']})")
    report["workloads"][w] = entry
report["incorrect_runs"] = incorrect
with open(out_path, "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
print(f"wrote {out_path}")
if incorrect:
    print("runs that failed operations or reported an incorrect result: " + ", ".join(incorrect), file=sys.stderr)
    sys.exit(1)
PY
