#!/usr/bin/env python3
"""Paired A/B of the end-to-end benchmark: a base revision against HEAD.

    python3 scripts/ab.py --base REV [--workload NAME ...] [--pairs N]
                          [--seconds S] [--seed N]

Run from the repository root.  The base revision REV (required: a
change often spans several commits, so no default fits) is checked
out from local history into a git worktree under .bench_build/ab-base/
(re-used and moved to REV on later calls); no remote is contacted.
`git worktree remove .bench_build/ab-base` drops it.  The working tree
as it stands is the HEAD side, uncommitted edits included.

For each workload, the script alternates perfbench/run.py on the base
and on HEAD, --pairs times, base first in odd pairs and HEAD first in
even ones.  Each run builds its own side (into that checkout's
.bench_build/) and runs passes for --seconds (at --seed, if given); its medians are
one sample.  Each side's runs must report "correct": true with no failed
op, or the script stops.

For every end-to-end metric of BENCHMARK.json it prints, per side, the
median and the inter-quartile range of the per-run medians, then the
median change and the pairs HEAD won (better in the metric's
direction).  A change counts as a gain or a loss only if HEAD wins or
loses at least 9 of 10 pairs (the same share for other pair counts)
and the medians differ by more than the base's IQR; otherwise the
verdict is "no change".  The last line of standard output is the same
result as one JSON object.

After a workload's first pair, the two sides' memscale_perfbench
binaries are compared byte for byte.  If they are identical, no
difference between the sides can come from the code, so the script
skips that workload's remaining pairs and every metric's verdict is
"identical binaries".

Layout and placement alone move wall_s by 1-3% between builds of one
tree, so take at least five pairs before reading anything into a
change.
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = os.path.join(ROOT, ".bench_build", "ab-base")
WIN_SHARE = 0.9


def die(msg):
    print("ab: " + msg, file=sys.stderr)
    sys.exit(1)


def git(*args, cwd=ROOT):
    proc = subprocess.run(["git", *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if proc.returncode != 0:
        die("git " + " ".join(args) + " failed:\n" + proc.stderr)
    return proc.stdout.strip()


def base_checkout(rev):
    """A worktree of `rev` under .bench_build/, from local history."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    if os.path.isdir(os.path.join(WORKTREE, ".git")) or \
            os.path.isfile(os.path.join(WORKTREE, ".git")):
        git("checkout", "--detach", "--quiet", commit, cwd=WORKTREE)
    else:
        os.makedirs(os.path.dirname(WORKTREE), exist_ok=True)
        git("worktree", "add", "--detach", "--quiet", WORKTREE, commit)
    return WORKTREE, commit


def binary(checkout):
    """The memscale_perfbench a side's run.py built."""
    return os.path.join(checkout, ".bench_build", "cmake",
                        "memscale_perfbench")


def run_side(checkout, workload, seconds, seed):
    """One perfbench/run.py run; returns its end-to-end medians."""
    script = os.path.join(checkout, "perfbench", "run.py")
    cmd = [sys.executable, script, "--workload", workload,
           "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(
        cmd,
        cwd=checkout, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    if proc.returncode != 0:
        die(f"{script} --workload {workload} exited "
            f"{proc.returncode}:\n" + proc.stderr[-4000:])
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        die(f"{script} --workload {workload} printed no result")
    if not rec.get("correct") or rec.get("failed"):
        die(f"{checkout}: {workload} is not correct "
            f"({rec.get('failed')} of {rec.get('attempted')} ops "
            "failed)")
    return {k: v["value"] for k, v in rec["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def compare(metric, base, head):
    """Summary of one metric over the pairs."""
    lower = metric["better"] == "lower"
    b_med, h_med = statistics.median(base), statistics.median(head)
    b_q1, b_q3 = quartiles(base)
    h_q1, h_q3 = quartiles(head)
    won = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    lost = sum((h > b) if lower else (h < b) for b, h in zip(base, head))
    need = -(-WIN_SHARE * len(base) // 1)   # ceil
    beyond_iqr = abs(h_med - b_med) > (b_q3 - b_q1)
    better = (h_med < b_med) if lower else (h_med > b_med)
    if won >= need and better and beyond_iqr:
        verdict = "gain"
    elif lost >= need and not better and beyond_iqr:
        verdict = "loss"
    else:
        verdict = "no change"
    change = (h_med - b_med) / b_med if b_med else 0.0
    return {"base_median": b_med, "base_iqr": [b_q1, b_q3],
            "head_median": h_med, "head_iqr": [h_q1, h_q3],
            "change": change, "pairs": len(base), "won": won,
            "verdict": verdict}


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--base", required=True,
                    help="base revision, e.g. the branch's merge-base")
    ap.add_argument("--workload", action="append",
                    help="workload (repeatable; default: every one)")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=int, default=5,
                    help="seconds of passes per run.py run")
    ap.add_argument("--seed", type=int,
                    help="workload seed (default: run.py's)")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        die("--pairs must be >= 1 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    known = {w["name"] for w in bench["workloads"]}
    for w in workloads:
        if w not in known:
            die(f"unknown workload {w!r} (BENCHMARK.json has "
                f"{', '.join(sorted(known))})")

    base_dir, commit = base_checkout(args.base)
    base_name = f"{args.base} ({commit[:12]})"
    print(f"base {base_name}  vs  HEAD (working tree at {ROOT})")

    result = {}
    for w in workloads:
        base_runs, head_runs = [], []
        identical = False
        for i in range(args.pairs):
            sides = [(base_dir, base_runs), (ROOT, head_runs)]
            if i % 2:
                sides.reverse()
            for checkout, runs in sides:
                runs.append(run_side(checkout, w, args.seconds,
                                     args.seed))
            print(f"  {w} pair {i + 1}/{args.pairs}: wall_s base "
                  f"{base_runs[-1]['wall_s']:.6g} head "
                  f"{head_runs[-1]['wall_s']:.6g}", file=sys.stderr)
            if i == 0 and filecmp.cmp(binary(base_dir), binary(ROOT),
                                      shallow=False):
                identical = True
                print(f"  {w}: identical binaries, skipping the "
                      "remaining pairs", file=sys.stderr)
                break
        result[w] = {}
        print(f"\n{w}: {len(base_runs)} pairs of {args.seconds:g} s runs")
        print(f"  {'metric':<16} {'base median [IQR]':<36} "
              f"{'head median [IQR]':<36} {'change':>8}  won  verdict")
        for m in bench["end_to_end"]:
            name = m["name"]
            r = compare(m, [x[name] for x in base_runs],
                        [x[name] for x in head_runs])
            if identical:
                r["verdict"] = "identical binaries"
            result[w][name] = r
            b = (f"{r['base_median']:.6g} [{r['base_iqr'][0]:.6g}, "
                 f"{r['base_iqr'][1]:.6g}]")
            h = (f"{r['head_median']:.6g} [{r['head_iqr'][0]:.6g}, "
                 f"{r['head_iqr'][1]:.6g}]")
            print(f"  {name:<16} {b:<36} {h:<36} "
                  f"{100 * r['change']:+7.2f}%  {r['won']:>2}/"
                  f"{r['pairs']:<2} {r['verdict']}")
    print(json.dumps({"base": base_name, "workloads": result}))


if __name__ == "__main__":
    main()
