#!/usr/bin/env python3
"""End-to-end check of bench/snapshot_tool and scripts/golden_bisect.py.

    tests/snapshot_tool_test.py --tool build/bench/snapshot_tool \\
        --bisect scripts/golden_bisect.py

Cuts a run with checkpoint-at/out/stop, resumes it with resume=, and
requires the resumed run to end with the uninterrupted run's runtime
and result_hash.  A cut past the end of the run must write nothing,
`meta=` must read the cut back, and golden_bisect.py given the same
binary twice must report that the builds agree (exit 0).
"""

import argparse
import os
import subprocess
import sys
import tempfile

TICK_PER_MS = 1_000_000_000  # simulator ticks are picoseconds
SIM = ["mix=MID3", "policy=memscale", "budget=200000"]

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run_tool(tool, extra):
    cmd = [tool] + SIM + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed (exit {proc.returncode})")
    out = {}
    for line in proc.stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def cut_args(tick, path):
    return [f"checkpoint-at={tick / TICK_PER_MS!r}",
            f"checkpoint-out={path}", "checkpoint-stop=1"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tool", required=True, help="snapshot_tool binary")
    ap.add_argument("--bisect", required=True, help="golden_bisect.py")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="snapshot_tool.") as tmp:
        plain = run_tool(args.tool, [])
        runtime = int(plain["runtime"])
        check("checkpoint" not in plain, "a plain run writes no checkpoint")

        snap = os.path.join(tmp, "cut.snap")
        cut = runtime // 2
        head = run_tool(args.tool, cut_args(cut, snap))
        check(head.get("checkpoint") == snap and os.path.exists(snap),
              f"checkpoint-at={cut} ticks writes {snap}")
        check(head.get("stopped_at_checkpoint") == "1",
              "checkpoint-stop=1 reports stopped_at_checkpoint")
        check(head["runtime"] == str(cut), "the cut run stops at the cut")

        meta = run_tool(args.tool, [f"meta={snap}"])
        check(meta.get("now") == str(cut), "meta= reads the cut tick")
        check(meta.get("mix") == "MID3" and
              meta.get("policy") == "memscale", "meta= reads mix/policy")
        check("pending_rank_closes" in meta,
              "meta= prints pending_rank_closes")

        tail = run_tool(args.tool, [f"resume={snap}"])
        check(tail["result_hash"] == plain["result_hash"],
              f"resumed result_hash {tail['result_hash']} == "
              f"plain {plain['result_hash']}")
        check(tail["runtime"] == plain["runtime"],
              "resumed runtime == plain runtime")
        check("checkpoint" not in tail, "a resume alone writes nothing")

        past = os.path.join(tmp, "past.snap")
        late = run_tool(args.tool, cut_args(2 * runtime, past))
        check("checkpoint" not in late and not os.path.exists(past),
              "a cut past the end writes no checkpoint")
        check("stopped_at_checkpoint" not in late,
              "a cut past the end does not stop the run")
        check(late["result_hash"] == plain["result_hash"],
              "a cut past the end leaves the result unchanged")

    bisect = subprocess.run(
        [sys.executable, args.bisect, "--tool-a", args.tool,
         "--tool-b", args.tool, "--mix", "MID3", "--policy", "memscale",
         "budget=200000"], stdout=subprocess.PIPE, text=True)
    check(bisect.returncode == 0,
          f"golden_bisect.py on one build exits 0 (got "
          f"{bisect.returncode})")

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
