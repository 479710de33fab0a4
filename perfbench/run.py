#!/usr/bin/env python3
"""End-to-end benchmark of the memscale simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--write-goldens]

Run from the repository root.  The script builds perfbench/ (which
compiles the library from src/) into .bench_build/, then runs passes of
the workload, each in a fresh process, until --seconds have gone.

  --trace 0  timed passes only, through the library's public entry
             points with no tracing; prints every end-to-end metric.
  --trace 1  alternates timed passes with traced passes that issue the
             same work one level down with spans around every layer
             call; prints every per-layer metric.  The spans of the
             last traced pass go to .bench_build/out/ as Chrome-trace
             JSON.

wall_s is each pass's wall time less the share of it the hypervisor
stole: the steal jiffies in /proc/stat over the pass, as a share of the
VM's busy plus stolen jiffies.  On a shared host that share swings from
0 to 40% for minutes at a time and would otherwise read as a change in
the program.  The raw wall median is printed beside it.

An op (one comparison or one fleet run) fails when it throws or calls
fatal(), a run hits the simulated-time limit, a closed-loop memscale
run slows a core by more than gamma + 0.02 (the margin the repo's own
tests allow the predictive slack controller), a serving run loses
requests or overflows its latency histogram, a feasible fastcap epoch
goes over the cap, its hash differs between passes (timed vs. traced,
or a checkpoint chain vs. one uninterrupted run), or, at the default
seed 12345, its hash differs from the one pinned in
perfbench/goldens.json.  --write-goldens rewrites that file from one
timed and one traced pass of every workload at the default seed.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and
failed count ops (one comparison or one fleet run) over all passes.
BENCHMARK.json lists the workloads and metrics; perfbench/layers.json
says which per-layer metric should move which end-to-end metric on
which workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "memscale_perfbench")
OUT = os.path.join(BUILD, "out")
SCRATCH = os.path.join(BUILD, "scratch")
GOLDENS = os.path.join(HERE, "goldens.json")
LAYERS = os.path.join(HERE, "layers.json")
DEFAULT_SEED = 12345
# Hard limit on one run: a pass still going then is killed and the run fails.
RUN_LIMIT_S = 170.0
PAPER_FIG5_SYS = "6-31% system energy saved (paper Fig. 5)"
MAX_FAILURES_SHOWN = 10


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def parse_args(spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-goldens", action="store_true")
    args = p.parse_args()  # unknown arguments exit with status 2
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def check_environment():
    stray = sorted(k for k in os.environ if k.startswith("MEMSCALE_"))
    if stray:
        die("refusing to run with " + ", ".join(stray) + " set: MEMSCALE_* "
            "variables change threads or behaviour without showing up in "
            "the inputs")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("memscale sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", CMAKE_DIR, "-j", jobs,
              "--target", "memscale_perfbench"]]
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            die("build step failed: " + " ".join(cmd) + "\n" +
                proc.stdout[-4000:])


def cpu_ticks():
    """(steal, busy) jiffies summed over all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    # user nice system idle iowait irq softirq steal ...
    return fields[7], sum(fields[0:3]) + sum(fields[5:7])


def steal_share(before, after):
    """Share of the busy and stolen vCPU time between two cpu_ticks()."""
    if before is None or after is None:
        return 0.0
    steal = after[0] - before[0]
    busy = after[1] - before[1]
    return steal / (steal + busy) if steal + busy > 0 else 0.0


def run_pass(workload, seed, mode, deadline):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--out", OUT, "--scratch", SCRATCH]
    t0 = time.monotonic()
    ticks = cpu_ticks()
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        die(f"{mode} pass of {workload} did not finish in time")
    steal = steal_share(ticks, cpu_ticks())
    if proc.returncode != 0:
        die(f"{mode} pass of {workload} exited {proc.returncode}:\n" +
            proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"{mode} pass of {workload} printed no result")
    # Process start to first simulation call: both ends read
    # CLOCK_MONOTONIC (time.monotonic_ns and std::chrono::steady_clock).
    rec["setup_s"] = (rec["first_call_ns"] - spawn_ns) / 1e9 + rec["ctor_s"]
    if rec["setup_s"] <= 0:
        die("pass reported a first simulation call before it was spawned")
    rec["unstolen_wall_s"] = rec["wall_s"] * (1.0 - steal)
    return rec


def run_passes(args):
    """Timed (and traced) passes until --seconds are used up."""
    start = time.monotonic()
    stop = start + args.seconds
    hard = start + RUN_LIMIT_S
    timed, traced, rounds = [], [], []
    while True:
        t0 = time.monotonic()
        timed.append(run_pass(args.workload, args.seed, "timed", hard))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed, "traced", hard))
        rounds.append(time.monotonic() - t0)
        if time.monotonic() + statistics.median(rounds) > stop:
            return timed, traced


def check_ops(workload, seed, passes, goldens):
    """Count ops and failures over every pass; print each failure."""
    pinned = goldens.get(workload, {}) if seed == DEFAULT_SEED else {}
    first = {}
    attempted = failed = 0
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            problems = list(op["problems"])
            name, h = op["name"], op["hash"]
            if name in pinned and pinned[name] != h:
                problems.append(f"hash {h} != pinned {pinned[name]}")
            elif seed == DEFAULT_SEED and name not in pinned:
                problems.append("no pinned hash at the default seed")
            first.setdefault(name, h)
            if first[name] != h:
                problems.append(f"{p['mode']} pass hash {h} != first pass "
                                f"{first[name]}")
            if problems:
                failed += 1
                if failed <= MAX_FAILURES_SHOWN:
                    print(f"FAILED {name} ({p['mode']}): " +
                          "; ".join(problems))
    if failed > MAX_FAILURES_SHOWN:
        print(f"FAILED ... and {failed - MAX_FAILURES_SHOWN} more")
    return attempted, failed


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown (git not installed)"
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else \
        "unknown (not a git checkout)"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_header(args, spec, rec, timed, traced, steal):
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    build = rec["build"]
    print("== memscale perfbench ==")
    print(f"workload     {args.workload}: {why}")
    print(f"seed         {args.seed}")
    print(f"nproc        {os.cpu_count()}")
    print(f"compiler     {build['compiler']}")
    print(f"build type   {build['build_type']} (the repo's CMake default "
          f"is RelWithDebInfo; ROADMAP baselines were measured on Release)")
    print(f"git describe {git_describe()}")
    print("parameters   " + ", ".join(f"{k}={v}" for k, v in rec["params"]))
    print(f"passes       {len(timed)} timed, {len(traced)} traced, "
          f"in --seconds {args.seconds}; jobs={rec['jobs']}")
    print("host steal   " + (f"{100 * steal:.1f}% of busy vCPU time during "
                             f"the passes (taken out of wall_s)"
                             if steal is not None else "unknown"))


def median_of(values):
    return statistics.median(values) if values else 0.0


def end_to_end(spec, timed):
    per_pass = {
        "wall_s": [p["unstolen_wall_s"] for p in timed],
        "cpu_s": [p["cpu_s"] for p in timed],
        "dram_req_per_s": [p["dram_reqs"] / p["unstolen_wall_s"]
                           for p in timed],
        "setup_s": [p["setup_s"] for p in timed],
        "peak_rss_mb": [p["peak_rss_mb"] for p in timed],
    }
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name.startswith("model."):
            vals = [p["model"][name[6:]] for p in timed
                    if name[6:] in p["model"]]
        else:
            vals = per_pass[name]
        if not vals:  # every pass failed before producing this output
            vals = [0.0]
        q1, q3 = quartiles(vals)
        metrics[name] = {"value": median_of(vals), "unit": m["unit"]}
        note = ""
        if name == "wall_s":
            note = (f"  [raw wall median "
                    f"{median_of([p['wall_s'] for p in timed]):.6g} s]")
        elif name == "model.sys_saved":
            note = model_note(timed[0])
        print(f"  {name:<18} {median_of(vals):<14.6g} {m['unit']:<9} "
              f"q1 {q1:.6g} q3 {q3:.6g} over {len(vals)} passes{note}")
    return metrics


def model_note(rec):
    model = rec["model"]
    if rec["workload"] == "paper_figs" and "sys_saved.min" in model:
        return (f"  [Fig. 5 mean; measured {100 * model['sys_saved.min']:.1f}"
                f"%..{100 * model['sys_saved.max']:.1f}% vs {PAPER_FIG5_SYS}]")
    return "  [simulated; unvalidated against the paper]"


def per_layer(spec, timed, traced):
    table = load_json(LAYERS)["rows"]
    row_of = {m: row for row in table for m in row["metrics"]}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in row_of]
    if missing:
        die("layers.json has no row for " + ", ".join(missing))
    overhead = median_of([p["unstolen_wall_s"] for p in traced]) / \
        median_of([p["unstolen_wall_s"] for p in timed]) - 1.0
    metrics = {}
    last_row = None
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_frac":
            vals = [overhead]
        elif name.startswith("model."):
            vals = [p["model"].get(name[6:], 0.0) for p in traced]
        else:
            vals = [p["layers"].get(name, 0.0) for p in traced]
        value = median_of(vals)
        metrics[name] = {"value": value, "unit": m["unit"]}
        row = row_of[name]
        if row is not last_row:
            flat = ", ".join(row["flat"]) or "-"
            print(f"  [{row['layer']}] moves: {row['moves']}; flat on: {flat}")
            last_row = row
        label = "  (unvalidated model output)" if name.startswith("model.") \
            else ""
        print(f"    {name:<28} {value:<14.6g} {m['unit']}{label}")
    return metrics


def write_goldens(spec):
    goldens = {}
    for w in spec["workloads"]:
        hashes = {}
        for mode in ("timed", "traced"):
            rec = run_pass(w["name"], DEFAULT_SEED, mode,
                           time.monotonic() + RUN_LIMIT_S)
            for op in rec["ops"]:
                if op["problems"]:
                    die(f"not pinning {op['name']}: " +
                        "; ".join(op["problems"]))
                if hashes.setdefault(op["name"], op["hash"]) != op["hash"]:
                    die(f"{op['name']}: traced hash differs from timed")
        goldens[w["name"]] = hashes
        print(f"pinned {len(hashes)} hashes for {w['name']}")
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    args = parse_args(spec)
    check_environment()
    build()
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(SCRATCH, exist_ok=True)
    if args.write_goldens:
        write_goldens(spec)
        return 0

    before = cpu_ticks()
    timed, traced = run_passes(args)
    after = cpu_ticks()
    steal = steal_share(before, after) if before and after else None
    print_header(args, spec, timed[0], timed, traced, steal)
    attempted, failed = check_ops(args.workload, args.seed, timed + traced,
                                  load_json(GOLDENS))
    if traced:
        print(f"span dump    {traced[-1]['trace_file']}")
        print("per-layer metrics (traced passes; medians):")
        metrics = per_layer(spec, timed, traced)
    else:
        print("end-to-end metrics (timed passes, tracing off; medians):")
        metrics = end_to_end(spec, timed)
    print(f"ops          {attempted} attempted, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
