#!/usr/bin/env python3
"""Perf gate: run the simperf microbenchmarks and compare items/sec
against the checked-in baseline (bench/perf_baseline.json).

Exit codes:
  0   all benchmarks within tolerance of the baseline (or faster)
  1   at least one benchmark regressed beyond tolerance
  2   setup problem (missing binary/baseline, bad JSON)
  77  skipped (perf gating is opt-in: set MEMSCALE_PERF=1 or pass
      --force; ctest maps 77 to SKIP via SKIP_RETURN_CODE)

The gate compares the *best* of N repetitions against the baseline
median: benchmarks only ever run slower under interference, so the
best repetition is the least noisy estimator and biases the gate
against false alarms rather than against real regressions.  Pass
--reps N to aggregate by median-of-N instead (reported with the
min/max spread of the repetitions), which is the right estimator when
*recording* numbers rather than gating on them.

The baseline records a machine fingerprint (nproc + compiler); when
the current machine's fingerprint differs, every comparison is
suspect — containers with different core counts or compilers routinely
shift results by 10-20% — so the report flags the mismatch loudly.
--report-only prints the comparison but always exits 0 (the CI perf
smoke step runs in this mode: visibility without flakiness).

Regenerating the baseline after an intentional perf change (the perf
analogue of MEMSCALE_REGEN_GOLDENS, see README "Validating a change"):

    scripts/perf_compare.py --update --force
"""

import argparse
import json
import os
import re
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BENCH = os.path.join(REPO, "build", "bench", "simperf")
DEFAULT_BASELINE = os.path.join(REPO, "bench", "perf_baseline.json")


def run_benchmarks(bench, min_time, repetitions):
    """Run every benchmark `repetitions` times; return
    {run_name: [items_per_second, ...]} with one entry per rep."""
    cmd = [
        bench,
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
        f"--benchmark_repetitions={repetitions}",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, check=True)
    data = json.loads(out.stdout)
    reps = {}
    for b in data["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("run_name", b["name"])
        ips = b.get("items_per_second")
        if ips is None:
            continue
        reps.setdefault(name, []).append(ips)
    return reps


def aggregate(reps, use_median):
    """Collapse per-rep samples: median-of-N (--reps) or best-of-N
    (gate default).  Returns {name: (value, min, max)}."""
    agg = {}
    for name, xs in reps.items():
        xs = sorted(xs)
        n = len(xs)
        if use_median:
            mid = n // 2
            val = xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
        else:
            val = xs[-1]
        agg[name] = (val, xs[0], xs[-1])
    return agg


def machine_fingerprint(bench):
    """nproc + compiler identity for the build that produced `bench`.
    Results from different containers are not comparable; this is how
    we notice."""
    fp = {"nproc": os.cpu_count() or 0, "compiler": "unknown"}
    cache = os.path.join(os.path.dirname(os.path.dirname(bench)),
                         "CMakeCache.txt")
    try:
        with open(cache) as f:
            m = re.search(r"^CMAKE_CXX_COMPILER:\S+=(.*)$", f.read(),
                          re.MULTILINE)
        if m:
            ver = subprocess.run([m.group(1).strip(), "--version"],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, check=True,
                                 text=True)
            fp["compiler"] = ver.stdout.splitlines()[0].strip()
    except (OSError, subprocess.CalledProcessError, IndexError):
        pass
    return fp


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", default=DEFAULT_BENCH,
                    help="path to the simperf binary")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="path to perf_baseline.json")
    ap.add_argument("--tolerance", type=float, default=None,
                    help="allowed fractional slowdown (default: "
                         "baseline file's tolerance, else 0.10)")
    ap.add_argument("--min-time", default="0.25",
                    help="per-benchmark min running time in seconds")
    ap.add_argument("--repetitions", type=int, default=3,
                    help="repetitions; the best one is compared")
    ap.add_argument("--reps", type=int, default=None,
                    help="aggregate by median-of-N (with min/max "
                         "spread) instead of best-of-N")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from this run")
    ap.add_argument("--report-only", action="store_true",
                    help="print the comparison but always exit 0 "
                         "(CI smoke mode; implies --force)")
    ap.add_argument("--force", action="store_true",
                    help="run even without MEMSCALE_PERF=1")
    args = ap.parse_args()
    if args.report_only:
        args.force = True
    use_median = args.reps is not None
    repetitions = args.reps if use_median else args.repetitions

    if not args.force and os.environ.get("MEMSCALE_PERF") != "1":
        print("perf gate skipped (set MEMSCALE_PERF=1 or --force); "
              "invoke via: MEMSCALE_PERF=1 ctest -L perf")
        return 77

    if not os.path.exists(args.bench):
        print(f"perf_compare: benchmark binary not found: {args.bench}",
              file=sys.stderr)
        return 2

    try:
        reps = run_benchmarks(args.bench, args.min_time, repetitions)
    except (subprocess.CalledProcessError, json.JSONDecodeError) as e:
        print(f"perf_compare: failed to run benchmarks: {e}",
              file=sys.stderr)
        return 2
    agg = aggregate(reps, use_median)
    measured = {k: v[0] for k, v in agg.items()}
    fingerprint = machine_fingerprint(args.bench)

    if args.update:
        doc = {"tolerance": args.tolerance or 0.10,
               "fingerprint": fingerprint,
               "items_per_second": {k: round(v, 1)
                                    for k, v in sorted(measured.items())}}
        # Keep the per-PR before/after history across regenerations.
        if os.path.exists(args.baseline):
            try:
                with open(args.baseline) as f:
                    old = json.load(f)
                if "history" in old:
                    doc["history"] = old["history"]
                if args.tolerance is None and "tolerance" in old:
                    doc["tolerance"] = old["tolerance"]
            except (OSError, json.JSONDecodeError):
                pass
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"baseline updated: {args.baseline}")
        print(f"  fingerprint: {fingerprint}")
        for name, ips in sorted(measured.items()):
            lo, hi = agg[name][1], agg[name][2]
            print(f"  {name:28s} {ips:.4e} items/s "
                  f"[{lo:.4e}, {hi:.4e}]")
        return 0

    try:
        with open(args.baseline) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"perf_compare: cannot read baseline: {e}",
              file=sys.stderr)
        return 2

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = doc.get("tolerance", 0.10)
    baseline = doc["items_per_second"]

    base_fp = doc.get("fingerprint")
    fp_mismatch = base_fp is not None and base_fp != fingerprint
    if fp_mismatch:
        print("=" * 64)
        print("WARNING: machine fingerprint differs from the baseline;")
        print("cross-container numbers are NOT comparable.")
        print(f"  baseline: {base_fp}")
        print(f"  current:  {fingerprint}")
        print("=" * 64)

    failed = False
    for name, base in sorted(baseline.items()):
        got = measured.get(name)
        if got is None:
            print(f"MISSING  {name:28s} (in baseline, not measured)")
            failed = True
            continue
        ratio = got / base
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        spread = ""
        if use_median:
            lo, hi = agg[name][1], agg[name][2]
            spread = f"  [{lo:.3e}, {hi:.3e}]"
        print(f"{status:9s}{name:28s} {base:.4e} -> {got:.4e} "
              f"({100 * (ratio - 1):+.1f}%){spread}")
        if status != "ok":
            failed = True
    for name in sorted(set(measured) - set(baseline)):
        print(f"new      {name:28s} {measured[name]:.4e} "
              "(not in baseline; add with --update)")

    if failed:
        print(f"\nperf gate FAILED (tolerance {tolerance:.0%}); if the "
              "slowdown is intentional, regenerate with "
              "scripts/perf_compare.py --update --force")
        if args.report_only:
            print("(report-only mode: not gating)")
            return 0
        return 1
    print(f"\nperf gate passed (tolerance {tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
