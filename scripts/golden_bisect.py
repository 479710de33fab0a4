#!/usr/bin/env python3
"""Binary-search the first simulation tick where two builds diverge.

When a change breaks a golden hash, the failing number says *that* the
run diverged but not *when* or *where*.  This script drives the
`snapshot_tool` binaries of two build trees (e.g. a known-good
checkout and the working tree) through checkpoint cuts and
byte-compares the snapshot files, bisecting to the first tick at which
the two simulations are no longer in identical states:

    scripts/golden_bisect.py \\
        --tool-a build-good/bench/snapshot_tool \\
        --tool-b build/bench/snapshot_tool \\
        --mix MID3 --policy memscale

Snapshots contain no environmental data (pointers, timestamps, build
paths), so two builds in identical simulation states produce
byte-identical files; the first differing cut brackets the divergence
to one tick, and the report names the first snapshot *section* (mc,
cores, power, …) that differs — usually enough to identify the
subsystem at fault.

Extra simulator settings pass through verbatim, e.g.:

    scripts/golden_bisect.py ... budget=500000 epoch_ms=0.1 seed=7

When the two full runs agree, the script still cuts both builds at
the midpoint and byte-compares the files, so two builds whose
snapshot encodings differ do not pass as identical.

Exit codes: 0 = runs and mid-run snapshots identical (nothing to
bisect), 1 = divergence found and reported, 2 = setup/usage problem.
"""

import argparse
import os
import shutil
import struct
import subprocess
import sys
import tempfile

TICK_PER_MS = 1_000_000_000  # simulator ticks are picoseconds


def run_tool(tool, sim_args, extra):
    cmd = [tool] + sim_args + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"golden_bisect: {' '.join(cmd)} failed "
                 f"(exit {proc.returncode})")
    out = {}
    for line in proc.stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def parse_sections(path):
    """Parse a snapshot container into {name: payload_bytes}."""
    with open(path, "rb") as f:
        blob = f.read()
    magic, version, count = struct.unpack_from("<QII", blob, 0)
    if magic != 0x50414E534C43534D:
        sys.exit(f"golden_bisect: {path} is not a snapshot file")
    pos = 16
    sections = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        name = blob[pos:pos + name_len].decode()
        pos += name_len
        (payload_len,) = struct.unpack_from("<Q", blob, pos)
        pos += 8
        sections[name] = blob[pos:pos + payload_len]
        pos += payload_len + 4  # skip CRC
    return sections


def snapshots_differ(args, tick, workdir):
    """Cut both builds at `tick`; compare the snapshot files.

    Returns (differ, first_differing_section) — or (None, None) when
    either run finished before reaching the cut.
    """
    paths = {}
    for label, tool in (("a", args.tool_a), ("b", args.tool_b)):
        snap = os.path.join(workdir, f"{label}.snap")
        if os.path.exists(snap):
            os.remove(snap)
        out = run_tool(tool, args.sim_args, [
            f"checkpoint-at={tick / TICK_PER_MS!r}",
            f"checkpoint-out={snap}",
            "checkpoint-stop=1",
        ])
        if "checkpoint" not in out:
            return None, None
        paths[label] = snap
    a = open(paths["a"], "rb").read()
    b = open(paths["b"], "rb").read()
    if a == b:
        return False, None
    sa = parse_sections(paths["a"])
    sb = parse_sections(paths["b"])
    # Report "meta" only when nothing else differs: it embeds the
    # config fingerprint, so e.g. a seed mismatch trips it trivially
    # while the substantive difference lives in a state section.
    names = sorted(sa, key=lambda n: (n == "meta", n))
    for name in names:
        if sb.get(name) != sa[name]:
            return True, name
    return True, "<container layout>"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tool-a", required=True,
                    help="snapshot_tool binary of the reference build")
    ap.add_argument("--tool-b", required=True,
                    help="snapshot_tool binary of the suspect build")
    ap.add_argument("--mix", default="MID3")
    ap.add_argument("--policy", default="memscale")
    ap.add_argument("--workdir", default=None,
                    help="scratch directory for snapshot files "
                         "(default: a fresh temp dir)")
    ap.add_argument("sim_args", nargs="*",
                    help="extra key=value settings passed to both "
                         "tools (budget=…, seed=…, epoch_ms=…)")
    args = ap.parse_args()
    args.sim_args = [f"mix={args.mix}", f"policy={args.policy}"] \
        + args.sim_args

    for tool in (args.tool_a, args.tool_b):
        if not os.path.exists(tool):
            print(f"golden_bisect: no such binary: {tool}",
                  file=sys.stderr)
            return 2

    print("full runs...")
    full_a = run_tool(args.tool_a, args.sim_args, [])
    full_b = run_tool(args.tool_b, args.sim_args, [])
    print(f"  a: runtime {full_a['runtime']}  {full_a['result_hash']}")
    print(f"  b: runtime {full_b['runtime']}  {full_b['result_hash']}")
    workdir = args.workdir or tempfile.mkdtemp(prefix="golden_bisect.")
    os.makedirs(workdir, exist_ok=True)

    if full_a["result_hash"] == full_b["result_hash"] \
            and full_a["runtime"] == full_b["runtime"]:
        # Equal results can still hide different snapshot encodings,
        # which would make any later bisect across these builds report
        # a divergence at every tick: compare one mid-run cut too.
        mid = int(full_a["runtime"]) // 2
        differ, section = snapshots_differ(args, mid, workdir)
        if differ:
            print(f"builds agree on the run but their snapshots at tick "
                  f"{mid} differ, first in section '{section}'")
            print(f"snapshot files kept in {workdir}")
            return 1
        if not args.workdir:
            shutil.rmtree(workdir)
        print("builds agree; nothing to bisect")
        return 0

    # Invariant: states identical at `lo`, divergent at `hi` (tick 0 is
    # before the first event, so both builds trivially agree there).
    lo = 0
    hi = min(int(full_a["runtime"]), int(full_b["runtime"]))
    differ, section = snapshots_differ(args, hi, workdir)
    if differ is False:
        print(f"states still identical at tick {hi} (the earlier "
              "finish); the divergence is in the final interval — "
              "likely end-of-run accounting rather than simulation "
              "state")
        return 1
    if differ is None:
        # A build finished before min(runtime): back off until the cut
        # is reachable by both.
        while differ is None and hi > 1:
            hi = hi * 9 // 10
            differ, section = snapshots_differ(args, hi, workdir)
        if not differ:
            print("could not bracket a divergent checkpoint; runs "
                  "differ only near completion")
            return 1

    while hi - lo > 1:
        mid = (lo + hi) // 2
        differ, mid_section = snapshots_differ(args, mid, workdir)
        if differ is None:
            print(f"  tick {mid}: unreachable cut, narrowing from "
                  "above")
            hi = mid
            continue
        state = "DIVERGED" if differ else "identical"
        detail = f"  (section '{mid_section}')" if differ else ""
        print(f"  tick {mid}: {state}{detail}")
        if differ:
            hi, section = mid, mid_section
        else:
            lo = mid
    print(f"\nfirst divergent state at tick {hi} "
          f"({hi / TICK_PER_MS:.6f} ms); last identical tick {lo}")
    print(f"first differing snapshot section: '{section}'")
    print(f"snapshot files kept in {workdir}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
