#!/usr/bin/env python3
"""Check that every bench driver prints the same bytes at another revision.

A change that claims to leave behaviour alone should leave the stdout
of every figure driver byte-identical.  This script builds a local
revision and the working tree, runs each driver on both, and compares:

    scripts/driver_diff.py HEAD~1

Steps:

1. `git worktree add --detach build-driver-diff/rev-<sha> <rev>`.
   Only local history is used; nothing is fetched.
2. Release builds of the drivers (2 compile jobs): the revision in
   its worktree (`<worktree>/build`), the working tree in
   `build-driver-diff/head`.
3. Every `bench/*.cc` driver except `simperf` (timings) and
   `snapshot_tool` (needs a cut to act on) runs on both builds at
   `budget=300000 jobs=2`.
4. The stdout of each pair is compared byte for byte; stderr (progress
   lines) is ignored.  Outputs stay in `build-driver-diff/out/` for a
   `diff -r`.

The worktree is removed on exit; the working tree's build is kept so
the next run only rebuilds what changed.  Everything lives under
`build-*/`, which `.gitignore` covers.

Exit codes: 0 = every driver byte-identical, 1 = some driver's stdout
differs, is missing on one side or exits non-zero (each one is named),
2 = setup problem (unknown revision, failed build).
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

SKIPPED = {"simperf", "snapshot_tool"}
SIM_ARGS = ["budget=300000", "jobs=2"]
BUILD_JOBS = 2


def git(repo, *args):
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def drivers(tree):
    """Names of the compared drivers, from bench/*.cc."""
    names = []
    for name in sorted(os.listdir(os.path.join(tree, "bench"))):
        stem, ext = os.path.splitext(name)
        if ext == ".cc" and stem not in SKIPPED:
            names.append(stem)
    return names


def build(tree, build_dir, targets):
    for cmd in (["cmake", "-S", tree, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", str(BUILD_JOBS),
                 "--target", *targets]):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode:
            print(f"driver_diff: {' '.join(cmd)} failed", file=sys.stderr)
            sys.exit(2)


def run(binary, args, out_path):
    """Run one driver in a scratch directory; return its exit code."""
    with tempfile.TemporaryDirectory(prefix="driver_diff_") as cwd, \
            open(out_path, "wb") as out:
        return subprocess.run([binary, *args], cwd=cwd, stdout=out,
                              stderr=subprocess.DEVNULL).returncode


def compare(name, sides, found, out_root):
    """Run one driver on both sides; return what differs, or None."""
    missing = [side for side in sides if name not in found[side]]
    if missing:
        return f"no such driver at {missing[0]}"
    outs, codes = [], []
    for side, (_, build_dir) in sides.items():
        os.makedirs(os.path.join(out_root, side), exist_ok=True)
        path = os.path.join(out_root, side, name + ".txt")
        codes.append(run(os.path.join(build_dir, "bench", name),
                         SIM_ARGS, path))
        with open(path, "rb") as f:
            outs.append(f.read())
    if any(codes):
        return f"exit {codes[0]} at rev, {codes[1]} at head"
    if outs[0] != outs[1]:
        return "stdout differs"
    return None


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("rev", help="local revision to compare against")
    args = ap.parse_args()

    repo = git(os.path.dirname(os.path.abspath(__file__)),
               "rev-parse", "--show-toplevel")
    try:
        sha = git(repo, "rev-parse", "--verify", "--quiet",
                  args.rev + "^{commit}")
    except subprocess.CalledProcessError:
        print(f"driver_diff: unknown revision '{args.rev}'",
              file=sys.stderr)
        return 2
    root = os.path.join(repo, "build-driver-diff")
    worktree = os.path.join(root, "rev-" + sha[:12])
    out_root = os.path.join(root, "out")
    os.makedirs(root, exist_ok=True)
    if os.path.exists(worktree):
        git(repo, "worktree", "remove", "--force", worktree)
    git(repo, "worktree", "add", "--detach", worktree, sha)
    try:
        sides = {"rev": (worktree, os.path.join(worktree, "build")),
                 "head": (repo, os.path.join(root, "head"))}
        found = {side: drivers(tree) for side, (tree, _) in sides.items()}
        for side, (tree, build_dir) in sides.items():
            print(f"driver_diff: building {len(found[side])} drivers "
                  f"({side})", file=sys.stderr)
            build(tree, build_dir, found[side])

        shutil.rmtree(out_root, ignore_errors=True)
        bad = []
        for name in sorted(set(found["rev"]) | set(found["head"])):
            problem = compare(name, sides, found, out_root)
            print(f"  {name}: {problem or 'same'}", file=sys.stderr)
            if problem:
                bad.append(f"{name} ({problem})")
    finally:
        git(repo, "worktree", "remove", "--force", worktree)
        git(repo, "worktree", "prune")

    if bad:
        print(f"driver_diff: {len(bad)} driver(s) differ from "
              f"{args.rev} ({sha[:12]}); outputs in {out_root}:")
        for b in bad:
            print(f"  {b}")
        return 1
    print(f"driver_diff: every driver byte-identical to {args.rev} "
          f"({sha[:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
