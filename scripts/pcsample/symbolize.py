#!/usr/bin/env python3
"""Turn a pcsample.<pid>.txt file into a flat profile.

pcsample.c (an LD_PRELOAD sampler) records the instruction pointer
every 100 us of wall time and, at exit, writes the executable maps of
every loaded object followed by the raw samples.  This script assigns
each sample to its object and prints the 40 largest shares of samples
per object, per function and per source line.  Addresses in the main
program go through `addr2line -a -f -i -C`, which reports every
inlined frame at a PC: "innermost" charges a sample to the function
whose code it is in, after inlining is undone; "outermost" to the
real (out-of-line) function containing it.  Shared libraries such as
libm carry no debug info here, so their samples are charged to
"<lib> ~<sym>", the symbol addr2line finds at or below the address
(else the nearest export from `nm -D`), and the source-line table
lists their exact offsets.  The nearest export can be a neighbour:
libm's `log` is an IFUNC whose implementation is a local symbol, so
check a hot offset with
`objdump -d --start-address=0x<offset> <lib>`.

Usage:

    cmake -B build-prof -S . -DCMAKE_BUILD_TYPE=Release \\
          -DCMAKE_CXX_FLAGS="-g -fno-pie" -DCMAKE_EXE_LINKER_FLAGS=-no-pie
    cmake --build build-prof -j2 --target fig7_timeline_mid3
    cc -O2 -shared -fPIC -o build-prof/pcsample.so \\
          scripts/pcsample/pcsample.c
    LD_PRELOAD=$PWD/build-prof/pcsample.so \\
          ./build-prof/bench/fig7_timeline_mid3 budget=100000000 jobs=1
    python3 scripts/pcsample/symbolize.py pcsample.<pid>.txt

Several files (one per process of a repeated run) merge into one
profile; each is read against its own maps, so ASLR does not matter.

Any build with -g works (PIE too: map lines carry the load bias); a
non-PIE Release build keeps the addresses identical to `objdump -d`.
Profile single-threaded runs (jobs=1): the timer signal lands on
whichever thread is running.
"""

import argparse
import bisect
import collections
import os
import subprocess
import sys

TOP = 40  # rows per table

def read_samples(path):
    maps = []     # (lo, hi, bias, object path)
    pcs = collections.Counter()
    header = ""
    with open(path) as f:
        for line in f:
            if line.startswith("pcsample "):
                header = line.strip()
            elif line.startswith("map "):
                _, lo, hi, bias, obj = line.rstrip("\n").split(" ", 4)
                maps.append((int(lo, 16), int(hi, 16), int(bias, 16), obj))
            elif line.strip():
                pcs[int(line, 16)] += 1
    maps.sort()
    return header, maps, pcs


def find_map(maps, starts, pc):
    i = bisect.bisect_right(starts, pc) - 1
    if i >= 0 and maps[i][0] <= pc < maps[i][1]:
        return maps[i]
    return None


def addr2line(obj, addrs):
    """Map file-relative addresses to [(function, file:line), ...],
    innermost frame first."""
    addrs = sorted(addrs)
    text = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
        input="".join("%x\n" % a for a in addrs),
        capture_output=True, text=True, check=True).stdout
    frames = {}
    cur = None
    pending_fn = None
    for line in text.splitlines():
        if line.startswith("0x") and pending_fn is None:
            cur = int(line, 16)
            frames[cur] = []
        elif pending_fn is None:
            pending_fn = line
        else:
            frames[cur].append((pending_fn, line))
            pending_fn = None
    return frames


def dynamic_symbols(obj):
    """Sorted (address, name) of the functions an object exports."""
    try:
        text = subprocess.run(["nm", "-D", "--defined-only", obj],
                              capture_output=True, text=True,
                              check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return []
    syms = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TtWwi":
            syms.append((int(parts[0], 16), parts[2].split("@")[0]))
    syms.sort()
    return syms


def nearest(syms, addr):
    i = bisect.bisect_right(syms, (addr, "\xff")) - 1
    return syms[i][1] if i >= 0 else "?"


def print_table(title, counter, total):
    print("\n%s" % title)
    for name, n in counter.most_common(TOP):
        print("  %6.2f%%  %7d  %s" % (100.0 * n / total, n, name))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("samples", nargs="+",
                    help="pcsample.<pid>.txt files, merged into one profile")
    args = ap.parse_args()

    by_obj = collections.defaultdict(collections.Counter)  # obj -> rel
    unmapped = 0
    total = 0
    for path in args.samples:
        header, maps, pcs = read_samples(path)
        if "dropped=0" not in header:
            print("%s: %s" % (path, header))
        starts = [m[0] for m in maps]
        for pc, n in pcs.items():
            total += n
            m = find_map(maps, starts, pc)
            if m is None:
                unmapped += n
            else:
                by_obj[m[3]][pc - m[2]] += n
    if total == 0:
        sys.exit("no samples in %s" % " ".join(args.samples))
    print("%d samples from %d file(s)" % (total, len(args.samples)))

    objects = collections.Counter(
        {os.path.basename(o): sum(c.values()) for o, c in by_obj.items()})
    if unmapped:
        objects["(unmapped: vdso or JIT)"] = unmapped
    print_table("Samples by object", objects, total)

    inner = collections.Counter()
    outer = collections.Counter()
    lines = collections.Counter()
    for obj, rel in by_obj.items():
        frames = {}
        if os.path.isfile(obj):
            try:
                frames = addr2line(obj, rel.keys())
            except (OSError, subprocess.CalledProcessError):
                frames = {}
        syms = None
        base = os.path.basename(obj)
        for addr, n in rel.items():
            stack = frames.get(addr) or []
            if stack and not stack[0][1].startswith("??:"):
                inner[stack[0][0]] += n
                outer[stack[-1][0]] += n
                lines[stack[0][1]] += n
            else:
                # No line info: take the symbol addr2line found in the
                # symbol table, else the nearest dynamic export.
                sym = stack[0][0] if stack else "??"
                if sym == "??":
                    if syms is None:
                        syms = dynamic_symbols(obj)
                    sym = nearest(syms, addr)
                name = "%s ~%s" % (base, sym)
                inner[name] += n
                outer[name] += n
                lines["%s+0x%x" % (base, addr)] += n
    print_table("Innermost function (inlining undone)", inner, total)
    print_table("Outermost function (the out-of-line frame)", outer, total)
    print_table("Source lines (innermost frame)", lines, total)


if __name__ == "__main__":
    main()
