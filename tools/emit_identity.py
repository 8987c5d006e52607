#!/usr/bin/env python3
"""Checks that two igen binaries emit byte-identical output.

Usage: tools/emit_identity.py OLD_IGEN NEW_IGEN [--work DIR] [--keep]

Runs both compilers over every unit:
  * bench/kernels/*.c,
  * an 8-copy and a 64-copy concatenation of renamed copies of them
    (functions k_x/kv_x become k_x_c<N>, decimal constants move by a
    fixed multiple of 1/1024 per copy, so each copy lowers differently),
  * tests/transform/Inputs/*.c,
under nine flag sets, and compares the emitted C, the .sites.json
sidecar (when either side writes one), stderr and the exit status. Both
binaries see the same input path and the same output file name, so the
module and source names baked into --profile/--tier tables agree.

Prints one line per unit and flag set that differs and exits 1 on any
difference; exits 0 when every unit matches. Run from anywhere; paths
are resolved against the repository root.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

FLAG_SETS = [
    ["-O"],
    ["-O0"],
    ["--target=ss"],
    ["--precision=dd"],
    ["--tier"],
    ["--profile"],
    ["--reductions"],
    ["--batch-loops"],
    ["--precision=dd", "--target=vv"],
]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IDENT = re.compile(r"(?<![A-Za-z0-9_])(kv?_[A-Za-z0-9_]*)")
DECIMAL = re.compile(r"(?<![A-Za-z0-9_.])(\d+\.\d*(?:[eE][-+]?\d+)?)")


def renamed_copy(text, n):
    """Copy n of a kernel: renamed functions, shifted decimal constants."""
    text = IDENT.sub(lambda m: m.group(1) + "_c%d" % n, text)

    def shift(m):
        v = float(m.group(1))
        if v == 0.0:
            return m.group(1)
        return "%.10f" % (v + (n % 8 + 1) / 1024.0)

    return DECIMAL.sub(shift, text)


def build_units(work):
    kernels_dir = os.path.join(ROOT, "bench", "kernels")
    kernels = sorted(f for f in os.listdir(kernels_dir) if f.endswith(".c"))
    units = [os.path.join(kernels_dir, k) for k in kernels]
    texts = []
    for k in kernels:
        with open(os.path.join(kernels_dir, k)) as f:
            texts.append(f.read())
    for copies in (8, 64):
        path = os.path.join(work, "in", "cat%d.c" % copies)
        with open(path, "w") as f:
            for i in range(copies):
                f.write(renamed_copy(texts[i % len(texts)], i) + "\n")
        units.append(path)
    inputs_dir = os.path.join(ROOT, "tests", "transform", "Inputs")
    units += [os.path.join(inputs_dir, f)
              for f in sorted(os.listdir(inputs_dir)) if f.endswith(".c")]
    return units


def run(igen, unit, flags, out_dir, stem):
    out = os.path.join(out_dir, stem + ".cpp")
    for p in (out, out + ".sites.json"):
        if os.path.exists(p):
            os.remove(p)
    proc = subprocess.run([igen, unit, "-o", out] + flags,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def slurp(p):
        if not os.path.exists(p):
            return None
        with open(p, "rb") as f:
            return f.read()

    return {
        "exit": proc.returncode,
        "stderr": proc.stderr,
        "c": slurp(out),
        "sidecar": slurp(out + ".sites.json"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--work", help="scratch directory (default: a temp dir)")
    ap.add_argument("--keep", action="store_true",
                    help="keep the scratch directory")
    args = ap.parse_args()
    work = args.work or tempfile.mkdtemp(prefix="emit_identity.")
    for sub in ("in", "old", "new"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    units = build_units(work)
    diffs = 0
    checked = 0
    for unit in units:
        base = os.path.splitext(os.path.basename(unit))[0]
        for i, flags in enumerate(FLAG_SETS):
            stem = "%s_f%d" % (base, i)
            a = run(args.old, unit, flags, os.path.join(work, "old"), stem)
            b = run(args.new, unit, flags, os.path.join(work, "new"), stem)
            checked += 1
            bad = [k for k in ("c", "sidecar", "stderr", "exit")
                   if a[k] != b[k]]
            if bad:
                diffs += 1
                print("DIFF %s [%s]: %s" % (os.path.relpath(unit, ROOT)
                                            if unit.startswith(ROOT)
                                            else base,
                                            " ".join(flags), ", ".join(bad)))
    print("emit_identity: %d units x flag sets, %d differ" % (checked, diffs))
    if not args.keep and not args.work:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
