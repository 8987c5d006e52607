#!/usr/bin/env python3
"""Compares the machine code two source trees' runtime headers compile to.

Usage: tools/kernel_code_diff.py OLD_TREE NEW_TREE [--gen DIR] [--work DIR]

The kernels igen generates include the interval runtime headers
(src/interval/*.h), so the same generated C++ compiles to different code
when the headers change. This compiles, once against each tree's src/:
  * every igen-generated kernel TU of bench/ (the *.cpp files in the
    generated-kernel directory that have a *.pre.c input beside them;
    default NEW_TREE/build/bench_kernels_gen, built by the
    igen_bench_kernels target);
  * each tree's own runtime TUs (src/runtime/DdBatchKernels*.cpp,
    BatchKernels*.cpp, BatchElem*.cpp, BatchReduce.cpp) and Fig. 8's
    precompiled baseline (src/baselines/BaselineIntervals.cpp), adding
    the per-file options the CMakeLists.txt beside each sets.
Every unit gets the C++ standard and the add_compile_options of its
tree's top-level CMakeLists.txt, plus -DNDEBUG (the benchmark builds
Release). The compiler is the one NEW_TREE/build was configured with
(CMAKE_CXX_COMPILER), or c++ when that tree has no build. Each object is
disassembled with `objdump -d -r -C --no-addresses --no-show-raw-insn`,
split into functions and compared function by function. Relocations are
kept, so a call to a different or renamed function differs; constant-pool
labels (.LC<n>) are compared without their number, because a change
elsewhere in a TU renumbers them.

Prints each differing function with its unit and exits 1 on any
difference; exits 0 when every function matches and 2 on a setup error.
Compiles with one worker per CPU the process may run on.
"""

import argparse
import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

# Source patterns, relative to src/, compiled from each tree.
TREE_TUS = ["runtime/DdBatchKernels*.cpp", "runtime/BatchKernels*.cpp",
            "runtime/BatchElem*.cpp", "runtime/BatchReduce.cpp",
            "baselines/BaselineIntervals.cpp"]
HEADER = re.compile(r"^<(.+)>:$")
LOCAL_LABEL = re.compile(r"\.LC\d+")
# An address comment that only repeats the next instruction's offset.
ADDR_COMMENT = re.compile(r"\s+# <[^>]*>$")


def fail(msg):
    print("kernel_code_diff: " + msg, file=sys.stderr)
    sys.exit(2)


def project_flags(tree):
    """The C++ standard and add_compile_options of the top-level
    CMakeLists.txt, plus -DNDEBUG."""
    text = open(os.path.join(tree, "CMakeLists.txt")).read()
    std = re.search(r"set\(CMAKE_CXX_STANDARD\s+(\d+)\)", text)
    opts = re.search(r"add_compile_options\(([^)]*)\)", text)
    if not std or not opts:
        fail("%s/CMakeLists.txt sets no CMAKE_CXX_STANDARD or "
             "add_compile_options" % tree)
    return ["-std=c++" + std.group(1)] + opts.group(1).split() + ["-DNDEBUG"]


def file_options(tree, rel):
    """The COMPILE_OPTIONS the CMakeLists.txt beside src/<rel> sets for it."""
    d, name = os.path.split(rel)
    text = open(os.path.join(tree, "src", d, "CMakeLists.txt")).read()
    m = re.search(r"set_source_files_properties\(\s*%s\s+PROPERTIES\s+"
                  r"COMPILE_OPTIONS\s+\"([^\"]*)\"" % re.escape(name), text)
    return m.group(1).split(";") if m else []


def tree_tus(tree):
    """The TREE_TUS of one tree, relative to its src/."""
    src = os.path.join(tree, "src")
    return sorted(os.path.relpath(p, src) for pat in TREE_TUS
                  for p in glob.glob(os.path.join(src, pat)))


def compiler(tree):
    """The compiler the tree's build/ was configured with, else c++."""
    try:
        text = open(os.path.join(tree, "build", "CMakeCache.txt")).read()
    except OSError:
        return "c++"
    m = re.search(r"^CMAKE_CXX_COMPILER:FILEPATH=(.+)$", text, re.M)
    return m.group(1) if m else "c++"


def compile_unit(job):
    cxx, src, obj, args = job
    r = subprocess.run([cxx] + args + ["-c", src, "-o", obj],
                       capture_output=True, text=True)
    if r.returncode != 0:
        return "%s:\n%s" % (src, r.stderr[-2000:])
    return None


def functions(obj):
    """Maps each function of an object file to its instruction lines (none
    when the unit exists in one tree only)."""
    if not os.path.exists(obj):
        return {}
    out = subprocess.run(["objdump", "-d", "-r", "-C", "--no-addresses",
                          "--no-show-raw-insn", obj],
                         capture_output=True, text=True, check=True).stdout
    funcs, cur = {}, None
    for line in out.splitlines():
        m = HEADER.match(line)
        if m:
            cur = funcs.setdefault(m.group(1), [])
            continue
        if cur is None or not line.strip() or \
                line.startswith("Disassembly of section"):
            continue
        line = ADDR_COMMENT.sub("", line)
        cur.append(LOCAL_LABEL.sub(".LC", line.strip()))
    return funcs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old_tree")
    ap.add_argument("new_tree")
    ap.add_argument("--gen", help="generated kernel directory")
    ap.add_argument("--work", help="keep objects here (default: a "
                    "temporary directory, removed afterwards)")
    args = ap.parse_args()

    trees = [os.path.abspath(args.old_tree), os.path.abspath(args.new_tree)]
    for t in trees:
        if not os.path.isdir(os.path.join(t, "src", "interval")):
            fail("%s has no src/interval" % t)
    gen = os.path.abspath(args.gen or os.path.join(trees[1], "build",
                                                   "bench_kernels_gen"))
    kernels = sorted(p for p in glob.glob(os.path.join(gen, "*.cpp"))
                     if os.path.exists(p[:-len(".cpp")] + ".pre.c"))
    if not kernels:
        fail("no generated kernels in %s (build the igen_bench_kernels "
             "target, or pass --gen)" % gen)
    simd_gen = os.path.join(os.path.dirname(gen), "igen_simd_gen")

    work = args.work or tempfile.mkdtemp(prefix="kernel_code_diff.")
    cxx = compiler(trees[1])
    jobs = []
    for side, tree in zip(("old", "new"), trees):
        os.makedirs(os.path.join(work, side), exist_ok=True)
        flags = project_flags(tree) + ["-I" + os.path.join(tree, "src"),
                                       "-I" + simd_gen]
        for k in kernels:
            name = os.path.basename(k)[:-len(".cpp")]
            jobs.append((cxx, k, os.path.join(work, side, name + ".o"),
                         flags))
        for tu in tree_tus(tree):
            name = os.path.basename(tu)[:-len(".cpp")]
            jobs.append((cxx, os.path.join(tree, "src", tu),
                         os.path.join(work, side, name + ".o"),
                         flags + file_options(tree, tu)))
    tus = sorted(set(tree_tus(trees[0])) | set(tree_tus(trees[1])))
    units = [os.path.basename(k)[:-len(".cpp")] for k in kernels] + \
        [os.path.basename(tu)[:-len(".cpp")] for tu in tus]

    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        errors = [e for e in pool.map(compile_unit, jobs) if e]
    if errors:
        fail("compile failed\n" + "\n".join(errors))

    differ = total = 0
    for unit in units:
        old, new = (functions(os.path.join(work, side, unit + ".o"))
                    for side in ("old", "new"))
        for fn in sorted(set(old) | set(new)):
            total += 1
            if fn not in old:
                what = "only in new"
            elif fn not in new:
                what = "only in old"
            elif old[fn] != new[fn]:
                what = "differs (%d -> %d lines)" % (len(old[fn]),
                                                           len(new[fn]))
            else:
                continue
            differ += 1
            print("%s: %s: %s" % (unit, fn, what))
    print("kernel_code_diff: %d units, %d functions, %d differ"
          % (len(units), total, differ))
    if not args.work:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
