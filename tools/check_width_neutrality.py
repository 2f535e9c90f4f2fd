#!/usr/bin/env python3
"""Width-neutrality check: trajectory bits must not follow the vector width.

Native builds compile every MQC_SIMD loop at the host's full vector width, so
the same source runs 256-bit code on one machine and 512-bit code on another.
The spline and distance loops are element-wise and every trajectory sum adds
in common/simd.h's fixed lane order, so the walkers must come out the same.
This check builds examples/checkpoint_restart (portable build plus
CMAKE_CXX_FLAGS) once per width:

  v3-128  -march=x86-64-v3 -mprefer-vector-width=128
  v3-256  -march=x86-64-v3 -mprefer-vector-width=256
  v4-512  -march=x86-64-v4 -mprefer-vector-width=512   (only where the host's
          /proc/cpuinfo lists avx512f, since the binary must run here)

Every build contracts FMAs (which does change bits, ROADMAP item 4), so only
the width differs.  Each build runs six configurations with a snapshot every
2 steps, and each run's stdout, .ckpt and .ckpt.prev must equal the first
build's byte for byte.  The determinant's sums reach those files through the
inverse and log-det; the Jastrow ratio reaches them only through accept
decisions, which a last-bit change does not flip here, so its order is pinned
by Jastrow.SumRowFollowsTheFixedLaneOrder instead.

Usage (from the repository root; about 80 s for three builds on 4 vCPU):

  python3 tools/check_width_neutrality.py --work-dir build-width

Exit codes: 0 every file identical, 1 a difference or a failed build or run,
2 usage error.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WIDTHS = [
    ("v3-128", "-march=x86-64-v3 -mprefer-vector-width=128"),
    ("v3-256", "-march=x86-64-v3 -mprefer-vector-width=256"),
    ("v4-512", "-march=x86-64-v4 -mprefer-vector-width=512"),
]

CONFIGS = [
    ("default", []),
    ("aos", ["--layout", "aos"]),
    ("aosoa-crowd", ["--layout", "aosoa", "--driver", "crowd"]),
    ("mixed-aosoa", ["--precision", "mixed", "--layout", "aosoa"]),
    ("dmc4", ["--dmc", "4"]),
    ("shards2-crowd", ["--shards", "2", "--driver", "crowd"]),
]

OUTPUTS = (".out", ".ckpt", ".ckpt.prev")


def host_has_avx512f() -> bool:
    try:
        return "avx512f" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


def build(build_dir: Path, cxxflags: str) -> Path | None:
    steps = [
        ["cmake", "-S", str(ROOT), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release",
         "-DMQC_NATIVE_ARCH=OFF", "-DMQC_WERROR=ON", "-DMQC_BUILD_TESTS=OFF",
         "-DMQC_BUILD_BENCH=OFF", f"-DCMAKE_CXX_FLAGS={cxxflags}"],
        ["cmake", "--build", str(build_dir), "--target", "checkpoint_restart",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
            print(f"FAIL: {' '.join(cmd)}")
            return None
    return build_dir / "examples" / "checkpoint_restart"


def run_configs(binary: Path, run_dir: Path) -> bool:
    run_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for name, args in CONFIGS:
        for suffix in OUTPUTS:
            (run_dir / (name + suffix)).unlink(missing_ok=True)
        with open(run_dir / (name + ".out"), "wb") as out:
            code = subprocess.run([str(binary), "--ckpt", name + ".ckpt", "--interval", "2", *args],
                                  cwd=run_dir, stdout=out).returncode
        if code != 0:
            print(f"FAIL: {name} exited {code}")
            ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-dir", type=Path, default=Path("build-width"),
                        help="one build and run directory per width goes here")
    args = parser.parse_args(argv)
    work_dir = args.work_dir.resolve()  # the runs execute inside it

    widths = WIDTHS if host_has_avx512f() else WIDTHS[:2]
    if len(widths) < len(WIDTHS):
        print("v4-512 skipped: /proc/cpuinfo lists no avx512f")

    run_dirs = []
    for label, cxxflags in widths:
        binary = build(work_dir / label, cxxflags)
        if binary is None:
            return 1
        print(f"{label}: built with {cxxflags}")
        run_dir = work_dir / label / "runs"
        if not run_configs(binary, run_dir):
            return 1
        run_dirs.append((label, run_dir))

    (ref_label, ref_dir), others = run_dirs[0], run_dirs[1:]
    failures = 0
    compared = len(CONFIGS) * len(OUTPUTS) * len(others)
    for name, _ in CONFIGS:
        for suffix in OUTPUTS:
            ref = ref_dir / (name + suffix)
            for label, run_dir in others:
                got = run_dir / (name + suffix)
                same = ref.exists() and got.exists() and filecmp.cmp(ref, got, shallow=False)
                if not same:
                    print(f"DIFFERS: {name}{suffix} {ref_label} vs {label}")
                    failures += 1
    labels = ", ".join(label for label, _ in run_dirs)
    if failures:
        print(f"width-neutrality FAILED: {failures} of {compared} file comparisons differ "
              f"across {labels}")
        return 1
    print(f"width-neutrality ok: {len(CONFIGS)} configurations x {len(OUTPUTS)} files "
          f"identical across {labels}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
