#!/usr/bin/env python3
"""Vectorization gate: every MQC_SIMD loop in src/ must vectorize.

The kernels reach SIMD speed through `#pragma omp simd` (common/simd.h's
MQC_SIMD, MQC_SIMD_REDUCTION and MQC_SIMD_ALIGNED) and nothing else, so a
loop the compiler leaves scalar is a silent slowdown: no test fails, only the
clock.  This gate recompiles every translation unit of a configured build
with GCC's vectorizer report and checks each MQC_SIMD* site:

  * a site FAILS when any unit reports "couldn't vectorize" inside its loop;
  * a site is NOT INSTANTIATED (also a failure) when no unit reports anything
    inside its loop: a template that no compiled unit instantiates is never
    checked;
  * otherwise it is vectorized.

Each unit is compiled with its own command from compile_commands.json plus
`-fopt-info-vec-optimized -fopt-info-vec-missed` (and `--cxxflags`, appended
last, to check another target); every message is mapped to the site whose
loop body contains its line.

No site is excused, on any target: a loop that one target cannot vectorize is
rewritten until it can (the distance row's minimum-image wrap floors without
std::floor, which x86-64 vectorizes only from SSE4.1).

Usage (from the repository root, after configuring and building `build/`):

  python3 tools/check_vectorization.py --build-dir build
  python3 tools/check_vectorization.py --build-dir build --cxxflags=-march=x86-64-v3
  python3 tools/check_vectorization.py --self-test [--compiler g++]

The gate skips (exit 0, with a message) when the compiler is not GCC or the
build is MQC_NO_VECTOR.  Exit codes: 0 clean or skipped, 1 a failing site
(or self-test failure), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_invariants import strip_comments_and_strings  # noqa: E402

OPT_INFO = ["-fopt-info-vec-optimized", "-fopt-info-vec-missed"]
SITE_RE = re.compile(r"\bMQC_SIMD(_REDUCTION|_ALIGNED)?\b")
MSG_RE = re.compile(r"^(?P<file>[^\s:][^:]*):(?P<line>\d+):\d+: (?P<kind>optimized|missed): (?P<text>.*)$")
FAILED_TEXT = "couldn't vectorize"
SOURCE_EXTS = {".h", ".hpp", ".cpp", ".cc"}


class Site:
    def __init__(self, path, first, last):
        self.path = path      # relative to the root, posix separators
        self.first = first    # line of the `for`
        self.last = last      # last line of the loop body
        self.seen_in = set()  # units that reported a message inside the loop
        self.failed_in = set()

    def label(self):
        return f"{self.path}:{self.first}"


# ---------------------------------------------------------------------------
# Sites: every MQC_SIMD* pragma and the loop it governs
# ---------------------------------------------------------------------------

def _match_close(text, pos):
    """Index just past the bracket closing the one at text[pos]."""
    pairs = {"(": ")", "[": "]", "{": "}"}
    stack = []
    i = pos
    while i < len(text):
        c = text[i]
        if c in pairs:
            stack.append(pairs[c])
        elif stack and c == stack[-1]:
            stack.pop()
            if not stack:
                return i + 1
        i += 1
    raise ValueError("unbalanced brackets")


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _statement_end(text, pos):
    """Index just past the statement starting at (or after whitespace at) pos."""
    pos = _skip_ws(text, pos)
    if text.startswith("{", pos):
        return _match_close(text, pos)
    m = re.compile(r"(for|while|if|switch)\b").match(text, pos)
    if m:
        head = _skip_ws(text, m.end())
        end = _statement_end(text, _match_close(text, head))
        if m.group(1) == "if":
            after = _skip_ws(text, end)
            if re.compile(r"else\b").match(text, after):
                end = _statement_end(text, after + 4)
        return end
    depth = 0
    while pos < len(text):
        c = text[pos]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == ";" and depth == 0:
            return pos + 1
        pos += 1
    raise ValueError("unterminated statement")


def find_sites(root: Path):
    sites = []
    for path in sorted((root / "src").rglob("*")):
        if not (path.is_file() and path.suffix in SOURCE_EXTS):
            continue
        rel = path.relative_to(root).as_posix()
        text = strip_comments_and_strings(path.read_text(encoding="utf-8", errors="replace"))
        for m in SITE_RE.finditer(text):
            line_start = text.rfind("\n", 0, m.start()) + 1
            if text[line_start:m.start()].lstrip().startswith("#"):
                continue  # the macro definitions in common/simd.h
            pos = _skip_ws(text, m.end())
            if text.startswith("(", pos):
                pos = _match_close(text, pos)
            for_at = _skip_ws(text, pos)
            if not re.compile(r"for\b").match(text, for_at):
                raise ValueError(f"{rel}:{text.count(chr(10), 0, m.start()) + 1}: "
                                 f"{m.group(0)} is not followed by a for loop")
            end = _statement_end(text, for_at)
            first = text.count("\n", 0, for_at) + 1
            last = text.count("\n", 0, end) + 1
            sites.append(Site(rel, first, last))
    return sites


# ---------------------------------------------------------------------------
# Units: recompile with the vectorizer report
# ---------------------------------------------------------------------------

def unit_args(entry):
    """The entry's compile arguments, without output and dependency files."""
    args = entry["arguments"] if "arguments" in entry else shlex.split(entry["command"])
    out = []
    skip = False
    for a in args:
        if skip:
            skip = False
            continue
        if a in ("-o", "-MF", "-MT", "-MQ"):
            skip = True
            continue
        if a in ("-MD", "-MMD"):
            continue
        out.append(a)
    return out


def target_macros(flags, cwd):
    """The predefined macros of a compiler command without its source."""
    proc = subprocess.run(list(flags) + ["-dM", "-E", "-x", "c++", os.devnull], cwd=cwd,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"macro query failed: {proc.stderr.strip()[:500]}")
    return {ln.split()[1] for ln in proc.stdout.splitlines() if ln.startswith("#define ")}


def compile_report(args, cwd):
    proc = subprocess.run(args + OPT_INFO + ["-o", os.devnull], cwd=cwd,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"compile failed in {cwd}: {proc.stderr.strip()[:2000]}")
    return proc.stderr.splitlines()


def map_messages(lines, cwd, root, by_path, unit):
    for line in lines:
        m = MSG_RE.match(line)
        if not m:
            continue
        path = Path(m.group("file"))
        if not path.is_absolute():
            path = Path(cwd) / path
        try:
            rel = Path(os.path.normpath(path)).relative_to(root).as_posix()
        except ValueError:
            continue
        lineno = int(m.group("line"))
        inside = [s for s in by_path.get(rel, ()) if s.first <= lineno <= s.last]
        if not inside:
            continue
        site = min(inside, key=lambda s: s.last - s.first)  # the innermost loop
        site.seen_in.add(unit)
        if FAILED_TEXT in m.group("text"):
            site.failed_in.add(unit)


def run_gate(root: Path, build_dir: Path, cxxflags, jobs, quiet=False):
    """Returns (exit code, {site label: status}) where status is one of
    vectorized, failed, uninstantiated."""
    db = build_dir / "compile_commands.json"
    if not db.is_file():
        print(f"error: {db} not found (configure with CMAKE_EXPORT_COMPILE_COMMANDS)",
              file=sys.stderr)
        return 2, {}
    entries = json.loads(db.read_text())
    units = []
    for e in entries:
        args = unit_args(e) + cxxflags
        src = Path(e["file"])
        if not src.is_absolute():
            src = Path(e["directory"]) / src
        try:
            rel = src.resolve().relative_to(root).as_posix()
        except ValueError:
            rel = src.as_posix()
        units.append((rel, args, e["directory"]))
    if not units:
        print("error: compile_commands.json lists no units", file=sys.stderr)
        return 2, {}
    if any("-DMQC_NO_VECTOR" in args for _, args, _ in units):
        print("check_vectorization: skipped: MQC_NO_VECTOR build (no simd pragmas to check)")
        return 0, {}

    _, args, cwd = units[0]
    first = target_macros([a for a in args if a != "-c" and not a.endswith(tuple(SOURCE_EXTS))],
                          cwd)
    if "__clang__" in first or "__GNUC__" not in first:
        print("check_vectorization: skipped: the compiler is not GCC "
              "(the gate reads GCC's -fopt-info report)")
        return 0, {}

    sites = find_sites(root)
    by_path = {}
    for s in sites:
        by_path.setdefault(s.path, []).append(s)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        reports = list(pool.map(lambda u: compile_report(u[1], u[2]), units))
    for (rel, _, cwd), lines in zip(units, reports):
        map_messages(lines, cwd, root, by_path, rel)

    status = {}
    for s in sites:
        label = s.label()
        if not s.seen_in:
            status[label] = "uninstantiated"
            line = f"FAIL     {label}  no compiled unit instantiates this loop"
        elif not s.failed_in:
            status[label] = "vectorized"
            line = f"ok       {label}  vectorized ({len(s.seen_in)} units)"
        else:
            failed = sorted(s.failed_in)
            status[label] = "failed"
            line = (f"FAIL     {label}  couldn't vectorize in {', '.join(failed[:3])}"
                    + (f" and {len(failed) - 3} more" if len(failed) > 3 else ""))
        if not quiet:
            print(line)
    bad = sum(st in ("failed", "uninstantiated") for st in status.values())
    if not quiet:
        print(f"check_vectorization: {len(sites)} sites, {len(units)} units, {bad} failing")
    return (1 if bad else 0), status


# ---------------------------------------------------------------------------
# --self-test: a fixture with loops of known outcome
# ---------------------------------------------------------------------------

EXPECT_RE = re.compile(r"//\s*expect:\s*(vectorized|failed|uninstantiated)")


def self_test(compiler, repo_root: Path) -> int:
    fixture = Path(__file__).resolve().parent / "vectorization_fixtures" / "simd_loops.cpp"
    if shutil.which(compiler) is None:
        print(f"error: compiler {compiler} not found", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        (root / "src").mkdir()
        (root / "build").mkdir()
        src = root / "src" / fixture.name
        shutil.copyfile(fixture, src)
        cmd = [compiler, f"-I{repo_root / 'src'}", "-O3", "-std=c++20", "-fopenmp-simd",
               "-c", str(src)]
        (root / "build" / "compile_commands.json").write_text(json.dumps(
            [{"directory": str(root / "build"), "arguments": cmd, "file": str(src)}]))
        expected = {}
        raw = fixture.read_text().splitlines()
        for site in find_sites(root):
            # The expectation comment sits on one of the lines above the pragma.
            ahead = [EXPECT_RE.search(raw[i]) for i in range(max(0, site.first - 4), site.first)]
            found = [m.group(1) for m in ahead if m]
            if not found:
                print(f"FAIL fixture site {site.label()} has no '// expect:' comment")
                return 1
            expected[site.label()] = found[-1]
        code, status = run_gate(root, root / "build", [], 1, quiet=True)
        if code == 0 and not status:
            print("check_vectorization --self-test: skipped: the compiler is not GCC")
            return 0
    failures = 0
    for label, want in sorted(expected.items()):
        got = status.get(label)
        ok = got == want
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label}: expected {want}, got {got}")
    if set(expected.values()) != {"vectorized", "failed", "uninstantiated"}:
        print("FAIL the fixture must cover vectorized, failed and uninstantiated sites")
        failures += 1
    print(f"self-test: {len(expected)} sites, {failures} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_vectorization.py",
        description="fail when an MQC_SIMD loop in src/ does not vectorize")
    parser.add_argument("--build-dir", type=Path, default=None,
                        help="configured build tree with compile_commands.json "
                             "(default: build/ in the repository)")
    parser.add_argument("--cxxflags", default="",
                        help="extra flags appended to every unit, e.g. "
                             "--cxxflags=-march=x86-64-v3")
    parser.add_argument("--self-test", action="store_true",
                        help="check the gate against tools/vectorization_fixtures/")
    parser.add_argument("--compiler", default="g++",
                        help="compiler for --self-test (default: g++)")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    jobs = min(4, os.cpu_count() or 1)
    if args.self_test:
        return self_test(args.compiler, root)
    build_dir = (args.build_dir or root / "build").resolve()
    code, _ = run_gate(root, build_dir, shlex.split(args.cxxflags), jobs)
    return code


if __name__ == "__main__":
    sys.exit(main())
