#!/usr/bin/env python3
"""Invariant lint pass for the miniQMC-style B-spline codebase.

Static checks for the concurrency and determinism invariants that the test
suite cannot see (ROADMAP.md, "Invariants"):

  * omp-parallel      all thread forking routes through the threading.h seam
                      (team_for / ThreadPartition) or the orbital_set.h facade
                      sweeps.  A raw `#pragma omp
                      parallel` or `num_threads(...)` anywhere else bypasses
                      the partition arithmetic and breaks topology shaping.
  * thread-local      `thread_local` state is a determinism and reuse hazard;
                      per-thread scratch belongs to the two audited owners
                      (OrbitalResource, the Jastrow functor pool).
  * raw-spline-call   spline engine entry points (`evaluate_v/vgl/vgh*`) are
                      only called inside src/core/ — everything above the
                      facade goes through OrbitalSet so batching, zero-fill
                      elimination and tuner decisions apply uniformly.
  * checkpoint-io     snapshot file I/O and the blob codec (`write_snapshot`,
                      `read_snapshot*`, `apply_file_faults`, `BlobWriter`,
                      `BlobReader`) appear only in src/qmc/checkpoint.{h,cpp},
                      so the on-disk format, CRC framing and atomic-rename
                      protocol have one owner.
  * precision-cast    narrowing `static_cast<float>` of coefficient data is
                      the mixed-precision storage decision and is confined to
                      the convert_storage seam (core/coef_storage.h); engines
                      narrow only through their TStore/TCompute parameters.
  * unseeded-rng      `rand()`, `srand()`, `time()`, `std::random_device` and
                      default-constructed standard engines are banned in src/:
                      trajectories must be bit-for-bit reproducible from the
                      config seed (common/rng.h).
  * sweep-body        the per-walker move/measure steps (`metropolis_move`,
                      `quadrature_dist_jastrow`, `full_jastrow`) are called
                      only from crowd_sweep_steps (qmc/crowd_sweep.h), the one
                      move/measure loop every driver runs; a second loop
                      would let drivers drift apart bit by bit.
  * population-loop   `crowd_sweep_steps` is called only by the population
                      core (PopulationCore::sweep, qmc/crowd_sweep.h), which
                      every driver owns, and by the JobQueue's per-pack
                      crowds (qmc/job_queue.cpp); a driver with its own team
                      region would re-own the crowd split, the scratch and
                      the team binding.
  * table-alloc       `mmap`, `munmap`, `madvise`, `aligned_alloc`,
                      `posix_memalign` and `malloc_trim` appear only in the
                      table allocator (core/table_memory.cpp) and
                      common/aligned_allocator.h, so page size, alignment and
                      release of the coefficient tables, and the return of
                      freed heap pages, have one audited owner.

Escape hatch: a comment `// mqc-lint: allow(<rule>)` on the offending line or
the line directly above it silences that one finding — use it with a
justification comment, it is a reviewed decision, not an off switch.

Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------------

SOURCE_EXTS = {".h", ".hpp", ".c", ".cc", ".cpp"}

ALLOW_RE = re.compile(r"mqc-lint:\s*allow\(\s*([a-z0-9-]+)\s*\)")


class Rule:
    def __init__(self, name, summary, pattern, message, allowed_paths=(), allowed_dirs=()):
        self.name = name
        self.summary = summary
        self.pattern = re.compile(pattern)
        self.message = message
        # Paths (relative to the scan root, posix separators) where the
        # construct is legitimate by design.  Directories end with '/'.
        self.allowed_paths = frozenset(allowed_paths)
        self.allowed_dirs = tuple(allowed_dirs)

    def path_allowed(self, relpath: str) -> bool:
        if relpath in self.allowed_paths:
            return True
        return any(relpath.startswith(d) for d in self.allowed_dirs)


RULES = [
    Rule(
        "omp-parallel",
        "raw `#pragma omp parallel` / `num_threads()` outside the threading seam",
        r"(^\s*#\s*pragma\s+omp\b.*\bparallel\b)|(\bnum_threads\s*\()",
        "thread forking must route through common/threading.h (team_for, "
        "ThreadPartition) or the orbital_set.h facade sweeps",
        allowed_paths=(
            "src/common/threading.h",
            "src/common/threading.cpp",
            "src/core/orbital_set.h",
        ),
    ),
    Rule(
        "thread-local",
        "new `thread_local` state outside the audited per-thread owners",
        r"\bthread_local\b",
        "per-thread scratch belongs to OrbitalResource (core/orbital_set.h) or "
        "the Jastrow functor pool (jastrow/bspline_functor.h); new thread_local "
        "state breaks resource accounting and nested-team reuse",
        allowed_paths=(
            "src/core/orbital_set.h",
            "src/jastrow/bspline_functor.h",
        ),
    ),
    Rule(
        "raw-spline-call",
        "spline engine `evaluate_*` entry point called outside src/core/",
        r"\bevaluate_(v|vgl|vgh)(_[a-zA-Z0-9_]+)?\s*\(",
        "code above the facade must evaluate orbitals through OrbitalSet "
        "(core/orbital_set.h) or core/batched.h's evaluate_batched so scheduling, "
        "zero-fill elimination and tuner decisions apply uniformly",
        allowed_dirs=("src/core/",),
    ),
    Rule(
        "checkpoint-io",
        "checkpoint file I/O or blob codec used outside src/qmc/checkpoint.*",
        r"(\bckpt\s*::\s*)?\b(write_snapshot|read_snapshot(_with_fallback)?|"
        r"apply_file_faults|BlobWriter|BlobReader)\b",
        "checkpoint serialization and file I/O live in src/qmc/checkpoint.{h,cpp} "
        "only; drivers snapshot through their population's boundary() and "
        "resume(), the one detail:: hook pair (checkpoint_step_boundary, "
        "resume_from_checkpoint; DMC passes its DmcRunState) so the on-disk "
        "format, CRC framing and atomic-rename protocol have a single owner",
        allowed_paths=(
            "src/qmc/checkpoint.h",
            "src/qmc/checkpoint.cpp",
        ),
    ),
    Rule(
        "precision-cast",
        "coefficient data narrowed with `static_cast<float>` outside the storage seam",
        r"static_cast\s*<\s*float\s*>\s*\([^)]*coef",
        "narrowing coefficient tables to float is the mixed-precision storage "
        "decision and lives in convert_storage (core/coef_storage.h) only; an "
        "ad-hoc narrowing cast silently re-makes that accuracy decision outside "
        "the audited seam (engines narrow via their TStore/TCompute parameters)",
        allowed_paths=("src/core/coef_storage.h",),
    ),
    Rule(
        "unseeded-rng",
        "non-reproducible randomness (`rand`, `srand`, `time`, `random_device`, unseeded engines)",
        r"(\bs?rand\s*\()|(\btime\s*\()|(\brandom_device\b)|"
        r"(\b(mt19937(_64)?|default_random_engine|minstd_rand0?)\b\s*\w*\s*(\(\s*\)|\{\s*\})?\s*;)",
        "trajectories must be bit-for-bit reproducible from the config seed: "
        "use common/rng.h (Xoshiro256) seeded from the run configuration",
    ),
    Rule(
        "sweep-body",
        "per-walker move/measure step called outside the one crowd sweep",
        # A call, not the `inline void name(` definitions in miniqmc_context.h.
        r"(?<!void )\b(metropolis_move|quadrature_dist_jastrow|full_jastrow)\s*\(",
        "crowd_sweep_steps (qmc/crowd_sweep.h) is the only move/measure loop: "
        "every driver advances walkers through it (per-walker = crowds of one, "
        "DMC drift = its proposal-centre argument), so trajectories agree bit "
        "for bit by construction",
        allowed_paths=("src/qmc/crowd_sweep.h",),
    ),
    Rule(
        "population-loop",
        "`crowd_sweep_steps` called outside the population core and the job queue",
        # A call, not the `inline void crowd_sweep_steps(` definition.
        r"(?<!void )\bcrowd_sweep_steps\s*\(",
        "every driver sweeps through the population it owns "
        "(PopulationCore::sweep, qmc/crowd_sweep.h: WalkerPopulation for VMC, "
        "run_miniqmc_dmc for DMC), and only the JobQueue's per-pack crowds "
        "call the sweep directly, so the crowd split, the scratch and the "
        "team binding have one owner",
        allowed_paths=("src/qmc/crowd_sweep.h", "src/qmc/job_queue.cpp"),
    ),
    Rule(
        "table-alloc",
        "raw page mapping, aligned allocation or heap trim outside the audited allocators",
        r"\b(mmap(64)?|munmap|madvise|aligned_alloc|posix_memalign|malloc_trim)\b",
        "coefficient tables get their memory from the one table allocator "
        "(core/table_memory.cpp: 2 MiB-aligned MADV_HUGEPAGE mappings from 2 MiB "
        "up, zero-filled 64-byte blocks below) and other aligned buffers from "
        "common/aligned_allocator.h, so page size, alignment, zeroing and "
        "release each have one owner; freed heap pages go back to the system "
        "through release_free_heap() in the same file",
        allowed_paths=("src/common/aligned_allocator.h", "src/core/table_memory.cpp"),
    ),
]

RULES_BY_NAME = {r.name: r for r in RULES}


# ---------------------------------------------------------------------------
# Comment / string stripping (line-count preserving)
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving newlines so
    line numbers in diagnostics stay exact.  Handles //, /* */, "...", '...'
    with escapes.  (Raw strings are not used in this codebase.)"""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                out.append(c)
                state = "code"
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif state in ("string", "char"):
            if c == "\\":
                i += 2
                continue
            if (state == "string" and c == '"') or (state == "char" and c == "'"):
                out.append(c)
                state = "code"
            elif c == "\n":  # unterminated literal; keep line structure
                out.append(c)
                state = "code"
        i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------

class Finding:
    __slots__ = ("relpath", "line", "rule", "snippet")

    def __init__(self, relpath, line, rule, snippet):
        self.relpath = relpath
        self.line = line
        self.rule = rule
        self.snippet = snippet

    def format(self) -> str:
        return (f"{self.relpath}:{self.line}: [{self.rule.name}] {self.snippet}\n"
                f"    {self.rule.message}\n"
                f"    (deliberate? annotate with  // mqc-lint: allow({self.rule.name}))")


def collect_allows(raw_lines):
    """Map rule name -> set of line numbers silenced by inline allow comments.
    An allow on line L covers L and L+1 (comment-above-the-call style)."""
    allows = {}
    for lineno, line in enumerate(raw_lines, start=1):
        for m in ALLOW_RE.finditer(line):
            allows.setdefault(m.group(1), set()).update((lineno, lineno + 1))
    return allows


def scan_file(path: Path, relpath: str, rules, respect_path_allowlists=True):
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    raw_lines = text.splitlines()
    allows = collect_allows(raw_lines)
    stripped_lines = strip_comments_and_strings(text).splitlines()
    findings = []
    for rule in rules:
        if respect_path_allowlists and rule.path_allowed(relpath):
            continue
        allowed_lines = allows.get(rule.name, ())
        for lineno, line in enumerate(stripped_lines, start=1):
            if rule.pattern.search(line) and lineno not in allowed_lines:
                snippet = raw_lines[lineno - 1].strip()
                if len(snippet) > 80:
                    snippet = snippet[:77] + "..."
                findings.append(Finding(relpath, lineno, rule, snippet))
    return findings


def scan_tree(root: Path, rules):
    src = root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory (wrong --root?)", file=sys.stderr)
        sys.exit(2)
    findings = []
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in SOURCE_EXTS:
            relpath = path.relative_to(root).as_posix()
            findings.extend(scan_file(path, relpath, rules))
    return findings


# ---------------------------------------------------------------------------
# --list-rules
# ---------------------------------------------------------------------------

def list_rules(markdown: bool):
    if markdown:
        print("# Lint rules (`tools/lint_invariants.py`)")
        print()
        print("Generated by `python3 tools/lint_invariants.py --list-rules --markdown`;")
        print("regenerate after editing the rule table.  Silence one deliberate site")
        print("with `// mqc-lint: allow(<rule>)` on the offending line or the line above.")
        print()
        print("| Rule | Flags | Allowed in | Why |")
        print("|------|-------|------------|-----|")
        for r in RULES:
            where = ", ".join(sorted(r.allowed_paths) + [d + "**" for d in r.allowed_dirs])
            print(f"| `{r.name}` | {r.summary} | {where or '—'} | {r.message} |")
    else:
        for r in RULES:
            print(f"{r.name}: {r.summary}")
            where = ", ".join(sorted(r.allowed_paths) + [d + "**" for d in r.allowed_dirs])
            if where:
                print(f"    allowed in: {where}")
            print(f"    {r.message}")


# ---------------------------------------------------------------------------
# --self-test: fixtures under tools/lint_fixtures/
# ---------------------------------------------------------------------------

def self_test(root: Path) -> int:
    fixture_dir = Path(__file__).resolve().parent / "lint_fixtures"
    if not fixture_dir.is_dir():
        print(f"error: fixture directory {fixture_dir} missing", file=sys.stderr)
        return 2
    failures = 0
    ran = 0
    for path in sorted(fixture_dir.glob("*.cpp")):
        stem = path.stem  # e.g. omp_parallel_violation_basic
        rule = next((r for r in RULES if stem.startswith(r.name.replace("-", "_") + "_")), None)
        if rule is None:
            print(f"FAIL {path.name}: fixture name matches no rule")
            failures += 1
            continue
        rest = stem[len(rule.name) + 1:]
        expect_findings = rest.startswith("violation")
        if not expect_findings and not rest.startswith("allowed"):
            print(f"FAIL {path.name}: expected '<rule>_violation_*' or '<rule>_allowed_*'")
            failures += 1
            continue
        # Fixtures sit outside src/, so path allowlists must not apply.
        found = scan_file(path, path.name, [rule], respect_path_allowlists=False)
        ran += 1
        if expect_findings and not found:
            print(f"FAIL {path.name}: expected >=1 [{rule.name}] finding, got 0")
            failures += 1
        elif not expect_findings and found:
            print(f"FAIL {path.name}: expected 0 findings, got {len(found)}:")
            for f in found:
                print("    " + f.format().splitlines()[0])
            failures += 1
        else:
            print(f"PASS {path.name}")
    covered = {r.name for r in RULES
               for p in fixture_dir.glob(r.name.replace('-', '_') + "_violation_*.cpp")}
    for r in RULES:
        if r.name not in covered:
            print(f"FAIL rule {r.name}: no violation fixture exercises it")
            failures += 1
    print(f"self-test: {ran} fixtures, {failures} failure(s)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lint_invariants.py",
        description="static invariant checks for src/ (see --list-rules)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root containing src/ (default: repo root)")
    parser.add_argument("--rule", action="append", metavar="NAME",
                        help="run only this rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every rule and exit")
    parser.add_argument("--markdown", action="store_true",
                        help="with --list-rules: emit the docs/lint_rules.md table")
    parser.add_argument("--self-test", action="store_true",
                        help="run the rule engine against tools/lint_fixtures/")
    args = parser.parse_args(argv)

    if args.list_rules:
        list_rules(args.markdown)
        return 0
    if args.self_test:
        return self_test(args.root)

    rules = RULES
    if args.rule:
        unknown = [n for n in args.rule if n not in RULES_BY_NAME]
        if unknown:
            print(f"error: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules = [RULES_BY_NAME[n] for n in args.rule]

    findings = scan_tree(args.root.resolve(), rules)
    for f in findings:
        print(f.format())
    if findings:
        print(f"\nlint_invariants: {len(findings)} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
