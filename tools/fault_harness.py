#!/usr/bin/env python3
"""Fault-injection harness for the crash-consistent checkpoint subsystem.

Drives build/examples/checkpoint_restart through the failure modes the
checkpoint format must survive, and FAILS when an injected fault is not
detected or a resumed trajectory diverges from the uninterrupted reference:

  kill -> resume        process killed mid-run at a step boundary
                        (MQC fault `abort@N`, exit code 42); the resumed run
                        must reproduce the reference `walker_accepts` /
                        `walker_log_det` fingerprints bit-for-bit;
  corrupt -> fall back  a section of the snapshot is corrupted before the
                        kill; the resume must detect it (CRC), fall back to
                        the previous good snapshot, and still match;
  truncate -> fall back same, for a truncated file tail;
  version skew          a snapshot whose format-version field is patched
                        (header CRC recomputed, so only the version check
                        can reject it) must be refused;
  config skew           resuming under a different seed must be refused via
                        the config trajectory hash — fresh start, no crash,
                        no silent wrong-state resume;
  precision skew        a snapshot written under --precision mixed must be
                        refused by a native resume (and vice versa): the
                        resolved precision path is part of the config hash
                        because the two trajectories diverge from the first
                        accepted move;
  noop injection        a file fault aimed at a non-existent target
                        (corrupt@walker99 with 4 walkers) must be surfaced as
                        an explicit NO-OP warning, never silently skipped;
  malformed spec        a signed step number (abort@+3) must be rejected at
                        parse time with a warning, and the run completes
                        cleanly with no fault armed;
  population resume     a resident WalkerPopulation (--shards) killed under
                        one shard count must resume under a DIFFERENT shard
                        count bit-for-bit.
  dmc kill -> resume    a DMC branching run (dynamic population, birth/death)
                        killed at a generation boundary must resume
                        bit-for-bit: per-walker fingerprints AND the
                        branching provenance (population trace tail,
                        cumulative birth/death counters, trial-energy bits);
  dmc corrupt -> prev   same, with the newest snapshot's Meta section (which
                        carries the DMC tail) corrupted: detect, fall back to
                        .prev, still land on the reference.

Scenarios run for both drivers under two MQC_PARTITION shapes so the resume
invariant is exercised across schedules, not just one thread layout.  Only a
one-crowd population takes an inner team, so the per-walker driver (4 crowds
of one) sweeps 4x1 under both shapes.
kill -> resume and corrupt -> fall back also run under --layout aos, so the
AoS distance-table rebuild on restore sees injected faults too.  Every
scenario that injects file damage also asserts the binary CONFIRMED the
injection on stderr (`fault-injected:`) — an injection that quietly becomes
a no-op is itself a harness failure.

Stdlib only; exit 0 = all scenarios pass, 1 = failures, 2 = usage error.
"""

from __future__ import annotations

import argparse
import binascii
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

FAULT_EXIT_CODE = 42  # ckpt::kFaultExitCode: an injected kill, not a crash
HEADER_CRC_SPAN = 24  # magic(8) + version(4) + config_hash(8) + count(4)
VERSION_OFFSET = 8


class Failure(Exception):
    pass


def run_binary(binary, args, env_extra=None, expect_exit=0):
    """Run the example binary; raise Failure on unexpected exit code.
    Returns the CompletedProcess so scenarios can inspect stderr (injection
    confirmations / NO-OP warnings) as well as stdout."""
    env = dict(os.environ)
    env.update(env_extra or {})
    proc = subprocess.run([str(binary)] + args, capture_output=True, text=True, env=env)
    if proc.returncode != expect_exit:
        raise Failure(
            f"{' '.join(args)}: exit {proc.returncode}, expected {expect_exit}\n"
            f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
    return proc


def expect_injection_confirmed(proc, tag):
    """A run that was supposed to damage the snapshot must say so: require a
    `fault-injected:` confirmation and reject any `NO-OP` — a fault plan that
    silently failed to fire would make every downstream PASS meaningless."""
    expect("fault-injected:" in proc.stderr,
           f"{tag}: no fault-injected confirmation on stderr — the injection "
           f"was a silent no-op\nstderr:\n{proc.stderr}")
    expect("NO-OP" not in proc.stderr,
           f"{tag}: injection partially no-op'd\nstderr:\n{proc.stderr}")


def parse_run(stdout):
    """Parse the machine-readable output of checkpoint_restart."""
    out = {"fingerprints": []}
    for line in stdout.splitlines():
        if line.startswith("fingerprint "):
            _, wid, accepts, bits = line.split()
            out["fingerprints"].append((int(wid), int(accepts), bits))
        elif "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


def expect(cond, what):
    if not cond:
        raise Failure(what)


def expect_fingerprints_equal(ref, got, what):
    expect(got["fingerprints"] == ref["fingerprints"],
           f"{what}: trajectory diverged from uninterrupted reference\n"
           f"  reference: {ref['fingerprints']}\n"
           f"  resumed:   {got['fingerprints']}")


def patch_version(path):
    """Flip the format-version field and RE-COMPUTE the header CRC, so only
    the version check itself can reject the file (not the CRC)."""
    data = bytearray(Path(path).read_bytes())
    version = struct.unpack_from("<I", data, VERSION_OFFSET)[0]
    struct.pack_into("<I", data, VERSION_OFFSET, version + 1)
    crc = binascii.crc32(bytes(data[:HEADER_CRC_SPAN])) & 0xFFFFFFFF
    struct.pack_into("<I", data, HEADER_CRC_SPAN, crc)
    Path(path).write_bytes(bytes(data))


def scenario_kill_resume(binary, workdir, base_args, env, tag):
    """abort@3 with interval 2: the resume restarts from the step-2 snapshot
    and must land on the reference fingerprints."""
    ckpt = str(workdir / f"{tag}.ckpt")
    ref = parse_run(run_binary(binary, base_args + ["--steps", "6"], env).stdout)
    run_binary(binary, base_args + ["--steps", "6", "--ckpt", ckpt, "--interval", "2",
                                    "--fault", "abort@3"], env, expect_exit=FAULT_EXIT_CODE)
    got = parse_run(run_binary(binary, base_args + ["--steps", "6", "--ckpt", ckpt,
                                                    "--resume"], env).stdout)
    expect(got["resumed_from_step"] == "2", f"{tag}: resumed_from_step="
           f"{got['resumed_from_step']}, expected 2 (last interval-aligned snapshot)")
    expect_fingerprints_equal(ref, got, tag)
    return ref


def scenario_corrupt_fallback(binary, workdir, base_args, env, tag, ref):
    """Corrupt a walker section in the newest snapshot right before the kill:
    the resume must DETECT it (CRC) and fall back to the .prev snapshot."""
    ckpt = str(workdir / f"{tag}.ckpt")
    kill = run_binary(binary, base_args + ["--steps", "6", "--ckpt", ckpt, "--interval", "1",
                                           "--fault", "abort@3,corrupt@walker0"], env,
                      expect_exit=FAULT_EXIT_CODE)
    expect_injection_confirmed(kill, tag)
    got = parse_run(run_binary(binary, base_args + ["--steps", "6", "--ckpt", ckpt,
                                                    "--resume"], env).stdout)
    expect(got["resume_fallback"] == "1",
           f"{tag}: injected corruption NOT detected (no fallback to .prev; "
           f"resume_error='{got['resume_error']}')")
    expect(got["resume_error"] != "", f"{tag}: detected fault left no diagnostic")
    expect(got["resumed_from_step"] == "2",
           f"{tag}: fell back to step {got['resumed_from_step']}, expected 2")
    expect_fingerprints_equal(ref, got, tag)


def scenario_truncate_fallback(binary, workdir, base_args, env, tag, ref):
    ckpt = str(workdir / f"{tag}.ckpt")
    kill = run_binary(binary, base_args + ["--steps", "6", "--ckpt", ckpt, "--interval", "1",
                                           "--fault", "abort@3,truncate@40"], env,
                      expect_exit=FAULT_EXIT_CODE)
    expect_injection_confirmed(kill, tag)
    got = parse_run(run_binary(binary, base_args + ["--steps", "6", "--ckpt", ckpt,
                                                    "--resume"], env).stdout)
    expect(got["resume_fallback"] == "1",
           f"{tag}: truncation NOT detected (resume_error='{got['resume_error']}')")
    expect(got["resumed_from_step"] == "2",
           f"{tag}: fell back to step {got['resumed_from_step']}, expected 2")
    expect_fingerprints_equal(ref, got, tag)


def scenario_version_skew(binary, workdir, base_args, env, tag, ref):
    """A future-format snapshot (valid CRCs!) must be refused on version, and
    the refused run falls back to a fresh full-length run, still matching the
    reference because the trajectory is deterministic from the seed."""
    ckpt = workdir / f"{tag}.ckpt"
    run_binary(binary, base_args + ["--steps", "4", "--ckpt", str(ckpt), "--interval", "2"], env)
    patch_version(ckpt)
    prev = Path(str(ckpt) + ".prev")
    if prev.exists():
        patch_version(prev)
    got = parse_run(run_binary(binary, base_args + ["--steps", "6", "--ckpt", str(ckpt),
                                                    "--resume"], env).stdout)
    expect(got["resumed_from_step"] == "-1",
           f"{tag}: version-skewed snapshot was ACCEPTED (resumed from "
           f"{got['resumed_from_step']})")
    expect("version" in got["resume_error"],
           f"{tag}: rejection not attributed to version (resume_error="
           f"'{got['resume_error']}')")
    expect_fingerprints_equal(ref, got, tag)


def scenario_config_skew(binary, workdir, base_args, env, tag, ref):
    """A snapshot from a different seed hashes to a different trajectory:
    resuming from it must be refused — fresh start, never a silent
    wrong-state resume."""
    ckpt = str(workdir / f"{tag}.ckpt")
    run_binary(binary, base_args + ["--steps", "4", "--ckpt", ckpt, "--interval", "2",
                                    "--seed", "99"], env)
    got = parse_run(run_binary(binary, base_args + ["--steps", "6", "--ckpt", ckpt,
                                                    "--resume"], env).stdout)
    expect(got["resumed_from_step"] == "-1",
           f"{tag}: foreign-config snapshot was ACCEPTED (resumed from "
           f"{got['resumed_from_step']})")
    expect(got["resume_error"] != "", f"{tag}: refusal left no diagnostic")
    expect_fingerprints_equal(ref, got, tag)


def scenario_precision_skew(binary, workdir, base_args, env, tag, ref):
    """A snapshot written under the mixed precision path (SP tables, DP
    accumulation) is a different trajectory from the first accepted move on:
    the resolved path is folded into the config hash, so a native resume must
    refuse it and fresh-start — and a mixed resume must refuse a native
    snapshot the same way."""
    ckpt = str(workdir / f"{tag}.ckpt")
    run_binary(binary, base_args + ["--steps", "4", "--ckpt", ckpt, "--interval", "2",
                                    "--precision", "mixed"], env)
    got = parse_run(run_binary(binary, base_args + ["--steps", "6", "--ckpt", ckpt,
                                                    "--resume"], env).stdout)
    expect(got["resumed_from_step"] == "-1",
           f"{tag}: mixed-path snapshot was ACCEPTED by a native resume "
           f"(resumed from {got['resumed_from_step']})")
    expect(got["resume_error"] != "", f"{tag}: refusal left no diagnostic")
    expect_fingerprints_equal(ref, got, tag)

    rev = str(workdir / f"{tag}_rev.ckpt")
    run_binary(binary, base_args + ["--steps", "4", "--ckpt", rev, "--interval", "2"], env)
    got = parse_run(run_binary(binary, base_args + ["--steps", "6", "--ckpt", rev, "--resume",
                                                    "--precision", "mixed"], env).stdout)
    expect(got["resumed_from_step"] == "-1",
           f"{tag}: native snapshot was ACCEPTED by a mixed resume "
           f"(resumed from {got['resumed_from_step']})")


def scenario_noop_injection(binary, workdir, base_args, env, tag, ref):
    """A corrupt@walker target past the population (walker 99 of 4) finds no
    section to damage: the binary must WARN (fault-injection NO-OP) instead
    of silently skipping, and the undamaged snapshot must resume cleanly."""
    ckpt = str(workdir / f"{tag}.ckpt")
    kill = run_binary(binary, base_args + ["--steps", "6", "--ckpt", ckpt, "--interval", "1",
                                           "--fault", "abort@3,corrupt@walker99"], env,
                      expect_exit=FAULT_EXIT_CODE)
    expect("fault-injection NO-OP" in kill.stderr,
           f"{tag}: out-of-range corrupt@walker99 fired silently (no NO-OP "
           f"warning)\nstderr:\n{kill.stderr}")
    got = parse_run(run_binary(binary, base_args + ["--steps", "6", "--ckpt", ckpt,
                                                    "--resume"], env).stdout)
    expect(got["resume_fallback"] == "0",
           f"{tag}: no-op injection DID damage the snapshot "
           f"(resume_error='{got['resume_error']}')")
    expect(got["resumed_from_step"] == "3",
           f"{tag}: resumed from {got['resumed_from_step']}, expected 3 "
           f"(newest snapshot, undamaged)")
    expect_fingerprints_equal(ref, got, tag)


def scenario_malformed_spec(binary, workdir, base_args, env, tag, ref):
    """A signed step number is not a fault plan: `abort@+3` must be rejected
    at parse time (strtol would have accepted it and armed step 3), the run
    must complete cleanly with NO fault armed, and the trajectory must match
    the reference."""
    ckpt = str(workdir / f"{tag}.ckpt")
    proc = run_binary(binary, base_args + ["--steps", "6", "--ckpt", ckpt, "--interval", "2",
                                           "--fault", "abort@+3"], env)
    expect("ignoring malformed" in proc.stderr,
           f"{tag}: malformed token 'abort@+3' accepted without a warning\n"
           f"stderr:\n{proc.stderr}")
    got = parse_run(proc.stdout)
    expect_fingerprints_equal(ref, got, tag)


def expect_dmc_provenance_equal(ref, got, tag):
    """The branching provenance must survive resume exactly: counters and
    trial energy are cumulative (restored from the Meta tail), and the
    resumed population trace is the tail of the uninterrupted one."""
    for key in ("dmc_births", "dmc_deaths", "dmc_trial_energy"):
        expect(got[key] == ref[key],
               f"{tag}: {key} diverged (reference {ref[key]}, resumed {got[key]})")
    ref_trace = ref["dmc_population"].split(",")
    got_trace = got["dmc_population"].split(",")
    expect(got_trace == ref_trace[-len(got_trace):],
           f"{tag}: population trace diverged\n"
           f"  reference: {ref['dmc_population']}\n"
           f"  resumed:   {got['dmc_population']}")


def scenario_dmc_kill_resume(binary, workdir, base_args, env, tag):
    """Kill a branching DMC run at generation 3 of 6 (gen_steps=1, so steps
    ARE generations): the resume must restore the dynamic population from the
    newest snapshot and land bit-for-bit on the uninterrupted reference —
    fingerprints of the FINAL (fluctuated) population plus all provenance."""
    ckpt = str(workdir / f"{tag}.ckpt")
    ref = parse_run(run_binary(binary, base_args, env).stdout)
    expect(int(ref["dmc_births"]) + int(ref["dmc_deaths"]) > 0,
           f"{tag}: reference run never branched — the scenario would prove "
           f"nothing (population trace {ref['dmc_population']})")
    run_binary(binary, base_args + ["--ckpt", ckpt, "--interval", "1",
                                    "--fault", "abort@3"], env, expect_exit=FAULT_EXIT_CODE)
    got = parse_run(run_binary(binary, base_args + ["--ckpt", ckpt, "--resume"], env).stdout)
    expect(got["resumed_from_step"] == "3", f"{tag}: resumed_from_step="
           f"{got['resumed_from_step']}, expected 3 (newest generation boundary)")
    expect_fingerprints_equal(ref, got, tag)
    expect_dmc_provenance_equal(ref, got, tag)
    return ref


def scenario_dmc_corrupt_meta(binary, workdir, base_args, env, tag, ref):
    """Corrupt the newest snapshot's Meta section — the one carrying the DMC
    provenance tail — before the kill: the resume must detect it (CRC), fall
    back to the generation-2 .prev snapshot, and still match the reference."""
    ckpt = str(workdir / f"{tag}.ckpt")
    kill = run_binary(binary, base_args + ["--ckpt", ckpt, "--interval", "1",
                                           "--fault", "abort@3,corrupt@meta"], env,
                      expect_exit=FAULT_EXIT_CODE)
    expect_injection_confirmed(kill, tag)
    got = parse_run(run_binary(binary, base_args + ["--ckpt", ckpt, "--resume"], env).stdout)
    expect(got["resume_fallback"] == "1",
           f"{tag}: Meta corruption NOT detected (no fallback to .prev; "
           f"resume_error='{got['resume_error']}')")
    expect(got["resumed_from_step"] == "2",
           f"{tag}: fell back to step {got['resumed_from_step']}, expected 2")
    expect_fingerprints_equal(ref, got, tag)
    expect_dmc_provenance_equal(ref, got, tag)


def scenario_population_resume(binary, workdir, base_args, env, tag, ref):
    """Kill a resident WalkerPopulation under 2 shards, resume it under 3:
    shard assignment is derived machine layout, not trajectory state, so the
    resumed fingerprints must match the plain-driver reference bit-for-bit."""
    ckpt = str(workdir / f"{tag}.ckpt")
    run_binary(binary, base_args + ["--steps", "6", "--shards", "2", "--ckpt", ckpt,
                                    "--interval", "2", "--fault", "abort@3"], env,
               expect_exit=FAULT_EXIT_CODE)
    got = parse_run(run_binary(binary, base_args + ["--steps", "6", "--shards", "3",
                                                    "--ckpt", ckpt, "--resume"], env).stdout)
    expect(got["resumed_from_step"] == "2",
           f"{tag}: resumed_from_step={got['resumed_from_step']}, expected 2")
    expect_fingerprints_equal(ref, got, tag)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "build" / "examples" / "checkpoint_restart",
                        help="checkpoint_restart binary (default: build/examples/...)")
    parser.add_argument("--workdir", type=Path, default=None,
                        help="scratch directory (default: a fresh temp dir)")
    args = parser.parse_args(argv)

    if not args.binary.exists():
        print(f"error: {args.binary} not found (build the examples first)", file=sys.stderr)
        return 2
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="mqc_fault_"))
    workdir.mkdir(parents=True, exist_ok=True)
    cleanup = args.workdir is None

    failures = 0
    ran = 0
    scenarios = [
        ("kill-resume", None),  # placeholder: runs first to produce the reference
        ("corrupt-fallback", scenario_corrupt_fallback),
        ("truncate-fallback", scenario_truncate_fallback),
        ("version-skew", scenario_version_skew),
        ("config-skew", scenario_config_skew),
        ("precision-skew", scenario_precision_skew),
        ("noop-injection", scenario_noop_injection),
        ("malformed-spec", scenario_malformed_spec),
        ("population-resume", scenario_population_resume),
    ]
    # The default layout (SoA engine, SoA distance tables) only ever rebuilds
    # SoA tables on restore; kill-resume and corrupt-fallback run again under
    # --layout aos (AoS engine, AoS tables) for the AoS table rebuild.
    layouts = [("soa", [], scenarios), ("aos", ["--layout", "aos"], scenarios[:2])]
    for layout, layout_args, layout_scenarios in layouts:
        for driver in ("per-walker", "crowd"):
            for partition in ("1x2", "2x1"):
                env = {"MQC_PARTITION": partition}
                base_args = ["--driver", driver, "--walkers", "4"] + layout_args
                label = f"layout={layout} driver={driver} partition={partition}"
                ref = None
                for name, fn in layout_scenarios:
                    tag = f"{layout}-{driver}-{partition.replace('x', '_')}-{name}"
                    ran += 1
                    try:
                        if name == "kill-resume":
                            ref = scenario_kill_resume(args.binary, workdir, base_args, env, tag)
                        else:
                            if ref is None:
                                raise Failure("no reference trajectory (kill-resume failed)")
                            fn(args.binary, workdir, base_args, env, tag, ref)
                        print(f"PASS {name} [{label}]")
                    except Failure as e:
                        print(f"FAIL {name} [{label}]: {e}")
                        failures += 1

    # DMC branching scenarios: dynamic populations have their own driver and
    # their own provenance to protect, so they get their own loop (the shared
    # scenarios above assume a fixed walker count).  --dmc-tau 1.2 makes the
    # 6-generation run actually branch (asserted inside the scenario).
    dmc_scenarios = [
        ("dmc-kill-resume", None),
        ("dmc-corrupt-meta", scenario_dmc_corrupt_meta),
    ]
    for partition in ("1x2", "2x1"):
        env = {"MQC_PARTITION": partition}
        base_args = ["--driver", "dmc", "--walkers", "4", "--dmc", "6", "--dmc-tau", "1.2"]
        label = f"driver=dmc partition={partition}"
        ref = None
        for name, fn in dmc_scenarios:
            tag = f"dmc-{partition.replace('x', '_')}-{name}"
            ran += 1
            try:
                if name == "dmc-kill-resume":
                    ref = scenario_dmc_kill_resume(args.binary, workdir, base_args, env, tag)
                else:
                    if ref is None:
                        raise Failure("no reference trajectory (dmc-kill-resume failed)")
                    fn(args.binary, workdir, base_args, env, tag, ref)
                print(f"PASS {name} [{label}]")
            except Failure as e:
                print(f"FAIL {name} [{label}]: {e}")
                failures += 1

    if cleanup and failures == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"fault_harness: {ran} scenario(s), {failures} failure(s)"
          + ("" if cleanup and failures == 0 else f" (artifacts in {workdir})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
