"""Shared machinery: op outcomes, the closed timing loop, child processes,
summary statistics and the run record."""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

CHILD = Path(__file__).with_name("child.py")
FALSE_ACCEPT = "compatible verdict on a non-member"
U0_RTOL = 1e-7          # acceptance criterion 2
ENDPOINT_RTOL = 1e-8    # acceptance criterion 2
ORACLE_MIN_RATIO = 3.5  # acceptance criterion 4
CHILD_TIMEOUT_S = 150.0
# The import time drifts with the host over tens of seconds, so a timed run
# probes set-up before its loop, every PROBE_EVERY_S seconds inside it and
# after it, and reports the median.
SETUP_PROBES = 2  # before the timed loop, and again after it
PROBE_EVERY_S = 3.0


@dataclass
class Outcome:
    """Result of one op's correctness check.

    failed: the cause when the op failed, else None.
    member: whether the final data lie in D(e^{TA}) (None: no backward data).
    refused: a backward verdict other than `compatible`.
    valid: False for deliberately malformed CLI inputs.
    """

    failed: str | None = None
    member: bool | None = None
    refused: bool = False
    valid: bool = True


@dataclass
class Op:
    label: str
    call: object     # () -> result
    check: object    # result -> Outcome


@dataclass
class LoopResult:
    latencies: list
    outcomes: list   # (label, Outcome)
    wall_s: float
    cycles: int


def run_cycles(ops, seconds=None, tracer=None, max_cycles=None, probe=None) -> LoopResult:
    """Closed loop, one caller: run whole cycles over `ops`, starting another
    only while it is expected to end within `seconds` (the first always
    runs), or run `max_cycles` cycles.  Only the op call is in the latency;
    checks run untraced between ops.  `probe()`, if given, runs between ops
    every PROBE_EVERY_S seconds; its time counts against `seconds` but not
    in the loop's wall time."""
    lat, outcomes = [], []
    t_start = perf_counter()
    deadline = t_start + seconds if seconds is not None else float("inf")
    cycles = 0
    probe_s = 0.0
    next_probe = t_start + PROBE_EVERY_S
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            t0 = perf_counter()
            try:
                res, err = op.call(), None
            except Exception as exc:  # a crash in the program is a failed op, not a benchmark error
                res, err = None, "".join(traceback.format_exception_only(type(exc), exc)).strip()
            lat.append(perf_counter() - t0)
            with tracer.paused() if tracer is not None else nullcontext():
                out = op.check(res) if err is None else Outcome(failed=f"exception: {err}")
            outcomes.append((op.label, out))
            if probe is not None and perf_counter() >= next_probe:
                t0 = perf_counter()
                probe()
                probe_s += perf_counter() - t0
                next_probe = perf_counter() + PROBE_EVERY_S
        cycles += 1
        now = perf_counter()
        if cycles == max_cycles or now + (now - t_start) / cycles > deadline:
            break
    return LoopResult(lat, outcomes, perf_counter() - t_start - probe_s, cycles)


# -- child processes -----------------------------------------------------------

def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(src)
    return env


def spawn(cmd, cwd, env, stdout_path, stderr_path):
    """Run one child to completion; returns (exit code, wall s, max RSS MB)."""
    with open(stdout_path, "wb") as fo, open(stderr_path, "wb") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_probe(src: Path, workdir: Path, modes) -> dict:
    """`import heatfvp` plus the workload's build_basis calls from a fresh
    interpreter: {"import_s": ..., "setup_s": ...}."""
    out = workdir / "setup.json"
    cmd = [sys.executable, str(CHILD), "setup", str(out), *[str(n) for n in modes]]
    rc, _, _ = spawn(cmd, workdir, child_env(src), workdir / "setup.out", workdir / "setup.err")
    if rc != 0:
        raise RuntimeError("setup probe failed: " + (workdir / "setup.err").read_text()[-2000:])
    return json.loads(out.read_text())


# -- statistics ----------------------------------------------------------------

def tail(latencies):
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest latency.  Returns (value, percentile, samples)."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(0, n - 11)
    return xs[k], 100.0 * (k + 1) / n, n


def median(xs) -> float:
    return float(statistics.median(xs))


# -- run record ----------------------------------------------------------------

def control_loop_s() -> float:
    """A fixed pure-Python loop; its time tells host noise from program
    changes.  Not gated."""
    t0 = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return perf_counter() - t0


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_record(seed: int) -> dict:
    import numpy  # noqa: F401  (loads BLAS so its thread count can be read)

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "seed": seed,
        "host.control_s": control_loop_s(),
    }
