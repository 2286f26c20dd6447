"""cli-cold: serial fresh `heatfvp` processes, one at a time.

One cycle runs all eight subcommands at N = 64, 256 and 1024, check-compat
at N = 4096, two of the malformed inputs of ROADMAP item 5, and then the
eight N = 64 invocations again, whose output bytes must match the first
run.  Every input file is written by the benchmark; children run with the
checkout's `src` on PYTHONPATH and the case directory as working directory.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import sys
from pathlib import Path

import numpy as np

import inputs as gi
from harness import (CHILD, ENDPOINT_RTOL, FALSE_ACCEPT, ORACLE_MIN_RATIO, U0_RTOL, Op, Outcome,
                     child_env, spawn)

FORWARD_RTOL = 1e-8
NAN = re.compile(rb"\bNaN\b")
MALFORMED = ("rectangle-forward", "missing-lengths", "nan-horizon", "nan-coefficient")
GEN_DIM = {64: 4, 256: 8, 1024: 16}


class Case:
    """One invocation: argv run inside `dir`, the output files it writes,
    and what its result must satisfy."""

    def __init__(self, label, sub, n, dir_, argv, outputs, verify=None, member=None, valid=True):
        self.label, self.sub, self.n, self.dir = label, sub, n, dir_
        self.argv, self.outputs, self.verify = argv, outputs, verify
        self.member, self.valid = member, valid


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _load_coeffs(raw: bytes) -> np.ndarray:
    return np.array([complex(re_, im) for re_, im in json.loads(raw)["coefficients"]])


# -- case builders -----------------------------------------------------------

def _forward(d, n, rng):
    T = 0.5
    j = np.arange(1, n + 1, dtype=float)
    u0 = rng.standard_normal(n) * np.exp(-0.5 * j)
    cfg = {"modes": n, "T": T, "u0.path": "u0.json", "out.dir": "out", "tgrid.nodes": 33}
    src = bnd = None
    if n in (64, 256):
        src = (np.linspace(0.0, T, 9), np.outer(np.linspace(1.0, 0.5, 9),
               gi.signs(rng, n) * np.exp(-0.3 * gi.lambdas(n))).astype(complex))
        _write(d / "f.csv", gi.source_csv(*src))
        cfg["f.path"] = "f.csv"
    if n in (64, 1024):
        bnd = gi.boundary_ramp(rng, T)
        _write(d / "g.csv", gi.boundary_csv(*bnd))
        cfg["g.path"] = "g.csv"
    _write(d / "u0.json", gi.vec_json(u0, n))
    _write(d / "run.conf", gi.config_text(cfg))
    want = gi.final_state(u0, T, src, bnd)

    def verify(stdout, files):
        if json.loads(stdout)["nodes"] != 33:
            return "forward summary reports the wrong node count"
        err = gi.rel_error(_load_coeffs(files["out/final_state.json"]), want)
        if not err <= FORWARD_RTOL:
            return f"final state off the closed form by {err:.3e} > {FORWARD_RTOL:g}"
        return None

    return ["forward", "--config", "run.conf"], ["out/trajectory.csv", "out/final_state.json"], verify


def _backward_data(d, n, rng, T=1.0, nodes=9):
    u0, ts, coeffs = gi.manufactured_source(rng, n, T, nodes)
    _write(d / "uT.json", gi.vec_json(gi.final_state(u0, T, (ts, coeffs)), n))
    _write(d / "f.csv", gi.source_csv(ts, coeffs))
    _write(d / "u0.json", gi.vec_json(u0, n))
    return u0, T, gi.recovery_allowance(u0, T, (ts, coeffs))


def _certified(u0_true, allowance):
    def verify(stdout, files):
        end = json.loads(stdout)["endpoint_rel_error"]
        if not end <= ENDPOINT_RTOL:
            return f"endpoint rel error {end:.3e} > {ENDPOINT_RTOL:g}"
        err = gi.rel_error(_load_coeffs(files["out/u0.json"]), u0_true, allowance)
        if not err <= U0_RTOL:
            return f"u0 rel error {err:.3e} > {U0_RTOL:g}"
        return None
    return verify


BACKWARD_OUT = ["out/u0.json", "out/trajectory.csv", "out/compat.json", "out/ynorm.json"]


def _backward(d, n, rng):
    u0, T, allowance = _backward_data(d, n, rng)
    _write(d / "run.conf", gi.config_text(
        {"modes": n, "T": T, "uT.path": "uT.json", "f.path": "f.csv", "out.dir": "out"}))
    return ["backward", "--config", "run.conf"], BACKWARD_OUT, _certified(u0, allowance)


def _backward_inhom(d, n, rng):
    """Boundary-driven data beyond the certifiable regime (T = 0.1, N >= 32)."""
    T = 0.1
    u0, src, bnd = gi.inhom_case(rng, n, T)
    _write(d / "uT.json", gi.vec_json(gi.final_state(u0, T, src, bnd), n))
    _write(d / "f.csv", gi.source_csv(*src))
    _write(d / "g.csv", gi.boundary_csv(*bnd))
    _write(d / "run.conf", gi.config_text({"modes": n, "T": T, "uT.path": "uT.json", "f.path": "f.csv",
                                           "g.path": "g.csv", "out.dir": "out", "tgrid.nodes": 9}))
    argv = ["backward-inhom", "--config", "run.conf"]
    return argv, BACKWARD_OUT, _certified(u0, gi.recovery_allowance(u0, T, src, bnd))


def _check_compat(d, n, rng):
    """N=64: the ROADMAP's known inconclusive case; 256 and 4096: members
    of the closed-form family; 1024: a non-member."""
    if n == 64:
        T, member = 0.5, True
        j = np.arange(1, n + 1, dtype=float)
        coeffs = np.exp(-0.3 * j - T * gi.lambdas(n))
    else:
        T = 0.5
        member = n != 1024
        a, p = gi.family_params(rng, {256: "member", 1024: "nonmember-f64", 4096: "member-p2"}[n], T)
        with np.errstate(under="ignore"):
            coeffs = gi.signs(rng, n) * np.exp(gi.family_logmag(n, a, p))
        if not member and np.min(np.abs(coeffs)) < np.finfo(float).tiny:
            raise AssertionError("a non-member's tail must survive the state file")
    _write(d / "uT.json", gi.vec_json(coeffs, n))
    _write(d / "run.conf", gi.config_text({"modes": n, "T": T, "uT.path": "uT.json", "out.dir": "out"}))
    return ["check-compat", "--config", "run.conf"], ["out/compat.json"], None, member


def _instability(d, n, rng):
    T = float(rng.uniform(0.25, 1.0))
    lam = gi.lambdas(n)

    def verify(stdout, files):
        rows = files["out/table.csv"].decode().strip().splitlines()[1:]
        vals = np.array([[float(x) for x in r.split(",")] for r in rows])
        if vals.shape != (n, 4):
            return "instability table has the wrong shape"
        if not np.all(vals[:, 2] == 1.0):
            return "unit final states do not have unit norm"
        err = float(np.max(np.abs(vals[:, 3] - T * lam) / (T * lam)))
        if not err <= 1e-10:
            return f"log initial norm off T*lambda_j by {err:.3e}"
        return None

    argv = ["instability-demo", "--T", repr(T), "--jmax", str(n), "--out", "out/table.csv"]
    return argv, ["out/table.csv"], verify


def _norms(d, n, rng):
    _, T, _ = _backward_data(d, n, rng)
    _write(d / "run.conf", gi.config_text({"modes": n, "T": T, "uT.path": "uT.json", "u0.path": "u0.json",
                                           "f.path": "f.csv", "out.dir": "out"}))

    def verify(stdout, files):
        rep = json.loads(stdout)
        if not rep["energy"]["ok"]:
            return "energy bound broken"
        if not rep["data_norm"]["finite"]:
            return "data norm of member data is not finite"
        if not math.isfinite(rep["solution_norm"]):
            return "solution norm is not finite"
        return None

    return ["norms", "--config", "run.conf"], ["out/norms.json"], verify


def _oracle(d, n, rng):
    """Criterion-4 style data.  The FD grid gets 2N + 1 points: with fewer,
    Simpson projection of the FD samples onto N modes aliases and the
    comparison is meaningless (at N = 1024 and the default 127 points both
    errors exceed 100% and the refinement ratio is about 1.5).  At N = 1024
    the source is left out: evaluating it on that grid at every step would
    dominate the run."""
    T = 0.5
    j = np.arange(1, n + 1, dtype=float)
    with np.errstate(under="ignore"):
        u0 = rng.standard_normal(n) * np.exp(-1.5 * j)
        fc = rng.standard_normal(n) * np.exp(-0.3 * gi.lambdas(n))
    src = (np.linspace(0.0, T, 5), np.outer(np.linspace(1.0, 0.4, 5), fc).astype(complex))
    ends = rng.uniform(-1.0, 1.0, 2)
    cfg = {"modes": n, "T": T, "u0.path": "u0.json", "g.path": "g.csv", "out.dir": "out"}
    _write(d / "u0.json", gi.vec_json(u0, n))
    _write(d / "g.csv", gi.boundary_csv(np.array([0.0, T]), np.array([[0.0, 0.0], ends])))
    if n < 1024:
        _write(d / "f.csv", gi.source_csv(*src))
        cfg["f.path"] = "f.csv"
    _write(d / "run.conf", gi.config_text(cfg))

    def verify(stdout, files):
        ratio = json.loads(stdout)["refinement_ratio"]
        if ratio != "inf" and not ratio >= ORACLE_MIN_RATIO:
            return f"oracle refinement ratio {ratio:.3f} < {ORACLE_MIN_RATIO}"
        return None

    argv = ["oracle-compare", "--config", "run.conf", "--fd-points", str(2 * n + 1)]
    return argv, ["out/oracle_compare.json"], verify


def _generator(d, n, rng, seed):
    _write(d / "matrix.txt", gi.matrix_text(gi.elliptic_matrix(rng, GEN_DIM[n], selfadjoint=False)))

    def verify(stdout, files):
        sec = json.loads(stdout)["sectoriality"]
        if not all(isinstance(sec[k], float) and math.isfinite(sec[k]) for k in ("sup_value", "argmax_re", "argmax_im")):
            return f"sector sup not finite: {sec['sup_value']}"
        return None

    argv = ["generator-lab", "--matrix", "matrix.txt", "--seed", str(seed), "--out", "out/report.json"]
    return argv, ["out/report.json"], verify


def _malformed(d, kind, rng):
    """ROADMAP item 5: each must end in exit 1 with a one-line error."""
    n = 16
    if kind == "rectangle-forward":
        payload = json.loads(gi.vec_json(rng.standard_normal(n) * 0.1, 4))
        payload["basis"].update(kind="rectangle", lengths=[gi.L, gi.L])
        _write(d / "u0.json", json.dumps(payload, sort_keys=True))
        _write(d / "run.conf", gi.config_text({"domain.kind": "rectangle", "domain.length": f"{gi.L!r},{gi.L!r}",
                                               "modes": 4, "T": 0.5, "u0.path": "u0.json", "out.dir": "out"}))
        return ["forward", "--config", "run.conf"]
    cfg = {"modes": n, "T": 0.5, "uT.path": "uT.json"}
    payload = json.loads(gi.vec_json(rng.standard_normal(n) * np.exp(-np.arange(1, n + 1)), n))
    if kind == "missing-lengths":
        del payload["basis"]["lengths"]
    elif kind == "nan-horizon":
        cfg["T"] = "nan"
    elif kind == "nan-coefficient":
        payload["coefficients"][int(rng.integers(n))][0] = float("nan")
    _write(d / "uT.json", json.dumps(payload))
    _write(d / "run.conf", gi.config_text(cfg))
    return ["check-compat", "--config", "run.conf"]


def build_cases(work: Path, seed: int) -> list:
    rng = np.random.default_rng([seed, 4])
    primary = []
    for n in (64, 256, 1024):
        for sub, make in (("forward", _forward), ("backward", _backward), ("backward-inhom", _backward_inhom),
                          ("instability-demo", _instability), ("norms", _norms),
                          ("oracle-compare", _oracle)):
            d = work / f"{sub}-{n}"
            d.mkdir(parents=True)
            argv, outs, verify = make(d, n, rng)
            member = True if sub.startswith("backward") else None
            primary.append(Case(f"{sub}-{n}", sub, n, d, argv, outs, verify, member))
        d = work / f"generator-lab-{n}"
        argv, outs, verify = _generator(d, n, rng, seed)
        primary.append(Case(f"generator-lab-{n}", "generator-lab", n, d, argv, outs, verify))
    for n in (64, 256, 1024, 4096):
        d = work / f"check-compat-{n}"
        argv, outs, verify, member = _check_compat(d, n, rng)
        primary.append(Case(f"check-compat-{n}", "check-compat", n, d, argv, outs, verify, member))
    for k in range(2):
        kind = MALFORMED[(seed + k) % len(MALFORMED)]
        d = work / f"malformed-{kind}"
        primary.append(Case(f"malformed-{kind}", "forward" if kind == "rectangle-forward" else "check-compat",
                            16, d, _malformed(d, kind, rng), [], valid=False))
    order = rng.permutation(len(primary))
    cycle = [primary[i] for i in order]
    cycle += [c for c in primary if c.n == 64]  # reruns: output bytes must not change
    return cycle


# -- running and checking ------------------------------------------------------

def _classify(case: Case, rc: int, stdout: bytes, stderr: bytes, files: dict) -> Outcome:
    text = stderr.decode(errors="replace")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    member = case.member
    if "Traceback (most recent call last)" in text:
        return Outcome(failed=f"traceback: {lines[-1] if lines else '?'}", member=member, valid=case.valid)
    if rc not in (0, 1, 2):
        return Outcome(failed=f"exit code {rc}", member=member, valid=case.valid)
    if NAN.search(stdout) or any(NAN.search(b) for name, b in files.items() if name.endswith(".json")):
        return Outcome(failed="NaN in stdout or JSON output", member=member, valid=case.valid)
    if rc == 1:
        errors = [ln for ln in lines if ln.startswith("error:")]
        if len(errors) != 1:
            return Outcome(failed="exit 1 without a one-line error", member=member, valid=case.valid)
        if case.valid:
            return Outcome(failed=f"valid input rejected: {errors[0]}", member=member)
        return Outcome(valid=False)
    if not case.valid:
        return Outcome(failed=f"malformed input got exit {rc} instead of a one-line error", valid=False)
    if rc == 2:
        if member is None:
            return Outcome(failed="exit 2 on a forward-only subcommand")
        return Outcome(member=member, refused=True)
    if member is False:
        return Outcome(failed=FALSE_ACCEPT, member=False)
    cause = case.verify(stdout, files) if case.verify is not None else None
    return Outcome(failed=cause, member=member)


class CliRunner:
    """Runs cases as fresh processes and keeps what the checks and the
    per-layer metrics need."""

    def __init__(self, src: Path, traced_dir: Path | None = None):
        self.env = child_env(src)
        self.traced_dir = traced_dir
        self.first_bytes: dict = {}
        self.peak_rss_mb = 0.0
        self.walls: dict = {}        # subcommand -> wall times
        self.exits = {0: 0, 1: 0, 2: 0}
        self.bytes_written = 0
        self.child_times: list = []  # (import_s, run_s) of traced children
        self.span_files: list = []
        self._n = 0

    def op(self, case: Case) -> Op:
        def call():
            shutil.rmtree(case.dir / "out", ignore_errors=True)
            self._n += 1
            if self.traced_dir is None:
                cmd = [sys.executable, "-m", "heatfvp.cli", *case.argv]
            else:
                spans = self.traced_dir / f"spans-{self._n:04d}.npz"
                times = self.traced_dir / f"times-{self._n:04d}.json"
                cmd = [sys.executable, str(CHILD), "cli", str(spans), str(times), "--", *case.argv]
            rc, wall, rss = spawn(cmd, case.dir, self.env, case.dir / "stdout.txt", case.dir / "stderr.txt")
            if self.traced_dir is not None:
                if spans.exists():
                    self.span_files.append(spans)
                if times.exists():
                    t = json.loads(times.read_text())
                    self.child_times.append((t["import_s"], t["run_s"]))
            else:
                self.peak_rss_mb = max(self.peak_rss_mb, rss)
                self.walls.setdefault(case.sub, []).append(wall)
            return rc

        def check(rc):
            stdout = (case.dir / "stdout.txt").read_bytes()
            stderr = (case.dir / "stderr.txt").read_bytes()
            files = {name: (case.dir / name).read_bytes() for name in case.outputs if (case.dir / name).is_file()}
            if self.traced_dir is None:
                self.exits[rc] = self.exits.get(rc, 0) + 1
                self.bytes_written += len(stdout) + sum(len(b) for b in files.values())
            out = _classify(case, rc, stdout, stderr, files)
            if out.failed is None and case.valid:
                key = (stdout, tuple(sorted(files.items())))
                first = self.first_bytes.setdefault(case.label, key)
                if first != key:
                    out = Outcome(failed="output bytes differ between two runs of one config",
                                  member=out.member, refused=out.refused)
            return out

        return Op(case.label, call, check)
