"""Command-line front end.

Subcommands: forward, backward, backward-inhom, check-compat,
instability-demo, norms, oracle-compare, generator-lab.  backward reads
boundary data from g.path; backward-inhom is the same command under its old
name.  Runs are driven by a flat `key = value` config file; outputs are
CSV/JSON and byte-identical for identical config and seed.  Exit codes: 0
success, 2 incompatible (or inconclusive) final data with the compatibility
report on stdout, 1 usage or config errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import boundary as bd
from . import duhamel as dh
from . import fdoracle as fd
from . import fvp
from . import generator as gl
from . import spectral as sp
from .semigroup import MembershipPolicy
from .spectral import DomainSpec, InvalidSpecError, SpectralVec, build_basis

USAGE = (
    "usage: heatfvp <subcommand> [options]\n"
    "subcommands: forward backward backward-inhom check-compat "
    "instability-demo norms oracle-compare generator-lab\n"
)


class UsageError(Exception):
    """Bad invocation or bad config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; 2 is reserved for
    # incompatible data here, so route usage problems through UsageError
    def error(self, message):
        raise UsageError(message)


# -- config ----------------------------------------------------------------

def parse_config(path: str) -> dict:
    """Flat `key = value` lines; '#' starts a comment; later keys win.
    Relative paths inside the file resolve against its directory."""
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    cfg: dict = {"__dir__": p.parent}
    for lineno, raw in enumerate(p.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def _cfg_path(cfg: dict, key: str, required: bool = False) -> Path | None:
    val = cfg.get(key)
    if val is None:
        if required:
            raise UsageError(f"config key {key} is required for this subcommand")
        return None
    p = Path(val)
    if not p.is_absolute():
        p = cfg["__dir__"] / p
    if not p.is_file():
        raise UsageError(f"file referenced by {key} not found: {p}")
    return p


def _cfg_float(cfg: dict, key: str, default=None) -> float | None:
    if key not in cfg:
        if default is None:
            raise UsageError(f"config key {key} is required")
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise UsageError(f"config key {key} must be a number") from exc


def _cfg_horizon(cfg: dict) -> float:
    T = _cfg_float(cfg, "T")
    if not (math.isfinite(T) and T > 0.0):
        raise UsageError("config key T must be a finite positive number")
    return T


def _cfg_int(cfg: dict, key: str, default=None) -> int | None:
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise UsageError(f"config key {key} must be an integer") from exc


def basis_from_config(cfg: dict) -> sp.EigenBasis:
    kind = cfg.get("domain.kind", "interval")
    length_raw = cfg.get("domain.length", "3.141592653589793")
    try:
        lengths = tuple(float(x) for x in length_raw.split(","))
    except ValueError as exc:
        raise UsageError("domain.length must be a number or comma pair") from exc
    modes = _cfg_int(cfg, "modes", 64)
    try:
        return build_basis(DomainSpec(kind=kind, lengths=lengths, modes=modes))
    except InvalidSpecError as exc:
        raise UsageError(str(exc)) from exc


def policy_from_config(cfg: dict) -> MembershipPolicy:
    kwargs = {}
    if "policy.rtol_compat" in cfg:
        kwargs["rtol_compat"] = _cfg_float(cfg, "policy.rtol_compat")
    if "policy.growth_thresh" in cfg:
        kwargs["growth_thresh"] = _cfg_float(cfg, "policy.growth_thresh")
    if "policy.cutoffs" in cfg:
        try:
            kwargs["cutoffs"] = tuple(int(x) for x in cfg["policy.cutoffs"].split(","))
        except ValueError as exc:
            raise UsageError("policy.cutoffs must be comma-separated integers") from exc
    try:
        return MembershipPolicy(**kwargs)
    except InvalidSpecError as exc:
        raise UsageError(str(exc)) from exc


def _load_vec(path: Path, basis: sp.EigenBasis) -> SpectralVec:
    try:
        return sp.vec_from_json(path.read_text(), basis)
    except (ValueError, sp.GridMismatchError, InvalidSpecError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _load_source(cfg: dict, basis: sp.EigenBasis) -> dh.SourceTerm | None:
    p = _cfg_path(cfg, "f.path")
    if p is None:
        return None
    try:
        return dh.SourceTerm.from_csv(p.read_text(), basis)
    except (ValueError, InvalidSpecError) as exc:
        raise UsageError(f"{p}: {exc}") from exc


def _load_boundary(cfg: dict) -> bd.BoundaryData | None:
    p = _cfg_path(cfg, "g.path")
    if p is None:
        return None
    try:
        return bd.BoundaryData.from_csv(p.read_text())
    except (ValueError, InvalidSpecError) as exc:
        raise UsageError(f"{p}: {exc}") from exc


def _out_dir(cfg: dict) -> Path:
    raw = cfg.get("out.dir", ".")
    p = Path(raw)
    if not p.is_absolute():
        p = cfg["__dir__"] / p
    p.mkdir(parents=True, exist_ok=True)
    return p


def _tgrid(cfg: dict, T: float, f: dh.SourceTerm | None) -> np.ndarray:
    n = _cfg_int(cfg, "tgrid.nodes", 0)
    if n:
        if n < 2:
            raise UsageError("tgrid.nodes must be at least 2")
        return np.linspace(0.0, T, n)
    if f is not None:
        return f.times
    return np.linspace(0.0, T, 33)


def _write(path: Path, text: str):
    path.write_text(text)


# -- subcommands ------------------------------------------------------------

def _cmd_forward(args) -> int:
    cfg = parse_config(args.config)
    basis = basis_from_config(cfg)
    T = _cfg_horizon(cfg)
    u0 = _load_vec(_cfg_path(cfg, "u0.path", required=True), basis)
    f = _load_source(cfg, basis)
    g = _load_boundary(cfg)
    if f is not None and f.t_final < T - 1e-12:
        raise UsageError("source grid must cover [0, T]")
    tgrid = _tgrid(cfg, T, f)
    if g is not None:
        traj = bd.solve_ibvp(u0, f, g, tgrid)
    else:
        traj = dh.solve_cauchy(u0, f, tgrid)
    out = _out_dir(cfg)
    _write(out / "trajectory.csv", traj.to_csv())
    _write(out / "final_state.json", sp.vec_to_json(traj.final_state))
    summary = {
        "T": T,
        "modes": basis.n_modes,
        "final_norm": sp.norm_h(traj.final_state),
        "nodes": int(traj.times.size),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_backward(args) -> int:
    cfg = parse_config(args.config)
    basis = basis_from_config(cfg)
    T = _cfg_horizon(cfg)
    u_T = _load_vec(_cfg_path(cfg, "uT.path", required=True), basis)
    f = _load_source(cfg, basis)
    g = _load_boundary(cfg)
    policy = policy_from_config(cfg)
    try:
        sol = bd.solve_final_value_inhom(f, g, u_T, T, policy=policy, tgrid=_tgrid(cfg, T, f))
    except fvp.IncompatibleDataError as exc:
        print(exc.report.to_json())
        return 2
    out = _out_dir(cfg)
    _write(out / "u0.json", sp.vec_to_json(sol.trajectory.initial_state))
    _write(out / "trajectory.csv", sol.trajectory.to_csv())
    _write(out / "compat.json", sol.compat.to_json())
    _write(out / "ynorm.json", sol.ynorm.to_json())
    print(json.dumps({"endpoint_rel_error": sol.endpoint_rel_error, "verdict": sol.compat.verdict}, sort_keys=True))
    return 0


def _cmd_check_compat(args) -> int:
    cfg = parse_config(args.config)
    basis = basis_from_config(cfg)
    T = _cfg_horizon(cfg)
    u_T = _load_vec(_cfg_path(cfg, "uT.path", required=True), basis)
    f = _load_source(cfg, basis)
    g = _load_boundary(cfg)
    report = bd.check_final_data(f, g, u_T, T, policy_from_config(cfg))
    print(report.to_json())
    if cfg.get("out.dir") is not None:
        _write(_out_dir(cfg) / "compat.json", report.to_json())
    return 0 if report.verdict == "compatible" else 2


def _cmd_instability_demo(args) -> int:
    if not (math.isfinite(args.T) and args.T > 0) or args.jmax < 1:
        raise UsageError("need T > 0 and jmax >= 1")
    basis = build_basis(DomainSpec("interval", (args.length,), max(args.jmax, 1)))
    rows = fvp.instability_table(basis, args.T, args.jmax)
    text = fvp.instability_csv(rows)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_norms(args) -> int:
    cfg = parse_config(args.config)
    basis = basis_from_config(cfg)
    T = _cfg_horizon(cfg)
    f = _load_source(cfg, basis)
    g = _load_boundary(cfg)
    policy = policy_from_config(cfg)
    reports: dict = {}
    uT_path = _cfg_path(cfg, "uT.path")
    if uT_path is not None:
        u_T = _load_vec(uT_path, basis)
        reports["data_norm"] = json.loads(bd.data_norm_inhom(f, g, u_T, T, policy).to_json())
    u0_path = _cfg_path(cfg, "u0.path")
    if u0_path is not None:
        u0 = _load_vec(u0_path, basis)
        tgrid = _tgrid(cfg, T, f)
        if g is not None:
            traj = bd.solve_ibvp(u0, f, g, tgrid)
            reports["solution_norm"] = bd.solution_norm_h1(traj)
        else:
            traj = dh.solve_cauchy(u0, f, tgrid)
            reports["solution_norm"] = dh.solution_norm(traj)
        energy = dh.check_energy_estimate(traj)
        if not all(math.isfinite(x) for x in (reports["solution_norm"], energy.energy_lhs, energy.energy_rhs)):
            raise UsageError("the solution norm or the energy bound leaves floating-point range")
        reports["energy"] = {
            "lhs": energy.energy_lhs,
            "rhs": energy.energy_rhs,
            "ok": energy.energy_ok,
        }
    if not reports:
        raise UsageError("norms needs uT.path or u0.path in the config")
    text = json.dumps(reports, sort_keys=True, allow_nan=False)
    print(text)
    if cfg.get("out.dir") is not None:
        _write(_out_dir(cfg) / "norms.json", text)
    return 0


def _cmd_oracle_compare(args) -> int:
    cfg = parse_config(args.config)
    basis = basis_from_config(cfg)
    if basis.ndim != 1:
        raise UsageError("oracle comparison is interval-only")
    T = _cfg_horizon(cfg)
    u0 = _load_vec(_cfg_path(cfg, "u0.path", required=True), basis)
    f = _load_source(cfg, basis)
    g = _load_boundary(cfg)
    (L,) = basis.spec.lengths

    traj = bd.solve_ibvp(u0, f, g, np.linspace(0.0, T, 9))
    spectral_final = traj.final_state

    def fd_error(m_interior: int, n_steps: int) -> float:
        scheme = fd.FdScheme(theta=0.5, m_interior=m_interior)
        x = np.linspace(0.0, L, m_interior + 2)
        u0_samples = np.real(sp.synthesize(u0, x))
        if g is not None:
            u0_samples[0], u0_samples[-1] = g.sample([0.0])[0]
        src = None
        if f is not None:
            sines = basis.mode_values(x[1:-1])

            def src(xin, t, sines=sines):
                return np.real(f.sample([t])[0] @ sines)

        res = fd.fd_solve(u0_samples, src, g, L, T, n_steps, scheme)
        projected = sp.project_samples(res.u_final, res.x, basis)
        return sp.rel_distance(projected, spectral_final)

    # the coarse grid must resolve every mode, or both errors are aliasing
    fd_points = args.fd_points if args.fd_points is not None else max(127, 2 * basis.spec.modes + 1)
    coarse = fd_error(fd_points, args.steps)
    fine = fd_error(2 * fd_points + 1, 2 * args.steps)
    ratio = coarse / fine if fine > 0 else np.inf
    report = {
        "coarse_rel_error": coarse,
        "fine_rel_error": fine,
        "refinement_ratio": ratio if np.isfinite(ratio) else "inf",
        "fd_points": fd_points,
        "steps": args.steps,
    }
    text = json.dumps(report, sort_keys=True)
    print(text)
    if cfg.get("out.dir") is not None:
        _write(_out_dir(cfg) / "oracle_compare.json", text)
    return 0


def _cmd_generator_lab(args) -> int:
    p = Path(args.matrix)
    if not p.is_file():
        raise UsageError(f"matrix file not found: {args.matrix}")
    try:
        gen = gl.MatrixGenerator(gl.parse_matrix(p.read_text()))
    except InvalidSpecError as exc:
        raise UsageError(str(exc)) from exc
    sector = gl.check_sectoriality(gen)
    inj = gl.check_injectivity(gen, [0.1, 1.0, 10.0])
    conv = gl.check_logconvexity_criterion(gen, trials=args.trials, seed=args.seed)
    chain = gl.inverse_chain_demo(gen, 1.0, 2.0, seed=args.seed)
    decay = gl.check_decay(gen, np.linspace(0.0, 5.0, 21))
    report = {
        "classification": json.loads(gen.classify().to_json()),
        "sectoriality": json.loads(sector.to_json()),
        "injectivity": {
            "times": [float(t) for t in inj.times],
            "sigma_min": [float(s) for s in inj.sigma_min],
            "all_positive": inj.all_positive,
            "floor_respected": inj.floor_respected,
        },
        "logconvexity": json.loads(conv.to_json()),
        "inverse_chain": {
            "t": chain.t,
            "t_prime": chain.t_prime,
            "max_ratio": chain.max_ratio,
            "selfadjoint": chain.selfadjoint,
        },
        "decay": {"ok": decay.ok, "fitted_rate": decay.fitted_rate},
    }
    text = json.dumps(report, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        _write(Path(args.out), text)
    return 0


# -- driver ------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="heatfvp", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand")

    for name, fn in (
        ("forward", _cmd_forward),
        ("backward", _cmd_backward),
        ("backward-inhom", _cmd_backward),  # the old name of backward with g.path
        ("check-compat", _cmd_check_compat),
        ("norms", _cmd_norms),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.set_defaults(fn=fn)

    p = sub.add_parser("instability-demo")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--jmax", type=int, required=True)
    p.add_argument("--length", type=float, default=np.pi)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_instability_demo)

    p = sub.add_parser("oracle-compare")
    p.add_argument("--config", required=True)
    p.add_argument("--fd-points", type=int, default=None)
    p.add_argument("--steps", type=int, default=64)
    p.set_defaults(fn=_cmd_oracle_compare)

    p = sub.add_parser("generator-lab")
    p.add_argument("--matrix", required=True)
    p.add_argument("--trials", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_generator_lab)
    return parser


def cli(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "fn", None) is None:
            sys.stderr.write(USAGE)
            return 1
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n{USAGE}")
        return 1
    except InvalidSpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
