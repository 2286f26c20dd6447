"""Command-line front end.

Subcommands: forward, backward, backward-inhom, check-compat,
instability-demo, norms, oracle-compare, generator-lab.  backward reads
boundary data from g.path; backward-inhom is the same command under its old
name.  Runs are driven by a flat `key = value` config file; outputs are
CSV/JSON and byte-identical for identical config and seed.  Exit codes: 0
success, 2 incompatible (or inconclusive) final data with the compatibility
report on stdout, 1 usage, config or data errors: a usage error is followed
by the usage text, a data error is one `error:` line.

Each subcommand returns its exit code, its stdout text and the texts of its
output files by path, and writes nothing; `cli` alone writes the files,
creating their parents, and then stdout.  An input that cannot be read or
decoded, and a destination that cannot be written, is one `error:` line; a
failed write can leave the files of the same run written before it.
"""

from __future__ import annotations

import argparse
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
from .spectral import DomainSpec, InvalidSpecError, _check_horizon, build_basis

USAGE = (
    "usage: heatfvp <subcommand> [options]\n"
    "subcommands: forward backward backward-inhom check-compat "
    "instability-demo norms oracle-compare generator-lab\n"
)
# the keys of the README's config table; parse_config refuses any other, so a typo cannot run a default
_CONFIG_KEYS = frozenset("""domain.length modes T u0.path uT.path f.path g.path tgrid.nodes
    policy.rtol_compat policy.growth_thresh policy.cutoffs out.dir""".split())


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
    for lineno, raw in enumerate(_read(p, str).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key '{key}'")
        cfg[key] = val
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


def _cfg_float(cfg: dict, key: str) -> float:
    if key not in cfg:
        raise UsageError(f"config key {key} is required")
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise UsageError(f"config key {key} must be a number") from exc


def _cfg_int(cfg: dict, key: str, default=None) -> int | None:
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise UsageError(f"config key {key} must be an integer") from exc


def basis_from_config(cfg: dict) -> sp.EigenBasis:
    length = _cfg_float(cfg, "domain.length") if "domain.length" in cfg else np.pi
    return build_basis(DomainSpec("interval", (length,), _cfg_int(cfg, "modes", 64)))


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
    # a threshold the policy refuses is one error line, as a refused T is
    return MembershipPolicy(**kwargs)


def _read(p: Path, parse):
    """The one reader: parse the text of file p.  A file that does not
    decode or parse is a data error that names it; UnicodeDecodeError,
    InvalidSpecError and GridMismatchError are ValueErrors."""
    try:
        return parse(p.read_text())
    except ValueError as exc:
        raise InvalidSpecError(f"{p}: {exc}") from exc


def _load(cfg: dict, key: str, parse, required: bool = False):
    """Parse the file named by `key`, or None when the key is absent."""
    p = _cfg_path(cfg, key, required)
    return None if p is None else _read(p, parse)


def _load_state(cfg: dict, key: str, basis: sp.EigenBasis, required: bool = True):
    return _load(cfg, key, lambda text: sp.vec_from_json(text, basis), required)


def _problem(args):
    """Config, basis, horizon T, source f and boundary data g of a
    config-driven subcommand; f and g are None or cover [0, T]."""
    cfg = parse_config(args.config)
    basis = basis_from_config(cfg)
    T = _cfg_float(cfg, "T")
    _check_horizon(T, basis)
    f = _load(cfg, "f.path", lambda text: dh.SourceTerm.from_csv(text, basis))
    g = _load(cfg, "g.path", bd.BoundaryData.from_csv)
    bd._check_coverage(f, g, T)
    return cfg, basis, T, f, g


def _outputs(cfg: dict, texts: dict, default: str | None = None) -> dict:
    """Each named text by its path in out.dir (relative to the config file),
    or no file when out.dir is unset and there is no default."""
    out = cfg.get("out.dir", default)
    if out is None:
        return {}
    return {cfg["__dir__"] / out / name: text for name, text in texts.items()}


def _json(report) -> str:
    """The one JSON writer of a report or a dict of them."""
    return sp.strict_json(sp.json_payload(report))


def _uniform_tgrid(cfg: dict, T: float) -> np.ndarray | None:
    """The configured tgrid.nodes uniform nodes on [0, T], or None."""
    n = _cfg_int(cfg, "tgrid.nodes", 0)
    if n:
        if n < 2:
            raise UsageError("tgrid.nodes must be at least 2")
        return np.linspace(0.0, T, n)
    return None


def _tgrid(cfg: dict, T: float, f: dh.SourceTerm | None) -> np.ndarray:
    """The forward grid: tgrid.nodes uniform nodes, or by default the
    backward default (`duhamel._default_grid`)."""
    tgrid = _uniform_tgrid(cfg, T)
    return dh._default_grid(f, T) if tgrid is None else tgrid


# -- subcommands ------------------------------------------------------------
# each returns (exit code, stdout text, {path: file text}) and writes nothing

def _cmd_forward(args):
    cfg, basis, T, f, g = _problem(args)
    u0 = _load_state(cfg, "u0.path", basis)
    traj = bd.solve_ibvp(u0, f, g, _tgrid(cfg, T, f))
    texts = {"trajectory.csv": traj.to_csv(), "final_state.json": sp.vec_to_json(traj.final_state)}
    summary = sp.strict_json({
        "T": T,
        "modes": basis.n_modes,
        "final_norm": sp.norm_h(traj.final_state),
        "nodes": int(traj.times.size),
    })
    return 0, summary + "\n", _outputs(cfg, texts, ".")


def _cmd_backward(args):
    cfg, basis, T, f, g = _problem(args)
    u_T = _load_state(cfg, "uT.path", basis)
    policy = policy_from_config(cfg)
    try:
        # without tgrid.nodes the pipeline replays on its default grid
        sol = bd.solve_final_value_inhom(f, g, u_T, T, policy=policy, tgrid=_uniform_tgrid(cfg, T))
    except fvp.IncompatibleDataError as exc:
        return 2, _json(exc.report) + "\n", {}
    texts = {"u0.json": sp.vec_to_json(sol.trajectory.initial_state), "trajectory.csv": sol.trajectory.to_csv(),
             "compat.json": _json(sol.compat), "ynorm.json": _json(sol.ynorm)}
    summary = sp.strict_json({"endpoint_rel_error": sol.endpoint_rel_error, "verdict": sol.compat.verdict})
    return 0, summary + "\n", _outputs(cfg, texts, ".")


def _cmd_check_compat(args):
    cfg, basis, T, f, g = _problem(args)
    u_T = _load_state(cfg, "uT.path", basis)
    report = bd.check_final_data(f, g, u_T, T, policy_from_config(cfg))
    text = _json(report)
    return 0 if report.verdict == "compatible" else 2, text + "\n", _outputs(cfg, {"compat.json": text})


def _cmd_instability_demo(args):
    # instability_table refuses a bad horizon and a jmax outside 1..n_modes
    basis = build_basis(DomainSpec("interval", (args.length,), max(args.jmax, 1)))
    rows = fvp.instability_table(basis, args.T, args.jmax)
    text = dh._node_csv(["j", "lambda", "final_norm", "log_initial_norm"],
                        [(r.j, r.lam, r.final_norm, r.log_initial_norm) for r in rows])
    return (0, "", {Path(args.out): text}) if args.out else (0, text, {})


def _cmd_norms(args):
    cfg, basis, T, f, g = _problem(args)
    policy = policy_from_config(cfg)
    reports: dict = {}
    u_T = _load_state(cfg, "uT.path", basis, required=False)
    if u_T is not None:
        reports["data_norm"] = bd.data_norm_inhom(f, g, u_T, T, policy)
    u0 = _load_state(cfg, "u0.path", basis, required=False)
    if u0 is not None:
        traj = bd.solve_ibvp(u0, f, g, _tgrid(cfg, T, f))
        reports["solution_norm"] = (bd.solution_norm_h1 if g is not None else dh.solution_norm)(traj)
        energy = dh.check_energy_estimate(traj)
        if not all(math.isfinite(x) for x in (reports["solution_norm"], energy.energy_lhs, energy.energy_rhs)):
            raise InvalidSpecError("the solution norm or the energy bound leaves floating-point range")
        reports["energy"] = {
            "lhs": energy.energy_lhs,
            "rhs": energy.energy_rhs,
            "ok": energy.energy_ok,
        }
    if not reports:
        raise UsageError("norms needs uT.path or u0.path in the config")
    text = _json(reports)
    return 0, text + "\n", _outputs(cfg, {"norms.json": text})


def _cmd_oracle_compare(args):
    # the Simpson projection of the FD samples needs an even panel count
    if args.fd_points is not None and args.fd_points % 2 == 0:
        raise UsageError(f"--fd-points must be odd, got {args.fd_points}")
    cfg, basis, T, f, g = _problem(args)
    u0 = _load_state(cfg, "u0.path", basis)
    (L,) = basis.spec.lengths

    traj = bd.solve_ibvp(u0, f, g, np.linspace(0.0, T, 9))
    spectral_final = traj.final_state

    def fd_error(m_interior: int, n_steps: int) -> float:
        scheme = fd.FdScheme(theta=0.5, m_interior=m_interior)
        u0_samples = np.real(sp.uniform_samples(u0, m_interior + 1))
        if g is not None:
            u0_samples[0], u0_samples[-1] = g.sample([0.0])[0]
        src = None
        if f is not None:
            sines = basis.mode_values(np.linspace(0.0, L, m_interior + 2)[1:-1])

            # the table is real: take the real part first and keep the product real
            def src(xin, t, sines=sines):
                return np.real(f.sample([t])[0]) @ sines

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
        "refinement_ratio": sp.json_payload(ratio),
        "fd_points": fd_points,
        "steps": args.steps,
    }
    text = sp.strict_json(report)
    return 0, text + "\n", _outputs(cfg, {"oracle_compare.json": text})


def _cmd_generator_lab(args):
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    a = _load({"__dir__": Path(), "--matrix": args.matrix}, "--matrix", gl.parse_matrix, required=True)
    gen = gl.MatrixGenerator(a)
    report = {
        "sectoriality": gl.check_sectoriality(gen),
        "injectivity": gl.check_injectivity(gen, [0.1, 1.0, 10.0]),
        "logconvexity": gl.check_logconvexity_criterion(gen, trials=args.trials, seed=args.seed),
        "inverse_chain": gl.inverse_chain_demo(gen, 1.0, 2.0, seed=args.seed),
        "decay": gl.check_decay(gen, np.linspace(0.0, 5.0, 21)),
        # last: the probes refuse entries past float64 range before it can warn
        "classification": gen.classify(),
    }
    text = _json(report)
    return 0, text + "\n", {Path(args.out): text} if args.out else {}


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
        code, stdout, files = args.fn(args)
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n{USAGE}")
        return 1
    except InvalidSpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        # a mode or sample count past what memory holds
        sys.stderr.write(f"error: {exc or 'out of memory'}\n")
        return 1
    except OSError as exc:
        # an unreadable input or an unwritable destination, named with the reason
        sys.stderr.write(f"error: {exc.filename}: {exc.strerror}\n")
        return 1
    sys.stdout.write(stdout)
    return code


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
