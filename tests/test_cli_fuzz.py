"""Bounded fuzz of the command-line driver, run in process.

Every input -- a mutated config, state JSON, source or boundary CSV, or
matrix, and an output destination -- must end in a result (exit 0), a
refusal (exit 2) or an error (exit 1): no exception escapes `cli`, an error
is one line on stderr with nothing on stdout, and every JSON the run prints
or writes parses with NaN and Infinity refused.  The draws lean on the
edges: horizons whose 2 T lambda_N leaves float64, lengths of 1e-160 and
1e200, sources and boundary data that end before or after T, misspelled
config keys, huge or stiff matrices, a byte that is not UTF-8 in a config, state or matrix file, and
an out.dir or --out that names an existing file, a path under it or an
existing directory.  The runtime needs numpy only.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heatfvp.cli import cli
from heatfvp.spectral import DomainSpec, build_basis

from conftest import JORDAN, format_matrix

CONFIG_SUBCOMMANDS = ("forward", "backward", "check-compat", "norms", "oracle-compare")

# a valid run, and the edge values each field may take instead; a draw
# mutates at most three fields, so most runs get past the config
VALID = {
    "kind": None, "length": "3.141592653589793", "modes": "16", "T": "0.05", "nodes": None,
    "cutoffs": None, "rtol": None, "growth": None, "u0": "valid", "uT": "valid",
    "f_span": 1.0, "f_scale": 1.0, "f_form": "valid", "g_span": 1.0, "g_scale": 1.0, "g_form": "valid",
    "out": "out", "typo": None,
}
LENGTHS = ("1e-160", "1e200", "2.5", "0", "-1", "nan", "x")
HORIZONS = ("1.0", "1e-300", "1e-12", "1e300", "1e306", "0", "-1", "inf", "nan")
STATES = ("garbage", "non-finite", "wrong-shape", "huge", "tiny", "zero", None)
EDGES = {
    # domain.kind is no config key: written only when drawn, and then refused
    "kind": ("interval", "rectangle"), "length": LENGTHS, "modes": ("1", "4", "0", "-2", "x"),
    "T": HORIZONS + (None,), "nodes": ("1", "2", "9", "x"), "cutoffs": ("1,2", "0", "4,2", "a"),
    "rtol": ("nan", "inf", "-1", "0.5", "0"), "growth": ("nan", "inf", "-1", "0.5", "1", "100"),
    "u0": STATES, "uT": STATES,
    # the fraction of T that a source or boundary grid reaches
    "f_span": (0.5, 2.0), "f_scale": (0.0, 1e-300, 1e300), "f_form": ("garbage", "non-finite", "wrong-shape"),
    "g_span": (0.5, 2.0), "g_scale": (0.0, 1e-300, 1e300), "g_form": ("garbage", "non-finite", "wrong-shape"),
    # every run finds the file "taken" and the empty directory "out" in its directory
    "out": ("taken", "taken/sub"),
    # a misspelled key, which must not run the default of the key it misses
    "typo": ("modez", "polcy.growth_thresh", "tgrid.node", "T0"),
}
STATE_SCALES = {"huge": 1e300, "tiny": 1e-300, "zero": 0.0}
MATRICES = {
    "jordan": JORDAN,
    "huge": [[1e300, -1e300], [1e300, 1e300]],
    "stiff": [[1e-8, 0.0], [0.0, 1e8]],
    "stiff-coupled": [[1.0, 1e12], [0.0, 1e10]],
    "tiny": [[1e-300, 0.0], [1e-300, 1e-300]],
    "zero": [[0.0, 0.0], [0.0, 0.0]],
    "rotation": [[0.0, -1.0], [1.0, 0.0]],
}
# the same for the options of instability-demo and generator-lab; "{}"
# stands for the output file's name
OTHER_VALID = {"T": "0.05", "jmax": "4", "length": VALID["length"], "seed": "0", "matrix": "jordan", "out": "out/{}"}
OTHER_EDGES = {
    "T": HORIZONS, "jmax": ("1", "0", "-1"), "length": LENGTHS, "seed": ("3", "-1"),
    "matrix": tuple(sorted(MATRICES)) + ("garbage", "non-finite", "non-utf8"), "out": ("out", "taken", "taken/{}"),
}


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _strict_json(text):
    return json.loads(text, parse_constant=_refuse_constant)


def _basis_or_none(length, modes):
    try:
        return build_basis(DomainSpec("interval", (float(length),), int(modes)))
    except ValueError:  # InvalidSpecError is one
        return None


def _garble(draw, text):
    """`text` as UTF-8 bytes with one byte that cannot start or continue a
    UTF-8 character there inserted at a drawn position."""
    data = text.encode()
    at = draw(st.integers(0, len(data)))
    return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]


def _horizon(text):
    try:
        T = float(text)
    except (TypeError, ValueError):  # a missing or malformed T
        return 1.0
    return T if np.isfinite(T) and T > 0 else 1.0


def _state_json(basis, form, T=0.0):
    """A state file for `basis` (a 4-mode interval one when it does not
    build) with coefficients e^{-j - T lambda_j}, mutated by `form`."""
    if form == "garbage":
        return "{not json"
    spec = basis.spec if basis is not None else DomainSpec("interval", (np.pi,), 4)
    n = spec.modes if basis is None else basis.n_modes
    scale = STATE_SCALES.get(form, 1.0)
    lam = basis.lambdas if basis is not None else np.zeros(n)
    with np.errstate(over="ignore"):  # a horizon past float64 decays every mode to 0
        coeffs = [[scale * float(np.exp(-j - T * lam[j - 1])), 0.0] for j in range(1, n + 1)]
    if form == "non-finite":
        coeffs[0][0] = float("nan")
    if form == "wrong-shape":
        coeffs = coeffs[:-1] or [[1.0, 0.0], [1.0, 0.0]]
    desc = {"kind": spec.kind, "lengths": list(spec.lengths), "modes": spec.modes}
    return json.dumps({"basis": desc, "coefficients": coeffs})


def _node_csv(header, times, rows, form):
    if form == "garbage":
        return "t,what\r\n1,2\r\n"
    if form == "non-finite":
        rows = rows.copy()
        rows[-1, 0] = np.nan
    if form == "wrong-shape":
        times, rows = times[:1], rows[:1]
    lines = [",".join(header)] + [",".join(map(repr, [t, *r])) for t, r in zip(times.tolist(), rows.tolist())]
    return "\r\n".join(lines) + "\r\n"


def _source_csv(basis, T, span, nodes, scale, form):
    n = basis.n_modes if basis is not None else 4
    header = ["t"] + [f"mode_{j}_{p}" for j in range(1, n + 1) for p in ("re", "im")]
    times = np.linspace(0.0, span * T, nodes)
    rows = scale * np.outer(np.linspace(1.0, 0.5, nodes), np.exp(-np.arange(2 * n) / 2.0))
    return _node_csv(header, times, rows, form)


def _boundary_csv(T, span, nodes, scale, form):
    times = np.linspace(0.0, span * T, nodes)
    rows = scale * np.column_stack([np.linspace(0.0, 1.0, nodes), np.linspace(0.5, -0.5, nodes)])
    return _node_csv(["t", "g_left", "g_right"], times, rows, form)


@st.composite
def config_runs(draw):
    """(argv, files, refused): a config-driven subcommand, the files it
    reads, and whether it must exit 1 however the other fields are drawn."""
    c = dict(VALID)
    for field in draw(st.sets(st.sampled_from(sorted(EDGES)), max_size=3)):
        c[field] = draw(st.sampled_from(EDGES[field]))
    basis = _basis_or_none(c["length"], c["modes"])
    T = _horizon(c["T"])
    lines = [f"domain.length = {c['length']}", f"modes = {c['modes']}", f"out.dir = {c['out']}"]
    for key, value in (("domain.kind", c["kind"]), ("T", c["T"]), ("tgrid.nodes", c["nodes"]),
                       ("policy.cutoffs", c["cutoffs"]), ("policy.rtol_compat", c["rtol"]),
                       ("policy.growth_thresh", c["growth"]), (c["typo"], "8")):
        if key is not None and value is not None:
            lines.append(f"{key} = {value}")
    files = {}
    for key in ("u0", "uT"):
        if c[key] is not None:
            lines.append(f"{key}.path = {key}.json")
            # u_T is the image of u0 without f and g, so a backward run can succeed
            files[f"{key}.json"] = _state_json(basis, c[key], T if key == "uT" else 0.0)
    if draw(st.booleans()):
        lines.append("f.path = f.csv")
        files["f.csv"] = _source_csv(basis, T, c["f_span"], draw(st.integers(2, 5)), c["f_scale"], c["f_form"])
    if draw(st.booleans()):
        lines.append("g.path = g.csv")
        files["g.csv"] = _boundary_csv(T, c["g_span"], draw(st.integers(2, 5)), c["g_scale"], c["g_form"])
    files["run.conf"] = "\n".join(lines) + "\n"
    garbled = draw(st.sampled_from((None,) * 6 + ("run.conf", "u0.json", "uT.json")))
    if garbled in files:
        files[garbled] = _garble(draw, files[garbled])
    sub = draw(st.sampled_from(CONFIG_SUBCOMMANDS))
    argv = [sub, "--config", "run.conf"]
    if sub == "oracle-compare":
        # small grids keep each run cheap; an even count is a usage error
        argv += ["--fd-points", draw(st.sampled_from(["15", "33", "16"])), "--steps", "4"]
    # data that end at half of T leave (T/2, T] uncovered, in any units
    short = ("f.csv" in files and c["f_span"] < 1.0) or ("g.csv" in files and c["g_span"] < 1.0)
    return argv, files, short or c["typo"] is not None or c["kind"] is not None


@st.composite
def other_runs(draw):
    """instability-demo and generator-lab, which take no config; a draw
    mutates at most two options, so most runs reach their output."""
    c = dict(OTHER_VALID)
    for field in draw(st.sets(st.sampled_from(sorted(OTHER_EDGES)), max_size=2)):
        c[field] = draw(st.sampled_from(OTHER_EDGES[field]))
    if draw(st.booleans()):
        argv = ["instability-demo", "--T", c["T"], "--jmax", c["jmax"], "--length", c["length"],
                "--out", c["out"].format("table.csv")]
        return argv, {}
    name = c["matrix"]
    if name == "garbage":
        text = "2\n1 0 0\n"
    elif name == "non-finite":
        text = format_matrix(JORDAN).replace("10.0", "nan")
    elif name == "non-utf8":
        text = _garble(draw, format_matrix(JORDAN))
    else:
        text = format_matrix(MATRICES[name])
    argv = ["generator-lab", "--matrix", "matrix.txt", "--trials", "4", "--seed", c["seed"],
            "--out", c["out"].format("lab.json")]
    return argv, {"matrix.txt": text}


def _run(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "taken").write_text("")
        (root / "out").mkdir()
        for name, text in files.items():
            (root / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = [str(root / a) if a in files or a.split("/")[0] in ("out", "taken") else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli(argv)
        written = {p.name: p.read_text() for p in (root / "out").glob("*.json")}
    return rc, out.getvalue(), err.getvalue(), written


def _check(argv, rc, out, err, written):
    assert rc in (0, 1, 2), (argv, rc, err)
    if rc == 1:
        assert err.startswith("error: ") and out == "", (argv, out, err)
        # a usage error alone is followed by the usage text
        assert len(err.splitlines()) == 1 or err.splitlines()[1].startswith("usage:"), (argv, err)
    elif argv[0] != "instability-demo":
        _strict_json(out)
    for text in written.values():
        _strict_json(text)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(config_runs())
def test_config_subcommands_end_in_an_exit_code(run):
    argv, files, refused = run
    rc, out, err, written = _run(argv, files)
    _check(argv, rc, out, err, written)
    assert rc == 1 or not refused, (argv, files)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(other_runs())
def test_lab_and_demo_end_in_an_exit_code(run):
    argv, files = run
    _check(argv, *_run(argv, files))
