"""Every refusal of bad input, reached on purpose and named.

A deterministic table runs malformed inputs through `cli.cli` in process:
each input kind (config, state JSON, source CSV, boundary CSV, matrix file,
destination) in each malformed form the catalogue of test_cli_fuzz names,
and in the forms listed here that it does not, under every subcommand that
reads it.  Each case ends in exit 1 with one `error:` line that holds the
text of its refusal, or in exit 2 with the verdict, where refusing the data
is the right answer.  A second table makes one library call for each
refusal only the library can reach; each raises InvalidSpecError.

A line tracer follows both tables and records the `raise` sites of
src/heatfvp they reach: every site must be reached, but those of
UNREACHED, each of which states why no input reaches it.  A lint requires
that every raise names one of the refusal types, so a caller handles
InvalidSpecError for bad input and the two verdict errors for data that
cannot be certified, and nothing else.
"""

import ast
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import heatfvp
from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp import fdoracle as fd
from heatfvp import generator as gl
from heatfvp import semigroup as sg
from heatfvp import spectral as sp
from heatfvp.cli import UsageError
from heatfvp.logspace import InvalidSpecError
from heatfvp.spectral import DomainSpec, SpectralVec, build_basis

from conftest import JORDAN, format_matrix
from test_cli_fuzz import (
    CONFIG_SUBCOMMANDS,
    EDGES,
    MATRICES,
    OTHER_EDGES,
    OTHER_VALID,
    READS,
    VALID,
    _check,
    _run,
    config_files,
    other_argv,
)

# the files the package runs from, as its code objects name them
PACKAGE = Path(heatfvp.__file__).parent
REFUSAL_TYPES = {"InvalidSpecError", "UsageError", "IncompatibleDataError", "InconclusiveDataError"}

# raise sites no input reaches, by "module.py:function: text of the raise
# line", each with the reason it stays
UNREACHED = {}


# -- the CLI table -------------------------------------------------------------

# the fuzz's valid run with a tolerance its data meet, so that every config
# subcommand completes it with exit 0: a refusal in the table is its form's
BASE = dict(VALID, rtol="0.5")
ALL = CONFIG_SUBCOMMANDS
GRID = ("forward", "backward", "norms")  # the readers of tgrid.nodes
POLICY = ("backward", "check-compat", "norms")  # the readers of the policy keys
STATE_READERS = [(sub, key) for sub in ALL for key in READS[sub]]
SPECTRUM = "domain lengths put the Dirichlet spectrum outside float64 range"
POSITIVE_T = "horizon T must be finite and positive"

# each edge of the fuzz catalogue: the subcommands that refuse it and the
# text of the refusal; an edge no subcommand refuses is valid there
EDGE_TABLE = [
    ("kind", ("interval", "rectangle"), ALL, "unknown config key 'domain.kind'"),
    ("length", ("1e-160", "1e200"), ALL, SPECTRUM),
    ("length", ("0", "-1", "nan"), ALL, "the length must be finite and positive"),
    ("length", ("x",), ALL, "config key domain.length must be a number"),
    ("length", ("2.5",), (), None),
    ("modes", ("0", "-2"), ALL, "modes must be an integer >= 1"),
    ("modes", ("x",), ALL, "config key modes must be an integer"),
    ("modes", ("1", "4"), (), None),
    ("T", ("1e306",), ALL, "2 T lambda_N leaves float64 range"),
    ("T", ("0", "-1", "inf", "nan"), ALL, POSITIVE_T),
    ("T", (None,), ALL, "config key T is required"),
    # every mode decays below float64, so the oracle's relative errors read 0 / 0
    ("T", ("1e300",), ("oracle-compare",), "a result holds a non-finite number"),
    ("T", ("1.0", "1e-300", "1e-12"), (), None),
    ("nodes", ("0", "1"), GRID, "tgrid.nodes must be at least 2"),
    ("nodes", ("x",), GRID, "config key tgrid.nodes must be an integer"),
    ("nodes", ("2", "9"), (), None),
    ("cutoffs", ("0", "4,2"), POLICY, "cutoffs must be strictly increasing within 1..n_modes"),
    ("cutoffs", ("a",), POLICY, "policy.cutoffs must be comma-separated integers"),
    ("cutoffs", ("1,2",), (), None),
    ("rtol", ("nan", "inf", "-1"), POLICY, "rtol_compat must be finite and nonnegative"),
    ("rtol", ("0.5", "0"), (), None),
    ("growth", ("nan", "inf", "-1", "0.5", "1"), POLICY, "growth_thresh must be finite and greater than 1"),
    ("growth", ("100",), (), None),
    ("typo", ("modez", "polcy.growth_thresh", "tgrid.node", "T0"), ALL, "unknown config key"),
    ("out", ("taken",), ALL, "File exists"),
    ("out", ("taken/sub",), ALL, "Not a directory"),
    ("u0", ("garbage",), ("forward", "norms", "oracle-compare"), "u0.json: state file is not JSON"),
    ("u0", ("non-finite", "huge-int"), ("forward", "norms", "oracle-compare"), "u0.json: coefficients must be finite"),
    ("u0", ("wrong-shape",), ("forward", "norms", "oracle-compare"), "u0.json: coefficient count does not match"),
    ("u0", ("bool-pair",), ("forward", "norms", "oracle-compare"), "u0.json: a coefficient must be a number"),
    ("u0", ("huge",), ("norms",), "the solution norm or the energy bound leaves floating-point range"),
    ("u0", (None,), ("forward", "oracle-compare"), "config key u0.path is required for this subcommand"),
    ("u0", ("tiny", "zero"), (), None),
    ("uT", ("garbage",), ("backward", "check-compat", "norms"), "uT.json: state file is not JSON"),
    ("uT", ("non-finite", "huge-int"), ("backward", "check-compat", "norms"), "uT.json: coefficients must be finite"),
    ("uT", ("wrong-shape",), ("backward", "check-compat", "norms"), "uT.json: coefficient count does not match"),
    ("uT", ("bool-pair",), ("backward", "check-compat", "norms"), "uT.json: a coefficient must be a number"),
    ("uT", (None,), ("backward", "check-compat"), "config key uT.path is required for this subcommand"),
    ("uT", ("huge", "tiny", "zero"), (), None),
    ("desc", ("lengths-string", "lengths-true"), ALL, "the length must be a number"),
    ("desc", ("lengths-pair",), ALL, "interval needs 1 length, got 2"),
    ("desc", ("modes-float", "modes-true"), ALL, "modes must be an integer >= 1"),
    ("f_span", (0.5,), ALL, "source grid must cover [0, T]"),
    ("f_span", (2.0,), (), None),
    ("f_scale", (1e300,), ("norms",), "the solution norm or the energy bound leaves floating-point range"),
    ("f_scale", (0.0, 1e-300), (), None),
    ("f_form", ("garbage",), ALL, "f.csv: source CSV header does not match the basis mode count"),
    ("f_form", ("non-finite",), ALL, "f.csv: source coefficients must be finite"),
    ("f_form", ("wrong-shape",), ALL, "f.csv: source needs at least two time nodes"),
    ("g_span", (0.5,), ALL, "boundary grid must cover [0, T]"),
    ("g_span", (2.0,), (), None),
    ("g_scale", (1e300,), ("norms",), "the solution norm or the energy bound leaves floating-point range"),
    ("g_scale", (0.0, 1e-300), (), None),
    ("g_form", ("garbage",), ALL, "g.csv: boundary CSV header must be t,g_left,g_right"),
    ("g_form", ("non-finite",), ALL, "g.csv: boundary values must be a finite (n_nodes, 2) array"),
    ("g_form", ("wrong-shape",), ALL, "g.csv: boundary data needs at least two time nodes"),
]
DEMO, LAB = ("instability-demo",), ("generator-lab",)
# the same for the options of instability-demo and generator-lab; the
# matrix forms are those of MATRIX_FORMS and VALID_MATRICES
OTHER_TABLE = [
    ("T", ("0", "-1", "inf", "nan"), DEMO, POSITIVE_T),
    ("T", ("1.0", "1e-300", "1e-12", "1e300", "1e306"), (), None),
    ("jmax", ("0", "-1"), DEMO, "jmax outside 1..n_modes"),
    ("jmax", ("1",), (), None),
    ("length", ("1e-160", "1e200"), DEMO, SPECTRUM),
    ("length", ("0", "-1", "nan"), DEMO, "the length must be finite and positive"),
    ("length", ("x",), DEMO, "argument --length: invalid float value"),
    ("length", ("2.5",), (), None),
    ("seed", ("-1",), LAB, "--seed must be nonnegative"),
    ("seed", ("3",), (), None),
    ("out", ("out",), DEMO + LAB, "Is a directory"),
    ("out", ("taken/{}",), DEMO + LAB, "File exists"),
    ("out", ("taken",), (), None),
]


def _state_edit(change):
    """An edit of the parsed state file that `change` mutates or replaces."""
    def edit(text):
        state = json.loads(text)
        return json.dumps(change(state) or state)
    return edit


def _set(path, value):
    def change(state):
        node = state
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return change


def _other_basis(state):
    state["basis"]["modes"] = 8
    state["coefficients"] = state["coefficients"][:8]


def _drop_coefficients(state):
    del state["coefficients"]


def _last_row(change):
    """An edit of a node CSV's last row, split into fields."""
    def edit(text):
        lines = text.split("\r\n")
        fields = lines[-2].split(",")
        lines[-2] = ",".join(change(fields))
        return "\r\n".join(lines)
    return edit


def _utf8_garbled(text):
    return b"\xff" + text.encode()


# state file forms the fuzz catalogue does not name
STATE_FORMS = {
    "not-an-object": (lambda text: json.dumps([json.loads(text)]), "state JSON has the wrong layout"),
    "coefficients-number": (_state_edit(_set(("coefficients",), 5)), "state JSON has the wrong layout"),
    "pair-of-one": (_state_edit(_set(("coefficients", 0), [1.0])), "state JSON has the wrong layout"),
    "pair-of-three": (_state_edit(_set(("coefficients", 0), [1.0, 0.0, 0.0])), "state JSON has the wrong layout"),
    "no-coefficients": (_state_edit(_drop_coefficients), "state JSON lacks the key 'coefficients'"),
    "complex": (_state_edit(_set(("coefficients", 0, 1), 1.0)), "coefficients must be real: an imaginary part"),
    "kind-rectangle": (_state_edit(_set(("basis", "kind"), "rectangle")), "unknown domain kind 'rectangle'"),
    "other-basis": (_state_edit(_other_basis), "stored basis descriptor does not match the supplied basis"),
    "nested": (lambda text: "[" * 100_000, "state JSON nests too deeply"),
    "non-utf8": (_utf8_garbled, "'utf-8' codec can't decode"),
}
# node CSV forms of both the source and the boundary file
CSV_FORMS = {
    "text-field": (_last_row(lambda f: [f[0], "x", *f[2:]]), "every CSV field below the header must be a number"),
    "short-row": (lambda text: text + "1.0\r\n", "every CSV row needs"),
    "repeated-time": (_last_row(lambda f: ["0.0", *f[1:]]), "times must be finite and strictly increasing"),
    "long-field": (lambda text: text + "1" * 200_000 + "\r\n", "a field past csv's size limit"),
    "non-utf8": (_utf8_garbled, "'utf-8' codec can't decode"),
}
SOURCE_FORMS = {
    **CSV_FORMS,
    "complex": (_last_row(lambda f: [f[0], f[1], "1.0", *f[3:]]), "source coefficients must be real"),
}
BOUNDARY_FORMS = {
    **CSV_FORMS,
    # the lift's forcing lambda_j w_j leaves float64 where g does not
    "too-large": (_last_row(lambda f: [f[0], "1e308", f[2]]), "the lift forcing leaves float64 range"),
}
CONFIG_FORMS = {
    "no-equals": (lambda text: text + "modes 16\n", "expected key = value"),
    "non-utf8": (_utf8_garbled, "'utf-8' codec can't decode"),
}
# a state whose sums on the uniform grids pass float64 though no coefficient does
BRINK = json.dumps({"basis": {"kind": "interval", "lengths": [np.pi], "modes": 16},
                    "coefficients": [[1.7e308, 0.0]] * 16})
MATRIX_FORMS = {
    "garbage": ("2\n1 0 0\n", "expected 2 rows after the dimension line"),
    "non-finite": (format_matrix(JORDAN).replace("10.0", "nan"), "generator entries must be finite"),
    "non-utf8": (_utf8_garbled(format_matrix(JORDAN)), "'utf-8' codec can't decode"),
    "empty": ("\n", "empty matrix text"),
    "no-dimension": ("x\n", "first line must hold the dimension"),
    "text-entry": ("1\n1 x\n", "matrix entries must be reals"),
    "short-row": ("1\n1\n", "each row needs 2 reals"),
    "too-large": ("65\n" + ("0 0 " * 65 + "\n") * 65, "generator dimension capped at 64"),
    "radii-overflow": (format_matrix([[1e306, 0.0], [0.0, 1.0]]), "the sector radii cannot be formed"),
    "huge": (format_matrix(MATRICES["huge"]), "the criterion margins cannot be formed"),
    "stiff": (format_matrix(MATRICES["stiff"]), "underflows to 0"),
    "stiff-coupled": (format_matrix(MATRICES["stiff-coupled"]), "overflows float64 at t = -1"),
    "growing": (format_matrix([[-1e4, 0.0], [0.0, 1.0]]), "overflows float64 at t = 0.1"),
}
VALID_MATRICES = ("jordan", "tiny", "zero", "rotation")


def _argv(sub, config="run.conf"):
    argv = [sub, "--config", config]
    if sub == "oracle-compare":
        argv += ["--fd-points", "15", "--steps", "4"]
    return argv


def _config_run(sub, fields=(), f=False, g=False, edit=None):
    """The argv and files of `sub` on BASE with `fields` replaced, with a
    source and a boundary CSV of three nodes when asked; `edit` maps the
    name of a file to the function that rewrites its text, or deletes the
    file by returning None."""
    files = config_files(dict(BASE, **dict(fields)), 3 if f else None, 3 if g else None)
    for name, change in (edit or {}).items():
        files[name] = change(files[name])
        if files[name] is None:
            del files[name]
    return _argv(sub), files


def _other_run(sub, fields=(), matrix=None):
    """The argv and files of instability-demo or generator-lab on the
    fuzz's valid options with `fields` replaced; `matrix` is the text of
    the matrix file, the Jordan block by default."""
    argv = other_argv(sub, dict(OTHER_VALID, **dict(fields)))
    if sub == "instability-demo":
        return argv, {}
    return argv, {"matrix.txt": format_matrix(JORDAN) if matrix is None else matrix}


def _cli_cases():
    """name -> (argv, files, exit code, text the refusal must hold)."""
    cases = {}

    def add(name, run, rc, match):
        assert name not in cases, name
        cases[name] = (*run, rc, match)

    for field, values, readers, match in EDGE_TABLE:
        for value in values:
            for sub in readers:
                run = _config_run(sub, {field: value}, f=field.startswith("f_"), g=field.startswith("g_"))
                add(f"{sub}-{field}-{value}", run, 1, match)
    for nodes in ("00", "-0"):  # zero written otherwise is no absent key either
        for sub in GRID:
            add(f"{sub}-nodes-{nodes}", _config_run(sub, {"nodes": nodes}), 1, "tgrid.nodes must be at least 2")
    for sub, key in STATE_READERS:
        for form, (change, match) in STATE_FORMS.items():
            add(f"{sub}-{key}-{form}", _config_run(sub, edit={f"{key}.json": change}), 1, f"{key}.json: {match}")
    for sub in ALL:
        for form, (change, match) in SOURCE_FORMS.items():
            add(f"{sub}-f-{form}", _config_run(sub, f=True, edit={"f.csv": change}), 1, match)
        for form, (change, match) in BOUNDARY_FORMS.items():
            add(f"{sub}-g-{form}", _config_run(sub, g=True, edit={"g.csv": change}), 1, match)
        for form, (change, match) in CONFIG_FORMS.items():
            add(f"{sub}-config-{form}", _config_run(sub, edit={"run.conf": change}), 1, match)
        add(f"{sub}-config-missing", (_argv(sub, "out/none.conf"), {}), 1, "config file not found")
        add(f"{sub}-f-missing", _config_run(sub, f=True, edit={"f.csv": lambda text: None}), 1,
            "file referenced by f.path not found")
    # data outside the domain of the backward flow: refused with its verdict
    for sub in ("backward", "check-compat"):
        add(f"{sub}-inconclusive", _config_run(sub, {"rtol": None}), 2, '"verdict": "inconclusive"')
        ones = _state_edit(_set(("coefficients",), [[1.0, 0.0]] * 16))
        add(f"{sub}-incompatible", _config_run(sub, edit={"uT.json": ones}), 2, '"verdict": "incompatible"')
    add("forward-u0-brink", _config_run("forward", edit={"u0.json": lambda text: BRINK}), 1,
        "trajectory values leave floating-point range")
    add("oracle-compare-u0-brink", _config_run("oracle-compare", edit={"u0.json": lambda text: BRINK}), 1,
        "uniform samples leave floating-point range")
    add("oracle-compare-even-points", (["oracle-compare", "--config", "run.conf", "--fd-points", "16"],
                                       _config_run("oracle-compare")[1]), 1, "--fd-points must be odd")
    add("norms-no-state", _config_run("norms", {"u0": None, "uT": None}), 1, "norms needs uT.path or u0.path")
    add("forward-no-config-option", (["forward", "--confg", "run.conf"], {}), 1,
        "the following arguments are required: --config")
    # boundary data whose sums, not values, pass float64
    big = _last_row(lambda f: [f[0], "1e155", f[2]])
    add("norms-g-1e155", _config_run("norms", g=True, edit={"g.csv": big}), 1,
        "the solution norm or the energy bound leaves floating-point range")
    huge = _last_row(lambda f: [f[0], "1e307", f[2]])
    add("oracle-compare-g-1e307", _config_run("oracle-compare", g=True, edit={"g.csv": huge}), 1,
        "the finite-difference solution leaves floating-point range")
    for field, values, readers, match in OTHER_TABLE:
        for value in values:
            for sub in readers:
                add(f"{sub}-{field}-{value}", _other_run(sub, {field: value}), 1, match)
    for form, (text, match) in MATRIX_FORMS.items():
        add(f"generator-lab-matrix-{form}", _other_run("generator-lab", matrix=text), 1, match)
    add("generator-lab-trials-0", _other_run("generator-lab", {"trials": "0"}), 1, "need at least one trial vector")
    return cases


CLI_CASES = _cli_cases()


# -- the API table -------------------------------------------------------------

def _basis(modes=4):
    return build_basis(DomainSpec("interval", (np.pi,), modes))


def _vec(modes=4):
    return SpectralVec.from_coefficients(_basis(modes), np.exp(-np.arange(1.0, modes + 1)))


def _single_node_trajectory():
    return dh.solve_cauchy(_vec(), None, [0.5])


def _overflowed():
    return _vec().scale_log(np.full(4, 800.0))


def _source(modes=4):
    return dh.SourceTerm(_basis(modes), [0.0, 1.0], np.ones((2, modes)))


def _grid(n=17):
    return np.linspace(0.0, np.pi, n)


# one call per refusal only the library can reach, with the text it must raise
API_CASES = {
    "real-text": (lambda: dh.solve_cauchy(_vec(), None, ["0", "1"]), "time grid must be an array of real numbers"),
    "real-ragged": (lambda: dh.SourceTerm(_basis(), [0.0, 1.0], [[1.0] * 4, [1.0] * 3]),
                    "source coefficients must be an array of real numbers"),
    "state-shape": (lambda: SpectralVec(_basis(), np.ones(3), np.zeros(3)), "coefficient count does not match"),
    "state-nan": (lambda: SpectralVec(_basis(), np.ones(4), np.full(4, np.nan)), "log magnitudes that are not NaN"),
    "state-half-sign": (lambda: SpectralVec(_basis(), np.full(4, 0.5), np.zeros(4)), "signs in {-1, 0, 1}"),
    "state-zero-sign": (lambda: SpectralVec(_basis(), np.zeros(4), np.full(4, 3.0)),
                        "a state with sign 0 needs log magnitude -inf"),
    "add-bases": (lambda: _vec(4) + _vec(5), "basis mismatch in addition"),
    "sub-bases": (lambda: _vec(4) - _vec(5), "basis mismatch in subtraction"),
    "analyze-grid": (lambda: sp.analyze(np.ones(7), _basis()), "quadrature grid is (33,)"),
    "project-shape": (lambda: sp.project_samples(np.ones(5), _grid(), _basis()), "matching 1-d arrays"),
    "project-span": (lambda: sp.project_samples(np.ones(17), _grid() / 2, _basis()), "grid must span [0, L]"),
    "project-uneven": (lambda: sp.project_samples(np.ones(17), _grid() ** 2 / np.pi, _basis()),
                       "grid must be uniform and increasing"),
    "project-odd-panels": (lambda: sp.project_samples(np.ones(16), np.linspace(0.0, np.pi, 16), _basis()),
                           "grid needs an even panel count"),
    "uniform-panels": (lambda: sp.uniform_samples(_vec(), 1), "integer panel count >= 2"),
    "uniform-overflowed": (lambda: sp.uniform_samples(_overflowed(), 8), "exceed linear floating-point range"),
    "synthesize-overflowed": (lambda: sp.synthesize(_overflowed(), _grid()), "exceed linear floating-point range"),
    "json-overflowed": (lambda: sp.vec_to_json(_overflowed()), "cannot serialize coefficients beyond linear range"),
    "forward-negative": (lambda: sg.apply_forward(_vec(), -0.1), "the forward flow needs a time t >= 0"),
    "inverse-nan": (lambda: sg.apply_inverse(_vec(), np.nan), "the inverse flow needs a time t >= 0"),
    "cutoffs-text": (lambda: sg.MembershipPolicy(cutoffs=("a",)), "cutoffs must be integers"),
    "cutoffs-float": (lambda: sg.MembershipPolicy(cutoffs=(2.7, 4)), "cutoffs must be integers"),
    "cutoffs-bool": (lambda: sg.MembershipPolicy(cutoffs=(True, 4)), "cutoffs must be integers"),
    "generator-text": (lambda: gl.MatrixGenerator([["a"]]), "generator entries must be numbers"),
    "generator-shape": (lambda: gl.MatrixGenerator(np.ones((2, 3))), "generator must be a square matrix"),
    "exp-times-shape": (lambda: gl.exp_semigroup(gl.MatrixGenerator(JORDAN), np.ones((2, 2))),
                        "times must be a scalar or a 1-d array"),
    "exp-times-finite": (lambda: gl.exp_semigroup(gl.MatrixGenerator(JORDAN), [1.0, np.inf]),
                         "needs finite times, not t = inf"),
    "decay-times": (lambda: gl.check_decay(gl.MatrixGenerator(JORDAN), [1.0, 0.5]),
                    "need an increasing grid of nonnegative times"),
    "injectivity-times": (lambda: gl.check_injectivity(gl.MatrixGenerator(JORDAN), [0.0]),
                          "need strictly positive times"),
    "convexity-few-times": (lambda: gl.check_logconvexity_criterion(gl.MatrixGenerator(JORDAN), 4, 0, times=[1.0, 2.0]),
                            "need at least three times"),
    "convexity-times-order": (lambda: gl.check_logconvexity_criterion(gl.MatrixGenerator(JORDAN), 4, 0,
                                                                      times=[1.0, 3.0, 2.0]),
                              "times must be finite and strictly increasing"),
    "chain-times": (lambda: gl.inverse_chain_demo(gl.MatrixGenerator(JORDAN), 2.0, 1.0, 0), "need 0 < t < t_prime"),
    "fd-theta": (lambda: fd.FdScheme(theta=2.0), "theta must lie in [0, 1]"),
    "fd-points": (lambda: fd.FdScheme(m_interior=2), "need at least three interior points"),
    "fd-steps": (lambda: fd.fd_solve(np.zeros(17), None, None, np.pi, 1.0, 0, fd.FdScheme(m_interior=15)),
                 "need a positive length and step count"),
    "fd-cfl": (lambda: fd.fd_solve(np.zeros(17), None, None, np.pi, 1.0, 4, fd.FdScheme(0.0, 15)),
               "exceeds the stability bound"),
    "fd-samples": (lambda: fd.fd_solve(np.zeros(5), None, None, np.pi, 1.0, 4, fd.FdScheme(m_interior=15)),
                   "initial samples must live on the full grid"),
    "source-shape": (lambda: dh.SourceTerm(_basis(), [0.0, 1.0], np.ones((2, 3))),
                     "source coefficient array must be (n_nodes, n_modes)"),
    "sample-outside": (lambda: bd.BoundaryData.constant(0.0, 0.0, 1.0).sample([2.0]),
                       "sample times outside the boundary data grid"),
    "tgrid-shape": (lambda: dh.solve_cauchy(_vec(), None, []), "time grid must be a nonempty 1-d array"),
    "tgrid-finite": (lambda: dh.solve_cauchy(_vec(), None, [0.0, np.nan]), "time grid must be finite"),
    "tgrid-order": (lambda: dh.solve_cauchy(_vec(), None, [1.0, 0.5]), "time grid must be strictly increasing"),
    "tgrid-span": (lambda: dh.solve_cauchy(_vec(), _source(), [0.0, 2.0]), "time grid must lie inside [0, T]"),
    "forward-bases": (lambda: dh.solve_cauchy(_vec(5), _source(4), [0.0, 1.0]), "source and state use different bases"),
    "norm-one-node": (lambda: dh.solution_norm(_single_node_trajectory()), "needs at least two nodes"),
    "energy-one-node": (lambda: dh.check_energy_estimate(_single_node_trajectory()),
                        "energy check needs at least two nodes"),
    "h1-norm-one-node": (lambda: bd.solution_norm_h1(_single_node_trajectory()),
                         "a trajectory norm needs at least two nodes"),
    "flow-shifted-grid": (lambda: bd.flow_identity_residual(dh.solve_cauchy(_vec(), _source(), [0.5, 1.0]), None),
                          "the flow identity needs a trajectory whose grid starts at t = 0"),
    "split-grid": (lambda: bd.boundary_split(np.ones(5), _basis()), "samples must live on the basis quadrature grid"),
    "backward-bases": (lambda: bd.check_final_data(_source(5), None, _vec(4), 1.0, policy=None),
                       "source and final state use different bases"),
    "backward-tgrid": (lambda: bd.solve_final_value_inhom(None, None, _vec(), 1.0, tgrid=[0.5, 1.0]),
                       "must start at 0 and end at T"),
}


# -- the trace -------------------------------------------------------------------

def _raise_sites():
    """(path, line) -> "module.py:function: raise line" of every raise that
    names an exception in the package."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for func in ast.walk(ast.parse("\n".join(lines), filename=str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.Module)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    name = getattr(func, "name", "<module>")
                    # the innermost function wins: functions are walked outside in
                    sites[(str(path), node.lineno)] = f"{path.name}:{name}: {lines[node.lineno - 1].strip()}"
    return sites


SITES = _raise_sites()


def _run_cli_case(name):
    argv, files, _, _ = CLI_CASES[name]
    try:
        return _run(argv, files)
    except Exception as exc:  # reported by the case's own test
        return exc


def _run_api_case(name):
    call, _ = API_CASES[name]
    try:
        call()
    except Exception as exc:
        return exc
    return None


@cache
def _traced():
    """Every case of both tables run once under a line tracer: (outcome by
    case, the raise sites reached).  The tracer follows the package's
    frames alone and is replaced by the one before it when done."""
    files = {path for path, _ in SITES}
    reached = set()

    def local(frame, event, arg):
        if event == "line" and (frame.f_code.co_filename, frame.f_lineno) in SITES:
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        outcomes = {("cli", name): _run_cli_case(name) for name in CLI_CASES}
        outcomes.update({("api", name): _run_api_case(name) for name in API_CASES})
    finally:
        sys.settrace(before)
    return outcomes, reached


# -- tests -----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_input_is_refused(name):
    argv, files, rc_want, match = CLI_CASES[name]
    outcome = _traced()[0][("cli", name)]
    if isinstance(outcome, Exception):
        raise outcome
    rc, out, err, written = outcome
    _check(argv, rc, out, err, written)
    assert rc == rc_want, (argv, rc, err)
    assert match in (err.splitlines()[0] if rc == 1 else out), (argv, err, out)


@pytest.mark.parametrize("name", sorted(API_CASES))
def test_library_input_is_refused(name):
    exc = _traced()[0][("api", name)]
    assert isinstance(exc, InvalidSpecError), exc
    assert API_CASES[name][1] in str(exc)


def test_every_base_run_succeeds():
    # a refusal in the table is its form's only if the run it mutates succeeds
    for sub in ALL:
        for f, g in ((False, False), (True, False), (False, True)):
            rc, out, err, _ = _run(*_config_run(sub, f=f, g=g))
            assert rc == (2 if sub in ("backward", "check-compat") and (f or g) else 0), (sub, f, g, err)
    for run in (_other_run("instability-demo"),
                *(_other_run("generator-lab", matrix=format_matrix(MATRICES[name])) for name in VALID_MATRICES)):
        assert _run(*run)[0] == 0, run


def test_the_table_classifies_every_edge_of_the_fuzz():
    for table, edges in ((EDGE_TABLE, EDGES), (OTHER_TABLE, dict(OTHER_EDGES, matrix=()))):
        classified = [(field, value) for field, values, _, _ in table for value in values]
        assert len(classified) == len(set(classified))
        assert set(classified) == {(field, value) for field, values in edges.items() for value in values}
    assert set(OTHER_EDGES["matrix"]) <= set(MATRIX_FORMS) | set(VALID_MATRICES)


def test_every_raise_site_is_reached():
    reached = {SITES[site] for site in _traced()[1]}
    assert set(UNREACHED) <= set(SITES.values())
    assert sorted(set(SITES.values()) - reached - set(UNREACHED)) == []
    assert sorted(reached & set(UNREACHED)) == []


def test_every_raise_has_a_line_of_its_own():
    # a line event then means the raise ran, not the condition before it
    for site in SITES.values():
        assert site.split(": ", 1)[1].startswith("raise "), site


def test_every_raise_names_a_refusal_type():
    """A raise names InvalidSpecError or a subclass of it, UsageError or one
    of the two verdict errors; a bare raise re-raises inside an except."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    allowed = set(REFUSAL_TYPES)
    while grown := {name for name, parents in bases.items() if parents & allowed} - allowed:
        allowed |= grown
    handled = {id(node) for tree in trees for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
               for node in ast.walk(handler)}
    bad = []
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            if node.exc is None:
                if id(node) not in handled:
                    bad.append(ast.unparse(node))
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) not in allowed:
                bad.append(ast.unparse(node))
    assert bad == []
    assert issubclass(fd.CflViolationError, InvalidSpecError) and issubclass(InvalidSpecError, ValueError)
    assert not issubclass(UsageError, ValueError)
