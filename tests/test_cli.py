"""End-to-end tests for the command-line driver."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import heatfvp
from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp import spectral as sp
from heatfvp.cli import USAGE, cli, parse_config
from heatfvp.spectral import DomainSpec, SpectralVec, build_basis

from conftest import JORDAN, format_matrix, node_csv


def write_conf(tmp_path, text, name="run.conf"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def decayed_instance(n_modes, seed=7, length=np.pi):
    basis = build_basis(DomainSpec("interval", (length,), n_modes))
    rng = np.random.default_rng(seed)
    j = np.arange(1, n_modes + 1)
    u0 = SpectralVec.from_coefficients(
        basis, rng.choice([-1.0, 1.0], n_modes) * np.exp(-j)
    )
    return basis, u0


def _in_units_params(*subs):
    """(sub, data, s) for source and boundary data at the length scales
    s = 2^-20, 1 and 2^10; the cases at s = 1 keep their plain ids."""
    scales = {"": 1.0, "-s2^-20": 2.0 ** -20, "-s2^10": 2.0 ** 10}
    return [
        pytest.param(sub, data, s, id=sub + ("" if data == "source" else "-boundary") + tag)
        for data in ("source", "boundary") for sub in subs for tag, s in scales.items()
    ]


def inhom_files(tmp_path):
    """Forward-solve a mixed-data instance and drop its inputs on disk."""
    basis = build_basis(DomainSpec("interval", (np.pi,), 16))
    rng = np.random.default_rng(42)
    j = np.arange(1, 17)
    u0 = SpectralVec.from_coefficients(
        basis, rng.choice([-1.0, 1.0], 16) * np.exp(-2.2 * j)
    )
    T = 0.05
    ts = np.linspace(0.0, T, 9)
    fc = rng.choice([-1.0, 1.0], 16) * np.exp(-1.2 * T * basis.lambdas)
    f = dh.SourceTerm(basis, ts, np.outer(np.linspace(1.0, 0.5, 9), fc))
    g = bd.BoundaryData(
        np.array([0.0, T / 2, T]),
        np.array([[0.0, 0.0], [0.8, -0.5], [0.3, 0.2]]),
    )
    traj = bd.solve_ibvp(u0, f, g, ts)
    (tmp_path / "uT.json").write_text(sp.vec_to_json(traj.final_state))
    (tmp_path / "f.csv").write_text(node_csv(f))
    (tmp_path / "g.csv").write_text(node_csv(g))
    return basis, u0, T


class TestUsage:
    def test_no_subcommand(self, tmp_path, capsys):
        assert cli([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli(["backward", "--config", str(tmp_path / "nope.conf")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_config_line(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "modes 64\n")
        assert cli(["check-compat", "--config", conf]) == 1
        assert "key = value" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "modes = 16\n# tuned\npolcy.growth_thresh = 1e9\n")
        assert cli(["check-compat", "--config", conf]) == 1
        assert capsys.readouterr().err == f"error: {conf}:3: unknown config key 'polcy.growth_thresh'\n{USAGE}"

    def test_config_comments_and_override(self, tmp_path):
        conf = write_conf(tmp_path, "# heading\nmodes = 8\nmodes = 16 # later wins\n")
        cfg = parse_config(conf)
        assert cfg["modes"] == "16"

    def test_missing_required_key(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "modes = 16\nT = 1.0\n")
        assert cli(["backward", "--config", conf]) == 1
        assert "uT.path" in capsys.readouterr().err

    def test_import_leaves_scipy_unloaded(self):
        # a cold start pays only for numpy, and the boundary trace
        # surrogate computes its cosine transform without scipy
        code = ("import sys, heatfvp.cli; from heatfvp import boundary as bd; "
                "bd.trace_norm_surrogate(bd.BoundaryData.constant(1.0, -2.0, 0.5), 0.5); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert _fresh_python(code) == "[]"

    def test_import_loads_only_the_basis_modules(self):
        # `import heatfvp` binds DomainSpec and build_basis and loads what
        # they need, and no scipy; the CLI imports every module itself
        loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] in ('heatfvp', 'scipy')))"
        assert _fresh_python(f"import sys, heatfvp; {loaded}") == "['heatfvp', 'heatfvp.logspace', 'heatfvp.spectral']"
        package = Path(heatfvp.__file__).parent
        every = sorted(["heatfvp", *(f"heatfvp.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")])
        assert _fresh_python(f"import sys, heatfvp.cli; {loaded}") == str(every)

    # no subcommand loads scipy, and numpy.ma stays unloaded too: a first
    # plain np.unique would import it
    @pytest.mark.parametrize("sub", ["forward", "backward", "check-compat", "norms", "oracle-compare"])
    def test_config_subcommands_leave_scipy_unloaded(self, tmp_path, sub):
        basis, u0, T = inhom_files(tmp_path)
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        conf = write_conf(tmp_path, f"modes = 16\nT = {T!r}\nuT.path = uT.json\nu0.path = u0.json\n"
                                    "f.path = f.csv\ng.path = g.csv\n")
        argv = [sub, "--config", conf] + (["--fd-points", "31", "--steps", "16"] if sub == "oracle-compare" else [])
        assert _modules_after(argv) == "0 [] False"

    @pytest.mark.parametrize("sub", ["generator-lab", "instability-demo"])
    def test_other_subcommands_leave_scipy_unloaded(self, tmp_path, sub):
        (tmp_path / "a.mat").write_text(format_matrix(JORDAN))
        argv = {"generator-lab": ["generator-lab", "--matrix", str(tmp_path / "a.mat"), "--trials", "32"],
                "instability-demo": ["instability-demo", "--T", "0.1", "--jmax", "8"]}[sub]
        assert _modules_after(argv) == "0 [] False"


def _modules_after(argv):
    """Exit code of `cli(argv)` in a fresh interpreter, the scipy modules it
    loaded, and whether it loaded numpy.ma."""
    code = ("import contextlib, io, sys; from heatfvp.cli import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = cli({argv!r})\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), 'numpy.ma' in sys.modules)")
    return _fresh_python(code)


def _fresh_python(code):
    """stdout of `code` run in a new interpreter that imports this checkout."""
    src = str(Path(heatfvp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def _malformed_state(tmp_path, kind):
    """Config and state JSON for one bad input; returns the argument list."""
    conf = ["--config", str(tmp_path / "run.conf")]
    if kind.startswith("out-"):
        return _unwritable_destination(tmp_path, kind)
    if kind.startswith("non-utf8-"):
        # a Latin-1 byte that is not UTF-8
        if kind == "non-utf8-config":
            (tmp_path / "run.conf").write_bytes(b"# r\xe9glage\nmodes = 16\nT = 0.5\n")
            return ["norms", *conf]
        (tmp_path / "a.mat").write_bytes(b"2\n1 0 0 0\n0 0 1 0 # \xe9\n")
        return ["generator-lab", "--matrix", str(tmp_path / "a.mat"), "--trials", "4"]
    if kind.startswith("unknown-key="):
        # a misspelled key in an otherwise valid run: ignored, it would run
        # the default of the key it misses without a word
        (tmp_path / "u.json").write_text(sp.vec_to_json(decayed_instance(16)[1]))
        write_conf(tmp_path, f"modes = 16\nT = 0.5\nuT.path = u.json\nout.dir = out\n{kind[len('unknown-key='):]} = 8\n")
        return ["check-compat", *conf]
    if kind.startswith("policy."):
        # thresholds under which the membership ladder cannot give a verdict
        (tmp_path / "u.json").write_text(sp.vec_to_json(SpectralVec.from_coefficients(
            build_basis(DomainSpec("interval", (np.pi,), 16)), 1.0 / np.arange(1, 17))))
        policy = "".join(f"{key} = {value}\n" for key, value in (p.split("=") for p in kind.split(",")))
        write_conf(tmp_path, f"modes = 16\nT = 0.1\nuT.path = u.json\nout.dir = out\n{policy}")
        return ["check-compat", *conf]
    if kind.startswith("demo-length="):
        # eigenvalues beyond float64 range: (pi/L)^2 overflows at 1e-160, underflows at 1e200
        return ["instability-demo", "--T", "1", "--jmax", "3", "--length", kind[len("demo-length="):]]
    if kind == "rectangle-forward":
        # the interval is the one domain: domain.kind is an unknown key
        _rectangle_files(tmp_path, "out.dir = out\n")
        return ["forward", *conf]
    if kind.startswith("modes="):
        # a mode count that is no JSON integer is refused, never read as the configured 1
        u0 = SpectralVec.from_coefficients(build_basis(DomainSpec("interval", (np.pi,), 1)), [0.5])
        (tmp_path / "uT.json").write_text(sp.vec_to_json(u0).replace('"modes": 1', f'"modes": {kind[6:]}'))
        write_conf(tmp_path, "modes = 1\nT = 0.5\nuT.path = uT.json\n")
        return ["check-compat", *conf]
    if kind.startswith("lengths="):
        # a length that is no JSON number is refused, never read as the
        # configured length it would be coerced to
        value = json.loads(kind[8:])
        u0 = SpectralVec.from_coefficients(build_basis(DomainSpec("interval", (float(value),), 4)), [0.5] * 4)
        payload = json.loads(sp.vec_to_json(u0))
        payload["basis"]["lengths"] = [value]
        (tmp_path / "uT.json").write_text(json.dumps(payload))
        write_conf(tmp_path, f"domain.length = {float(value)!r}\nmodes = 4\nT = 0.5\nuT.path = uT.json\n")
        return ["check-compat", *conf]
    if kind == "huge-state-norms":
        # finite coefficients whose squared norms leave float64 range
        payload = {"basis": {"kind": "interval", "lengths": [np.pi], "modes": 16},
                   "coefficients": [[1e300, 0.0]] * 16}
        (tmp_path / "u0.json").write_text(json.dumps(payload))
        write_conf(tmp_path, "modes = 16\nT = 0.5\nu0.path = u0.json\n")
        return ["norms", *conf]
    if kind.startswith("overflowing-"):
        # finite u0 whose samples in trajectory.csv and whose norms
        # overflow, with or without f and g
        payload = {"basis": {"kind": "interval", "lengths": [np.pi], "modes": 8},
                   "coefficients": [[1.7e308, 0.0]] * 8}
        (tmp_path / "u0.json").write_text(json.dumps(payload))
        text = "modes = 8\nT = 0.01\nu0.path = u0.json\nout.dir = out\n"
        if kind.endswith("-fg"):
            ts = np.array([0.0, 0.01])
            basis = build_basis(DomainSpec("interval", (np.pi,), 8))
            (tmp_path / "f.csv").write_text(node_csv(dh.SourceTerm(basis, ts, np.ones((2, 8)))))
            (tmp_path / "g.csv").write_text(node_csv(bd.BoundaryData(ts, np.array([[0.0, 1.0], [1.0, 0.0]]))))
            text += "f.path = f.csv\ng.path = g.csv\n"
        write_conf(tmp_path, text)
        return [kind[len("overflowing-"):].removesuffix("-fg"), *conf]
    basis, u0 = decayed_instance(16)
    if kind.startswith("huge-lift-"):
        # finite boundary values whose lift forcing lambda_j w_j overflows
        (tmp_path / "u.json").write_text(sp.vec_to_json(u0))
        g = bd.BoundaryData(np.array([0.0, 0.05]), np.array([[0.0, 0.0], [1e308, -1e308]]))
        (tmp_path / "g.csv").write_text(node_csv(g))
        write_conf(tmp_path, "modes = 16\nT = 0.05\nu0.path = u.json\nuT.path = u.json\ng.path = g.csv\nout.dir = out\n")
        return [kind[len("huge-lift-"):], *conf]
    if kind.startswith("nan-") and kind.endswith("-time"):
        # a NaN node time in f.csv or g.csv
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        ts = np.array([0.0, 0.25, 0.5])
        series = {"f": dh.SourceTerm(basis, ts, np.ones((3, 16))), "g": bd.BoundaryData(ts, np.zeros((3, 2)))}
        which = "f" if kind == "nan-source-time" else "g"
        (tmp_path / f"{which}.csv").write_text(node_csv(series[which]).replace("\r\n0.25,", "\r\nnan,"))
        write_conf(tmp_path, f"modes = 16\nT = 0.5\nu0.path = u0.json\n{which}.path = {which}.csv\n")
        return ["forward", *conf]
    payload = json.loads(sp.vec_to_json(u0))
    T = "0.5"
    if kind == "deeply-nested":
        # nested past what the JSON parser can descend: no RecursionError traceback
        (tmp_path / "uT.json").write_text("[" * 100_000 + "]" * 100_000)
        write_conf(tmp_path, "modes = 16\nT = 0.5\nuT.path = uT.json\n")
        return ["check-compat", *conf]
    if kind.startswith("missing-"):
        del payload["basis"][kind[len("missing-"):]]
    elif kind.startswith("T="):
        T = kind[2:]
    elif kind.endswith("-coefficient"):
        payload["coefficients"][3][0] = float(kind[: -len("-coefficient")])
    elif kind.startswith("pair="):
        # a coefficient pair that is no two numbers in float64 range: refused,
        # never read as 1 + 0j or left to overflow in a conversion
        payload["coefficients"][3] = {"bools": [True, False], "huge-int": [10 ** 400, 0]}[kind[5:]]
    (tmp_path / "uT.json").write_text(json.dumps(payload))
    length = kind.split("=")[1] if "length=" in kind else "3.141592653589793"
    write_conf(tmp_path, f"domain.length = {length}\nmodes = 16\nT = {T}\nuT.path = uT.json\nu0.path = uT.json\n")
    return ["norms" if kind.startswith("norms-") else "check-compat", *conf]


def _rectangle_files(tmp_path, extra=""):
    """A rectangle state and config, written by hand as no DomainSpec holds them."""
    payload = {"basis": {"kind": "rectangle", "lengths": [np.pi, np.pi], "modes": 4},
               "coefficients": [[float(np.exp(-k)), 0.0] for k in range(16)]}
    (tmp_path / "u0.json").write_text(json.dumps(payload))
    return write_conf(tmp_path, "domain.kind = rectangle\ndomain.length = 3.141592653589793,3.141592653589793\n"
                                f"modes = 4\nT = 0.5\nu0.path = u0.json\n{extra}")


def _unwritable_destination(tmp_path, kind):
    """A run whose output goes to an existing file named "taken", to a path
    under it, or to the existing directory "out"; returns the argument list."""
    (tmp_path / "taken").write_text("")
    (tmp_path / "out").mkdir()
    sub = kind.removeprefix("out-dir-").removeprefix("out-under-file-").removeprefix("out-is-dir-")
    if sub in ("generator-lab", "instability-demo"):
        dest = tmp_path / "out" if kind.startswith("out-is-dir-") else tmp_path / "taken" / "result"
        if sub == "generator-lab":
            (tmp_path / "a.mat").write_text(format_matrix(np.diag([1.0, 2.0])))
            return [sub, "--matrix", str(tmp_path / "a.mat"), "--trials", "4", "--out", str(dest)]
        return [sub, "--T", "0.1", "--jmax", "8", "--out", str(dest)]
    # out.dir names the file
    (tmp_path / "u.json").write_text(sp.vec_to_json(decayed_instance(16)[1]))
    conf = write_conf(tmp_path, "modes = 16\nT = 0.5\nu0.path = u.json\nuT.path = u.json\nout.dir = taken\n")
    return [sub, "--config", conf]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("kind", [
    "rectangle-forward",
    "missing-kind", "missing-lengths", "missing-modes",
    "T=nan", "T=inf", "T=0", "T=x",
    "nan-coefficient", "inf-coefficient", "pair=bools", "pair=huge-int", "deeply-nested",
    "modes=1e999", "modes=1.5", 'modes="1"', "modes=true", 'lengths="3.141592653589793"', "lengths=true",
    "huge-state-norms",
    "length=1e-160", "length=1e200", "norms-length=1e-160", "norms-length=1e200",
    "demo-length=1e-160", "demo-length=1e200",
    "nan-source-time", "nan-boundary-time",
    "huge-lift-forward", "huge-lift-check-compat", "huge-lift-backward",
    "overflowing-forward", "overflowing-forward-fg", "overflowing-norms", "overflowing-oracle-compare",
    "out-dir-forward", "out-dir-check-compat", "out-dir-norms",
    "out-under-file-generator-lab", "out-is-dir-generator-lab",
    "out-under-file-instability-demo", "out-is-dir-instability-demo",
    "non-utf8-config", "non-utf8-matrix",
    "policy.rtol_compat=nan", "policy.rtol_compat=-1", "policy.growth_thresh=nan", "policy.growth_thresh=-1",
    "policy.growth_thresh=1", "policy.rtol_compat=inf,policy.growth_thresh=inf", "policy.cutoffs=a",
    "unknown-key=modez", "unknown-key=polcy.growth_thresh", "unknown-key=tgrid.node", "unknown-key=__dir__",
    "unknown-key=domain.kind", "length=1.0,2.0",
])
def test_malformed_input_is_one_line_error(tmp_path, capsys, kind):
    argv = _malformed_state(tmp_path, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    # one line: a data error is not followed by the usage text; a config
    # value that does not parse and an unknown key are usage errors
    usage = (kind in ("T=x", "policy.cutoffs=a", "rectangle-forward", "length=1.0,2.0")
             or kind.startswith("unknown-key="))
    assert out.err.splitlines()[1:] == (USAGE.splitlines() if usage else [])
    assert out.err.startswith("error:")
    # every output is formed before any is written
    assert not list((tmp_path / "out").glob("*"))
    if kind.startswith(("out-", "non-utf8-")):
        # the error names the file or directory that could not be used
        assert str(tmp_path) in out.err


# every subcommand that reads a state JSON, with the keys it reads
STATE_READERS = [("forward", "u0.path"), ("backward", "uT.path"), ("backward-inhom", "uT.path"),
                 ("check-compat", "uT.path"), ("norms", "uT.path"), ("norms", "u0.path"), ("oracle-compare", "u0.path")]
BAD_PAIRS = {"nonzero-im": [0.25, 1e-300], "bool-pair": [True, False], "huge-int": [10 ** 400, 0]}
REFUSALS = [pytest.param(case, sub, key, id=f"{case}-{sub}-{key}") for case in BAD_PAIRS for sub, key in STATE_READERS]
REFUSALS += [pytest.param("source-nonzero-im", sub, "f.path", id=f"source-nonzero-im-{sub}")
             for sub in dict(STATE_READERS)]


@pytest.mark.parametrize("case,sub,key", REFUSALS)
def test_refused_inputs_are_one_line_errors_on_every_reader(tmp_path, capsys, case, sub, key):
    """Each input form that is no real coefficient, run with every
    subcommand that reads its file: a state JSON pair with an im that is not
    0, a bool or an int past float64 range, and a source CSV with a nonzero
    mode_j_im.  A complex value is never cast to its real part."""
    basis, u0 = decayed_instance(16)
    payload = json.loads(sp.vec_to_json(u0))
    text = "modes = 16\nT = 0.5\nu0.path = good.json\nuT.path = good.json\nout.dir = out\n"
    (tmp_path / "good.json").write_text(sp.vec_to_json(u0))
    if case in BAD_PAIRS:
        payload["coefficients"][3] = BAD_PAIRS[case]
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        text += f"{key} = bad.json\n"
    else:
        rows = node_csv(dh.SourceTerm(basis, np.array([0.0, 0.5]), np.ones((2, 16)))).split("\r\n")
        fields = rows[2].split(",")
        fields[4] = "0.5"  # mode_2_im at t = 0.5
        rows[2] = ",".join(fields)
        (tmp_path / "f.csv").write_text("\r\n".join(rows))
        text += "f.path = f.csv\n"
    argv = [sub, "--config", write_conf(tmp_path, text)]
    if sub == "oracle-compare":
        argv += ["--fd-points", "33", "--steps", "8"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and len(out.err.splitlines()) == 1 and out.err.startswith("error:")
    assert ("imaginary" in out.err) == (case in ("nonzero-im", "source-nonzero-im"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("T", ["1e307", "1.7e308"])
@pytest.mark.parametrize("command", ["forward", "backward", "check-compat", "norms"])
def test_horizon_past_the_basis_is_one_line_error(tmp_path, capsys, command, T):
    # finite and positive, but 2 T lambda_16 leaves float64 range: refused
    # before any verdict or norm is formed, so no warning and no JSON
    basis, u0 = decayed_instance(16)
    (tmp_path / "u.json").write_text(sp.vec_to_json(u0))
    conf = write_conf(tmp_path, f"modes = 16\nT = {T}\nuT.path = u.json\nu0.path = u.json\nout.dir = out\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli([command, "--config", conf])
    out = capsys.readouterr()
    assert rc == 1
    assert out.out == ""
    assert out.err == "error: horizon T is too long for this basis: 2 T lambda_N leaves float64 range\n"


@pytest.mark.parametrize("command, modes", [("instability-demo", 10 ** 12), ("check-compat", 10 ** 11)])
def test_out_of_memory_is_one_line_error(tmp_path, capsys, monkeypatch, command, modes):
    # a mode count past what memory holds; the refusal is simulated, so the
    # suite never asks the system for the memory
    def refuse(spec):
        raise MemoryError(f"Unable to allocate {8 * spec.modes} bytes for an array with shape ({spec.modes},)")

    monkeypatch.setattr("heatfvp.cli.build_basis", refuse)
    if command == "instability-demo":
        argv = [command, "--T", "1", "--jmax", str(modes)]
    else:
        (tmp_path / "u.json").write_text(sp.vec_to_json(decayed_instance(16)[1]))
        argv = [command, "--config", write_conf(tmp_path, f"modes = {modes}\nT = 1\nuT.path = u.json\n")]
    assert cli(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: Unable to allocate {8 * modes} bytes for an array with shape ({modes},)\n"


class TestForward:
    def test_pure_decay_run(self, tmp_path, capsys):
        basis, u0 = decayed_instance(16)
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        conf = write_conf(
            tmp_path, "modes = 16\nT = 1.0\nu0.path = u0.json\nout.dir = out\n"
        )
        assert cli(["forward", "--config", conf]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"T", "modes", "final_norm", "nodes"}
        assert summary["modes"] == 16
        assert summary["nodes"] == 33

        final = sp.vec_from_json(
            (tmp_path / "out" / "final_state.json").read_text(), basis
        )
        want = u0.scale_log(-basis.lambdas)
        assert sp.rel_distance(final, want) < 1e-14
        assert (tmp_path / "out" / "trajectory.csv").is_file()

    def test_boundary_run_traces_exact_in_csv(self, tmp_path, capsys):
        basis, u0 = decayed_instance(16)
        T = 0.5
        g = bd.BoundaryData(
            np.array([0.0, T]), np.array([[0.0, 0.0], [0.3, -0.2]])
        )
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        (tmp_path / "g.csv").write_text(node_csv(g))
        conf = write_conf(
            tmp_path,
            "modes = 16\nT = 0.5\nu0.path = u0.json\ng.path = g.csv\n"
            "out.dir = out\ntgrid.nodes = 9\n",
        )
        assert cli(["forward", "--config", conf]) == 0
        capsys.readouterr()
        rows = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
        final_rows = [r for r in rows[1:] if r.startswith("0.5,")]
        first = [float(v) for v in final_rows[0].split(",")]
        last = [float(v) for v in final_rows[-1].split(",")]
        assert first[1] == 0.0 and first[2] == pytest.approx(0.3, abs=1e-12)
        assert last[1] == pytest.approx(np.pi) and last[2] == pytest.approx(-0.2, abs=1e-12)

    @pytest.mark.parametrize("sub", ["forward", "norms"])
    def test_source_past_T_stops_at_T(self, tmp_path, capsys, sub):
        # the source grid runs to 2T and has no node at T; the default grid
        # is its nodes in [0, T] plus T
        basis, u0 = decayed_instance(16)
        ts = np.array([0.0, 0.3, 0.7, 1.4, 2.0])
        f = dh.SourceTerm(basis, ts, np.outer(np.linspace(1.0, 0.2, ts.size), np.exp(-0.1 * basis.lambdas)))
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        (tmp_path / "f.csv").write_text(node_csv(f))
        conf = write_conf(tmp_path, "modes = 16\nT = 1.0\nu0.path = u0.json\nf.path = f.csv\nout.dir = out\n")
        assert cli([sub, "--config", conf]) == 0
        out = json.loads(capsys.readouterr().out)
        want = dh.solve_cauchy(u0, f, np.array([0.0, 0.3, 0.7, 1.0]))
        if sub == "norms":
            assert out["solution_norm"] == dh.solution_norm(want)
            return
        assert out["T"] == 1.0 and out["nodes"] == 4
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        assert sorted({float(r.split(",")[0]) for r in rows}) == [0.0, 0.3, 0.7, 1.0]
        final = (tmp_path / "out" / "final_state.json").read_text()
        assert final == sp.vec_to_json(want.final_state)

    @pytest.mark.parametrize("sub, data, s", _in_units_params("forward", "norms", "oracle-compare"))
    def test_source_short_of_T_is_refused(self, tmp_path, capsys, sub, data, s):
        # every subcommand refuses data short of T with the backward
        # pipeline's message, before it solves anything, in any units:
        # length times s, times times s^2
        basis, u0 = decayed_instance(16, length=np.pi * s)
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        if data == "source":
            f = dh.SourceTerm(basis, np.array([0.0, 0.5 * s * s]), np.ones((2, 16)))
            (tmp_path / "f.csv").write_text(node_csv(f))
            key = "f.path = f.csv"
        else:
            (tmp_path / "g.csv").write_text(node_csv(bd.BoundaryData.constant(1.0, 0.0, 0.5 * s * s)))
            key = "g.path = g.csv"
        conf = write_conf(tmp_path, f"modes = 16\ndomain.length = {np.pi * s!r}\nT = {s * s!r}\nu0.path = u0.json\n{key}\n")
        assert cli([sub, "--config", conf]) == 1
        assert capsys.readouterr().err == f"error: {data} grid must cover [0, T]\n"

    @pytest.mark.parametrize("sub, data, s", _in_units_params("forward", "norms", "backward"))
    def test_data_starting_after_0_is_refused(self, tmp_path, capsys, sub, data, s):
        # data on [0.02, 0.05] with T = 0.05 end at T but leave [0, 0.02)
        # uncovered: refused with the same message, before any solve, in
        # any units
        basis, u0 = decayed_instance(16, length=np.pi * s)
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        (tmp_path / "uT.json").write_text(sp.vec_to_json(u0))
        ts = np.array([0.02, 0.05]) * (s * s)
        if data == "source":
            (tmp_path / "f.csv").write_text(node_csv(dh.SourceTerm(basis, ts, np.ones((2, 16)))))
            key = "f.path = f.csv"
        else:
            (tmp_path / "g.csv").write_text(node_csv(bd.BoundaryData(ts, np.ones((2, 2)))))
            key = "g.path = g.csv"
        conf = write_conf(tmp_path, f"modes = 16\ndomain.length = {np.pi * s!r}\nT = {0.05 * s * s!r}\n"
                                    f"u0.path = u0.json\nuT.path = uT.json\n{key}\n")
        assert cli([sub, "--config", conf]) == 1
        assert capsys.readouterr().err == f"error: {data} grid must cover [0, T]\n"


class TestBackward:
    def test_round_trip(self, tmp_path, capsys):
        basis, u0 = decayed_instance(64)
        uT = u0.scale_log(-basis.lambdas)
        (tmp_path / "uT.json").write_text(sp.vec_to_json(uT))
        conf = write_conf(
            tmp_path, "modes = 64\nT = 1.0\nuT.path = uT.json\nout.dir = out\n"
        )
        assert cli(["backward", "--config", conf]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verdict"] == "compatible"
        assert summary["endpoint_rel_error"] < 1e-12

        out = tmp_path / "out"
        got = sp.vec_from_json((out / "u0.json").read_text(), basis)
        assert sp.rel_distance(got, u0) < 1e-9
        assert json.loads((out / "compat.json").read_text())["verdict"] == "compatible"
        assert json.loads((out / "ynorm.json").read_text())["finite"] is True
        assert (out / "trajectory.csv").is_file()

    def test_incompatible_exits_2_with_report(self, tmp_path, capsys):
        basis = build_basis(DomainSpec("interval", (np.pi,), 64))
        rough = SpectralVec.from_coefficients(basis, 1.0 / np.arange(1, 65))
        (tmp_path / "uT.json").write_text(sp.vec_to_json(rough))
        conf = write_conf(
            tmp_path, "modes = 64\nT = 1.0\nuT.path = uT.json\nout.dir = out\n"
        )
        assert cli(["backward", "--config", conf]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "incompatible"
        # a refused backward run writes no file and makes no directory
        assert not (tmp_path / "out").exists()

    def test_source_past_T_replays_to_T(self, tmp_path, capsys):
        # the source grid runs to 2T; the trajectory and the endpoint check
        # stop at T
        basis, u0 = decayed_instance(64)
        f = dh.SourceTerm(basis, np.linspace(0.0, 2.0, 9), np.outer(np.linspace(1.0, 0.2, 9), np.exp(-basis.lambdas)))
        uT = dh.solve_cauchy(u0, f, np.array([0.0, 1.0])).final_state
        (tmp_path / "uT.json").write_text(sp.vec_to_json(uT))
        (tmp_path / "f.csv").write_text(node_csv(f))
        conf = write_conf(
            tmp_path, "modes = 64\nT = 1.0\nuT.path = uT.json\nf.path = f.csv\nout.dir = out\n"
        )
        assert cli(["backward", "--config", conf]) == 0
        assert json.loads(capsys.readouterr().out)["endpoint_rel_error"] < 1e-12
        rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        assert sorted({float(r.split(",")[0]) for r in rows}) == [0.0, 0.25, 0.5, 0.75, 1.0]
        got = sp.vec_from_json((tmp_path / "out" / "u0.json").read_text(), basis)
        assert sp.rel_distance(got, u0) < 1e-6

    def test_deterministic_outputs(self, tmp_path, capsys):
        basis, u0 = decayed_instance(64)
        uT = u0.scale_log(-basis.lambdas)
        (tmp_path / "uT.json").write_text(sp.vec_to_json(uT))
        outs = []
        for name in ("out_a", "out_b"):
            conf = write_conf(
                tmp_path,
                f"modes = 64\nT = 1.0\nuT.path = uT.json\nout.dir = {name}\n",
                name=f"{name}.conf",
            )
            assert cli(["backward", "--config", conf]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        for fname in ("u0.json", "trajectory.csv", "compat.json", "ynorm.json"):
            a = (tmp_path / "out_a" / fname).read_bytes()
            b = (tmp_path / "out_b" / fname).read_bytes()
            assert a == b


class TestBackwardInhom:
    def test_round_trip(self, tmp_path, capsys):
        basis, u0, T = inhom_files(tmp_path)
        conf = write_conf(
            tmp_path,
            "modes = 16\nT = 0.05\nuT.path = uT.json\nf.path = f.csv\n"
            "g.path = g.csv\nout.dir = out\n",
        )
        assert cli(["backward-inhom", "--config", conf]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verdict"] == "compatible"
        assert summary["endpoint_rel_error"] < 1e-10

        got = sp.vec_from_json((tmp_path / "out" / "u0.json").read_text(), basis)
        assert sp.rel_distance(got, u0) < 1e-9
        ynorm = json.loads((tmp_path / "out" / "ynorm.json").read_text())
        assert {"uT_sq", "trace_sq", "source_sq"} <= set(ynorm)

    def test_backward_reads_boundary_data(self, tmp_path, capsys):
        # one command under two names: the same verdict and the same bytes
        inhom_files(tmp_path)
        stdout = {}
        for sub in ("backward", "backward-inhom", "check-compat"):
            conf = write_conf(
                tmp_path,
                "modes = 16\nT = 0.05\nuT.path = uT.json\nf.path = f.csv\n"
                f"g.path = g.csv\nout.dir = {sub}\n",
                name=f"{sub}.conf",
            )
            assert cli([sub, "--config", conf]) == 0
            stdout[sub] = capsys.readouterr().out
        assert stdout["backward"] == stdout["backward-inhom"]
        for fname in ("u0.json", "trajectory.csv", "compat.json", "ynorm.json"):
            a = (tmp_path / "backward" / fname).read_bytes()
            assert a == (tmp_path / "backward-inhom" / fname).read_bytes()
        compat = (tmp_path / "backward" / "compat.json").read_bytes()
        assert compat == (tmp_path / "check-compat" / "compat.json").read_bytes()


class TestCheckCompat:
    def test_compatible_exit_0(self, tmp_path, capsys):
        basis, u0 = decayed_instance(64)
        uT = u0.scale_log(-basis.lambdas)
        (tmp_path / "uT.json").write_text(sp.vec_to_json(uT))
        conf = write_conf(
            tmp_path, "modes = 64\nT = 1.0\nuT.path = uT.json\nout.dir = out\n"
        )
        assert cli(["check-compat", "--config", conf]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "compatible"
        on_disk = json.loads((tmp_path / "out" / "compat.json").read_text())
        assert on_disk == report

    def test_rough_state_exit_2(self, tmp_path, capsys):
        basis = build_basis(DomainSpec("interval", (np.pi,), 64))
        rough = SpectralVec.from_coefficients(basis, 1.0 / np.arange(1, 65))
        (tmp_path / "uT.json").write_text(sp.vec_to_json(rough))
        conf = write_conf(tmp_path, "modes = 64\nT = 1.0\nuT.path = uT.json\nout.dir = out\n")
        assert cli(["check-compat", "--config", conf]) == 2
        stdout = capsys.readouterr().out
        report = json.loads(stdout)
        assert report["verdict"] == "incompatible"
        assert {"cutoffs", "log_graph_norms", "stabilization_ratio"} <= set(report)
        # the refused verdict is still written where out.dir asks
        assert (tmp_path / "out" / "compat.json").read_text() + "\n" == stdout

    def test_policy_overrides_accepted(self, tmp_path, capsys):
        # at 16 modes the truncation ladder of this tail stabilizes only to
        # ~2e-4, so the default tolerance says inconclusive; loosening it
        # through the config must flip the verdict
        basis, u0 = decayed_instance(16)
        uT = u0.scale_log(-basis.lambdas)
        (tmp_path / "uT.json").write_text(sp.vec_to_json(uT))
        base = "modes = 16\nT = 1.0\nuT.path = uT.json\n"
        strict = write_conf(tmp_path, base, name="strict.conf")
        assert cli(["check-compat", "--config", strict]) == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"

        loose = write_conf(
            tmp_path,
            base + "policy.rtol_compat = 1e-3\npolicy.cutoffs = 2,4,8,16\n",
            name="loose.conf",
        )
        assert cli(["check-compat", "--config", loose]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "compatible"
        assert report["cutoffs"] == [2, 4, 8, 16]


class TestNorms:
    def test_both_reports(self, tmp_path, capsys):
        basis, u0 = decayed_instance(64)
        uT = u0.scale_log(-basis.lambdas)
        (tmp_path / "uT.json").write_text(sp.vec_to_json(uT))
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        conf = write_conf(
            tmp_path,
            "modes = 64\nT = 1.0\nuT.path = uT.json\nu0.path = u0.json\nout.dir = out\n",
        )
        assert cli(["norms", "--config", conf]) == 0
        stdout = capsys.readouterr().out
        reports = json.loads(stdout)
        assert set(reports) == {"data_norm", "energy", "solution_norm"}
        assert reports["energy"]["ok"] is True
        assert reports["energy"]["lhs"] < reports["energy"]["rhs"]
        assert reports["solution_norm"] > 0
        assert (tmp_path / "out" / "norms.json").read_text() == stdout.strip()

    def test_huge_final_data_keep_a_finite_log_norm(self, tmp_path, capsys):
        # |u_T|^2 leaves float64 range and reads inf; the log of the data
        # norm takes that part from the log of |u_T| and stays finite
        basis = build_basis(DomainSpec("interval", (np.pi,), 16))
        uT = SpectralVec.from_coefficients(basis, np.full(16, 1e300))
        (tmp_path / "uT.json").write_text(sp.vec_to_json(uT))
        conf = write_conf(tmp_path, "modes = 16\nT = 0.1\nuT.path = uT.json\n")
        assert cli(["norms", "--config", conf]) == 0
        report = json.loads(capsys.readouterr().out)["data_norm"]
        assert report["uT_sq"] == "inf"
        assert report["log_total"] == bd.data_norm_inhom(None, None, uT, 0.1, policy=None).log_total
        assert sp.triple_norms(uT).log_normH < report["log_total"] < 1e3

    def test_requires_some_input(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "modes = 16\nT = 1.0\n")
        assert cli(["norms", "--config", conf]) == 1
        assert "uT.path or u0.path" in capsys.readouterr().err


class TestOracleCompare:
    def test_second_order_agreement(self, tmp_path, capsys):
        basis = build_basis(DomainSpec("interval", (np.pi,), 16))
        rng = np.random.default_rng(42)
        j = np.arange(1, 17)
        u0 = SpectralVec.from_coefficients(
            basis, rng.choice([-1.0, 1.0], 16) * np.exp(-2.2 * j)
        )
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        conf = write_conf(
            tmp_path, "modes = 16\nT = 0.5\nu0.path = u0.json\nout.dir = out\n"
        )
        rc = cli(["oracle-compare", "--config", conf,
                  "--fd-points", "31", "--steps", "16"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coarse_rel_error"] < 1e-2
        assert report["fine_rel_error"] < report["coarse_rel_error"]
        assert report["refinement_ratio"] > 3.5
        assert (tmp_path / "out" / "oracle_compare.json").is_file()

    def test_default_fd_points_resolve_every_mode(self, tmp_path, capsys):
        # 127 points alias 128 modes; the default grows with the basis
        basis, u0 = decayed_instance(128)
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        conf = write_conf(tmp_path, "modes = 128\nT = 0.5\nu0.path = u0.json\n")
        assert cli(["oracle-compare", "--config", conf]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fd_points"] == 257
        assert report["refinement_ratio"] >= 3.5

    def test_rectangle_rejected(self, tmp_path, capsys):
        conf = _rectangle_files(tmp_path)
        assert cli(["oracle-compare", "--config", conf]) == 1
        assert "unknown config key 'domain.kind'" in capsys.readouterr().err

    def test_even_fd_points_refused(self, tmp_path, capsys):
        # an even point count gives the coarse grid an odd panel count,
        # which the Simpson projection cannot take
        basis, u0 = decayed_instance(16)
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        conf = write_conf(tmp_path, "modes = 16\nT = 0.5\nu0.path = u0.json\n")
        assert cli(["oracle-compare", "--config", conf, "--fd-points", "128"]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: --fd-points must be odd, got 128"]
        assert "Traceback" not in err


class TestInstabilityDemo:
    def test_stdout_table(self, capsys):
        assert cli(["instability-demo", "--T", "1.0", "--jmax", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "j,lambda,final_norm,log_initial_norm"
        assert len(lines) == 9
        for line in lines[1:]:
            j_s, lam_s, fn_s, log_s = line.split(",")
            lam = (int(j_s) * np.pi / np.pi) ** 2
            assert float(lam_s) == pytest.approx(lam, rel=1e-12)
            assert float(fn_s) == 1.0
            assert float(log_s) == pytest.approx(1.0 * lam, rel=1e-12)

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "sub" / "table.csv"
        rc = cli(["instability-demo", "--T", "0.5", "--jmax", "4",
                  "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        assert out.read_text().startswith("j,lambda")

    def test_bad_arguments(self, capsys):
        assert cli(["instability-demo", "--T", "-1.0", "--jmax", "8"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("T", ["1e307", "1.7e308"])
    def test_horizon_past_the_basis_is_one_line_error(self, capsys, T):
        # T lambda_j of the later rows would be inf: refused before any row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli(["instability-demo", "--T", T, "--jmax", "16"])
        out = capsys.readouterr()
        assert rc == 1
        assert out.out == ""
        assert out.err == "error: horizon T is too long for this basis: 2 T lambda_N leaves float64 range\n"


class TestGeneratorLab:
    def test_selfadjoint_report(self, tmp_path, capsys):
        (tmp_path / "diag.mat").write_text(format_matrix(np.diag([1.0, 2.0])))
        out = tmp_path / "report.json"
        rc = cli(["generator-lab", "--matrix", str(tmp_path / "diag.mat"),
                  "--trials", "32", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        report = json.loads(stdout)
        assert set(report) == {"classification", "sectoriality", "injectivity",
                               "logconvexity", "inverse_chain", "decay"}
        assert report["classification"]["selfadjoint"] is True
        assert report["classification"]["decay_rate"] == 1.0
        assert report["logconvexity"]["criterion_fraction"] == 1.0
        assert report["inverse_chain"]["max_ratio"] <= 0.5 * (1 + 1e-12)
        assert report["decay"]["ok"] is True
        assert report["injectivity"]["all_positive"] is True
        assert out.read_text() == stdout.strip()

    def test_missing_matrix_file(self, tmp_path, capsys):
        rc = cli(["generator-lab", "--matrix", str(tmp_path / "none.mat")])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_matrix(self, tmp_path, capsys):
        (tmp_path / "bad.mat").write_text("2\n1.0 0.0\n")
        rc = cli(["generator-lab", "--matrix", str(tmp_path / "bad.mat")])
        assert rc == 1
        capsys.readouterr()

    def test_non_numeric_entry_is_one_line_error(self, tmp_path, capsys):
        (tmp_path / "bad.mat").write_text("2\n1 0 abc 0\n0 0 1 0\n")
        rc = cli(["generator-lab", "--matrix", str(tmp_path / "bad.mat")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_zero_matrix_reports_a_finite_sup(self, tmp_path, capsys):
        (tmp_path / "zero.mat").write_text("2\n0 0 0 0\n0 0 0 0\n")
        rc = cli(["generator-lab", "--matrix", str(tmp_path / "zero.mat"), "--trials", "32"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["sectoriality"]["sup_value"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("entry, err", [
        ("1e306", "error: ||A|| * 1e3 exceeds float64 range: the sector radii cannot be formed\n"),
        ("1e200", "error: ||A||^2 exceeds float64 range: the criterion margins cannot be formed\n"),
        ("1e10", "error: |e^{-tA} x| underflows to 0 at t = 0.001: its logarithm is undefined\n"),
        ("-1e10", "error: e^{-tA} overflows float64 at t = 0.1\n"),
    ], ids=["1e306", "1e200", "1e10", "-1e10"])
    def test_entries_out_of_range_are_one_line_errors(self, tmp_path, capsys, entry, err):
        # each is refused before numpy can warn: a warning here raises, and
        # would end the run in a traceback
        (tmp_path / "big.mat").write_text(f"2\n{entry} 0 0 0\n0 0 1 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli(["generator-lab", "--matrix", str(tmp_path / "big.mat"), "--trials", "32"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    def test_stiff_decay_reports_finite_norms_without_warnings(self, tmp_path, capsys):
        # e^{-10 A} x has entries near e^{500}: their squares overflow, the norms do not
        (tmp_path / "stiff.mat").write_text("2\n-50 0 0 0\n0 0 1 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli(["generator-lab", "--matrix", str(tmp_path / "stiff.mat")])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        # strict JSON with no "inf" string: every number is finite
        json.loads(captured.out, parse_constant=_reject_constant)
        assert "inf" not in captured.out

    def test_negative_seed_is_one_line_error(self, tmp_path, capsys):
        (tmp_path / "diag.mat").write_text(format_matrix(np.diag([1.0, 2.0])))
        rc = cli(["generator-lab", "--matrix", str(tmp_path / "diag.mat"), "--seed", "-1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "seed" in captured.err
        assert captured.out == ""
