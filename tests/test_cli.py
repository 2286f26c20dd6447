"""End-to-end tests for the command-line driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heatfvp
from heatfvp import boundary as bd
from heatfvp import duhamel as dh
from heatfvp import generator as gl
from heatfvp import spectral as sp
from heatfvp.cli import cli, parse_config
from heatfvp.spectral import DomainSpec, SpectralVec, build_basis


def write_conf(tmp_path, text, name="run.conf"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def decayed_instance(n_modes, seed=7):
    basis = build_basis(DomainSpec("interval", (np.pi,), n_modes))
    rng = np.random.default_rng(seed)
    j = np.arange(1, n_modes + 1)
    u0 = SpectralVec.from_coefficients(
        basis, rng.choice([-1.0, 1.0], n_modes) * np.exp(-j)
    )
    return basis, u0


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
    (tmp_path / "f.csv").write_text(f.to_csv())
    (tmp_path / "g.csv").write_text(g.to_csv())
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

    def test_config_comments_and_override(self, tmp_path):
        conf = write_conf(tmp_path, "# heading\nmodes = 8\nmodes = 16 # later wins\n")
        cfg = parse_config(conf)
        assert cfg["modes"] == "16"

    def test_missing_required_key(self, tmp_path, capsys):
        conf = write_conf(tmp_path, "modes = 16\nT = 1.0\n")
        assert cli(["backward", "--config", conf]) == 1
        assert "uT.path" in capsys.readouterr().err

    def test_import_leaves_scipy_unloaded(self):
        # a cold start pays only for numpy; scipy loads where it is called,
        # and the boundary trace surrogate does not call it
        src = str(Path(heatfvp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, heatfvp.cli; from heatfvp import boundary as bd; "
                "bd.trace_norm_surrogate(bd.BoundaryData.constant(1.0, -2.0, 0.5)); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


def _malformed_state(tmp_path, kind):
    """Config and state JSON for one bad input; returns the subcommand."""
    if kind == "rectangle-forward":
        basis = build_basis(DomainSpec("rectangle", (np.pi, np.pi), 4))
        u0 = SpectralVec.from_coefficients(basis, np.exp(-np.arange(16.0)))
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        write_conf(tmp_path, "domain.kind = rectangle\ndomain.length = 3.141592653589793,3.141592653589793\n"
                             "modes = 4\nT = 0.5\nu0.path = u0.json\nout.dir = out\n")
        return "forward"
    if kind == "huge-state-norms":
        # finite coefficients whose squared norms leave float64 range
        payload = {"basis": {"kind": "interval", "lengths": [np.pi], "modes": 16},
                   "coefficients": [[1e300, 0.0]] * 16}
        (tmp_path / "u0.json").write_text(json.dumps(payload))
        write_conf(tmp_path, "modes = 16\nT = 0.5\nu0.path = u0.json\n")
        return "norms"
    basis, u0 = decayed_instance(16)
    payload = json.loads(sp.vec_to_json(u0))
    T = "0.5"
    if kind.startswith("missing-"):
        del payload["basis"][kind[len("missing-"):]]
    elif kind.startswith("T="):
        T = kind[2:]
    elif kind.endswith("-coefficient"):
        payload["coefficients"][3][0] = float(kind[: -len("-coefficient")])
    (tmp_path / "uT.json").write_text(json.dumps(payload))
    write_conf(tmp_path, f"modes = 16\nT = {T}\nuT.path = uT.json\n")
    return "check-compat"


@pytest.mark.parametrize("kind", [
    "rectangle-forward",
    "missing-kind", "missing-lengths", "missing-modes",
    "T=nan", "T=inf", "T=0",
    "nan-coefficient", "inf-coefficient",
    "huge-state-norms",
])
def test_malformed_input_is_one_line_error(tmp_path, capsys, kind):
    sub = _malformed_state(tmp_path, kind)
    assert cli([sub, "--config", str(tmp_path / "run.conf")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert len([ln for ln in out.err.splitlines() if ln.startswith("error:")]) == 1


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
        (tmp_path / "g.csv").write_text(g.to_csv())
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
        assert not (tmp_path / "out" / "u0.json").exists()

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
        conf = write_conf(tmp_path, "modes = 64\nT = 1.0\nuT.path = uT.json\n")
        assert cli(["check-compat", "--config", conf]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "incompatible"
        assert {"cutoffs", "log_graph_norms", "stabilization_ratio"} <= set(report)

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
        basis = build_basis(DomainSpec("rectangle", (np.pi, np.pi), 4))
        u0 = SpectralVec.from_coefficients(basis, np.exp(-np.arange(16.0)))
        (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
        conf = write_conf(
            tmp_path,
            "domain.kind = rectangle\ndomain.length = 3.141592653589793,3.141592653589793\n"
            "modes = 4\nT = 0.5\nu0.path = u0.json\n",
        )
        assert cli(["oracle-compare", "--config", conf]) == 1
        assert "interval-only" in capsys.readouterr().err


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


class TestGeneratorLab:
    def test_selfadjoint_report(self, tmp_path, capsys):
        (tmp_path / "diag.mat").write_text(gl.format_matrix(np.diag([1.0, 2.0])))
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
