"""Bit-for-bit goldens of the sine transforms and of the CLI outputs.

The hashes were recorded before the sine tables, the node-series grids and
the config loading were folded into one implementation each; any change of
rounding in those paths shows up here as a changed digest.  The interval
`project-samples` digests and the `oracle-compare` outputs were re-recorded
when projection became one DST-I and the oracle a DST-diagonalized
theta-scheme, after `project_samples` agreed with the sine-table formula to
1e-13 and `fd_solve` with the banded solve to 1e-12 and with a 40-digit
theta-scheme to 1e-13 (tests/test_spectral.py, tests/test_fdoracle.py).
The `analyze-*` and `synthesize-default*` digests were re-recorded when
`analyze` and the default-grid `synthesize` became one sine transform per
axis, after both agreed with the sine-table formula to 1e-13 on the
interval and the rectangle (measured <= 2.4e-14).  The `synthesize-points`,
`project-samples` and `mode-values` digests and every CLI digest are
unchanged by that step.  The rectangle entries went with the rectangle
basis; no interval digest changed then.  The `forward`, `backward` and `oracle-compare`
digests were re-recorded when the forward march joined in-range states in
linear scale, after tests/test_march_accuracy.py showed that join no less
accurate than the log-space one, within rounding, at N = 16, 64 and 256.
The `*-source-only` digests, runs without g.path, were recorded before
`Trajectory` kept its coefficient rows and its lift; they pin a lift-free
trajectory.csv and `duhamel.solution_norm` through the CLI.
"""

import hashlib

import numpy as np
import pytest

from heatfvp import DomainSpec, SpectralVec, analyze, build_basis, project_samples, synthesize
from heatfvp import spectral as sp
from heatfvp.cli import cli

from test_cli import inhom_files, write_conf


def _digest(arr) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


BASES = {
    "interval-pi-16": DomainSpec("interval", (np.pi,), 16),
    "interval-2.5-12": DomainSpec("interval", (2.5,), 12),
}

TRANSFORM_GOLDENS = {
    "interval-pi-16": {
        "analyze-real": "e94eaa3f74e9435a",
        "analyze-complex": "2cddb886ae1ecc6c",
        "synthesize-default": "9b8b462b211e43f5",
        "synthesize-default-complex": "8b201575487fd0cb",
        "synthesize-points": "517e7dd50493df96",
        "project-samples": "2744d2c85af6fb1c",
        "mode-values": "a9a95c9b3f43abda",
    },
    "interval-2.5-12": {
        "analyze-real": "1ae7e72757d98ead",
        "analyze-complex": "6e01368a9aa37336",
        "synthesize-default": "f71ff5dc212b6be3",
        "synthesize-default-complex": "b04fa82d575580f9",
        "synthesize-points": "77385981c062135a",
        "project-samples": "5f6ce8657cd5cf86",
        "mode-values": "29dc9a6259b4f825",
    },
}


def _transform_arrays(spec):
    basis = build_basis(spec)
    (L,) = spec.lengths
    rng = np.random.default_rng(11)
    grid = basis.axes[0].size
    out = {
        "analyze-real": analyze(rng.standard_normal(grid), basis).coefficients,
        "analyze-complex": analyze(rng.standard_normal(grid) + 1j * rng.standard_normal(grid), basis).coefficients,
    }
    coeffs = rng.standard_normal(basis.n_modes) * np.exp(-0.2 * np.arange(basis.n_modes))
    real_vec = SpectralVec.from_coefficients(basis, coeffs)
    complex_vec = SpectralVec.from_coefficients(basis, coeffs * np.exp(1j * rng.uniform(0, 6, basis.n_modes)))
    out["synthesize-default"] = synthesize(real_vec)
    out["synthesize-default-complex"] = synthesize(complex_vec)
    points = np.sort(rng.uniform(0.0, L, 7))
    out["synthesize-points"] = synthesize(real_vec, points)
    out["project-samples"] = project_samples(rng.standard_normal(65), np.linspace(0.0, L, 65), basis).coefficients
    out["mode-values"] = basis.mode_values(points)
    return out


@pytest.mark.parametrize("name", list(BASES))
def test_transforms_match_recorded_bits(name):
    got = {key: _digest(arr) for key, arr in _transform_arrays(BASES[name]).items()}
    assert got == TRANSFORM_GOLDENS[name]


CLI_GOLDENS = {
    "forward": {
        "stdout": "c06914fb1f6b337a",
        "final_state.json": "4a6ffbde3a7468a3",
        "trajectory.csv": "a28ce88f7670ee8c",
    },
    "backward": {
        "stdout": "f21caf1973960260",
        "compat.json": "7a1e50d83fe25c95",
        "trajectory.csv": "67b6b0583edda3db",
        "u0.json": "15cc9eac86dd650b",
        "ynorm.json": "c4d3ae380562c079",
    },
    "check-compat": {
        "stdout": "81bc4c0ee3c330ca",
        "compat.json": "7a1e50d83fe25c95",
    },
    "norms": {
        "stdout": "485a217498377381",
        "norms.json": "402f58f63a90068b",
    },
    "forward-source-only": {
        "stdout": "db72d428695dee6d",
        "final_state.json": "c365b32b51a55da6",
        "trajectory.csv": "43336cf75c00aa92",
    },
    "norms-source-only": {
        "stdout": "96cf2dad40962974",
        "norms.json": "05247b663b738ff0",
    },
    "oracle-compare": {
        "stdout": "b10580c65ec56fdf",
        "oracle_compare.json": "de2a8265c2b99fe7",
    },
    "instability-demo-T0.8-L3.141592653589793": {
        "stdout": "e3b0c44298fc1c14",
        "table.csv": "23d37ef5ef573787",
        "stdout-table": "23d37ef5ef573787",
    },
    "instability-demo-T0.8-L0.37": {
        "stdout": "e3b0c44298fc1c14",
        "table.csv": "a71c1d64d86c512f",
        "stdout-table": "a71c1d64d86c512f",
    },
    "instability-demo-T7.3-L0.01": {
        "stdout": "e3b0c44298fc1c14",
        "table.csv": "f9c43abbb2d62180",
        "stdout-table": "f9c43abbb2d62180",
    },
}


def _run(tmp_path, capsys, sub, argv, out_dir):
    assert cli([sub, *argv]) == 0
    got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]}
    if out_dir is not None:
        for p in sorted(out_dir.iterdir()):
            got[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()[:16]
    return got


def _inhom_config(tmp_path, sub, boundary=True):
    basis, u0, T = inhom_files(tmp_path)
    (tmp_path / "u0.json").write_text(sp.vec_to_json(u0))
    return write_conf(
        tmp_path,
        f"modes = 16\nT = {T!r}\nuT.path = uT.json\nu0.path = u0.json\n"
        f"f.path = f.csv\n{'g.path = g.csv' if boundary else ''}\nout.dir = out-{sub}\n",
        name=f"{sub}.conf",
    )


@pytest.mark.parametrize("sub", ["forward", "backward", "check-compat", "norms"])
def test_config_subcommands_match_recorded_bits(tmp_path, capsys, sub):
    conf = _inhom_config(tmp_path, sub)
    assert _run(tmp_path, capsys, sub, ["--config", conf], tmp_path / f"out-{sub}") == CLI_GOLDENS[sub]


# without g.path: the lift-free trajectory.csv and `duhamel.solution_norm`
@pytest.mark.parametrize("sub", ["forward", "norms"])
def test_source_only_subcommands_match_recorded_bits(tmp_path, capsys, sub):
    conf = _inhom_config(tmp_path, sub, boundary=False)
    got = _run(tmp_path, capsys, sub, ["--config", conf], tmp_path / f"out-{sub}")
    assert got == CLI_GOLDENS[f"{sub}-source-only"]


def test_oracle_compare_matches_recorded_bits(tmp_path, capsys):
    conf = _inhom_config(tmp_path, "oracle-compare")
    argv = ["--config", conf, "--fd-points", "31", "--steps", "16"]
    got = _run(tmp_path, capsys, "oracle-compare", argv, tmp_path / "out-oracle-compare")
    assert got == CLI_GOLDENS["oracle-compare"]


INSTABILITY_CASES = [("0.8", "3.141592653589793"), ("0.8", "0.37"), ("7.3", "0.01")]


@pytest.mark.parametrize("T,length", INSTABILITY_CASES)
def test_instability_demo_matches_recorded_bits(tmp_path, capsys, T, length):
    out = tmp_path / "out"
    out.mkdir()
    argv = ["--T", T, "--jmax", "64", "--length", length, "--out", str(out / "table.csv")]
    got = _run(tmp_path, capsys, "instability-demo", argv, out)
    got["stdout-table"] = _run(tmp_path, capsys, "instability-demo", argv[:-2], None)["stdout"]
    assert got == CLI_GOLDENS[f"instability-demo-T{T}-L{length}"]
