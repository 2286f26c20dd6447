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
basis; no interval digest changed then.  The `synthesize-default` digests
read `uniform_samples(vec, 8N)`, the same sine transform, since `synthesize`
lost its default grid.  The `forward`, `backward` and `oracle-compare`
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

from heatfvp import (
    DomainSpec,
    InvalidSpecError,
    SpectralVec,
    analyze,
    build_basis,
    project_samples,
    synthesize,
    uniform_samples,
)
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

# re-recorded when coefficients became real: the digests hash the dtype,
# complex128 before, and the signs became exact (analyze-real and
# project-samples moved by at most 1 ulp, synthesize-* by up to 14 ulp, 340
# on one entry near a cancellation); against 50-digit sums none errs more
# than before.  The complex cases are refusals on the same draws
TRANSFORM_GOLDENS = {
    "interval-pi-16": {
        "analyze-real": "26afeddfe6b84495",
        "synthesize-default": "ddb9e295152d7f45",
        "synthesize-points": "28ed62b7aaf1dd9c",
        "project-samples": "08d141312f85a123",
        "mode-values": "a9a95c9b3f43abda",
    },
    "interval-2.5-12": {
        "analyze-real": "128340392c95045a",
        "synthesize-default": "194e300bd88cdb58",
        "synthesize-points": "cd81f08a77cd0e08",
        "project-samples": "96809158a8d30222",
        "mode-values": "29dc9a6259b4f825",
    },
}


def _transform_arrays(spec):
    basis = build_basis(spec)
    (L,) = spec.lengths
    rng = np.random.default_rng(11)
    grid = basis.axes[0].size
    out = {"analyze-real": analyze(rng.standard_normal(grid), basis).coefficients}
    # the complex cases keep their draws, so every later digest reads the
    # same values; their inputs are refused
    with pytest.raises(InvalidSpecError, match="imaginary"):
        analyze(rng.standard_normal(grid) + 1j * rng.standard_normal(grid), basis)
    coeffs = rng.standard_normal(basis.n_modes) * np.exp(-0.2 * np.arange(basis.n_modes))
    real_vec = SpectralVec.from_coefficients(basis, coeffs)
    with pytest.raises(InvalidSpecError, match="imaginary"):
        SpectralVec.from_coefficients(basis, coeffs * np.exp(1j * rng.uniform(0, 6, basis.n_modes)))
    # the quadrature grid of 8N panels, on which analyze reads samples
    out["synthesize-default"] = uniform_samples(real_vec, 8 * basis.n_modes)
    points = np.sort(rng.uniform(0.0, L, 7))
    out["synthesize-points"] = synthesize(real_vec, points)
    out["project-samples"] = project_samples(rng.standard_normal(65), np.linspace(0.0, L, 65), basis).coefficients
    out["mode-values"] = basis.mode_values(points)
    return out


@pytest.mark.parametrize("name", list(BASES))
def test_transforms_match_recorded_bits(name):
    got = {key: _digest(arr) for key, arr in _transform_arrays(BASES[name]).items()}
    assert got == TRANSFORM_GOLDENS[name]


# forward, backward, norms and forward-source-only re-recorded when
# coefficients became real: exact signs moved final states by 1 ulp, the
# forward trajectory.csv values by at most 2.2e-16, and the backward u0 in the
# modes below the rounding floor of v, which now cancel to exactly 0
CLI_GOLDENS = {
    "forward": {
        "stdout": "c06914fb1f6b337a",
        "final_state.json": "441f429666366246",
        "trajectory.csv": "657986f67e987857",
    },
    "backward": {
        "stdout": "a644c6d60b7ec781",
        "compat.json": "7a1e50d83fe25c95",
        "trajectory.csv": "6abf5a8fc45518d5",
        "u0.json": "00e0e950a8452739",
        "ynorm.json": "c4d3ae380562c079",
    },
    "check-compat": {
        "stdout": "81bc4c0ee3c330ca",
        "compat.json": "7a1e50d83fe25c95",
    },
    "norms": {
        "stdout": "f5709750bdb13d8d",
        "norms.json": "6abbd3c44fbb7a2d",
    },
    "forward-source-only": {
        "stdout": "db72d428695dee6d",
        "final_state.json": "cc491fe4a050f244",
        "trajectory.csv": "bdebc1756ad634c6",
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
