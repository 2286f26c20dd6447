"""Write a baseline file (BENCH_<n>.json) for the current checkout.

    python3 perfbench/baseline.py --out perfbench/BENCH_0.json

For every workload it runs run.py for BENCHMARK.json's run_seconds once
per seed in SEEDS with tracing off and once with tracing on, and records the medians of the end-to-end metrics, the
per-layer metrics of the traced run and every run's last line.  It also
times the stages the ROADMAP baseline quotes, in this process: the loop of
acceptance criterion 5 (200 forward solves with their energy checks), the
loop of criterion 9 (50 generators), and build_basis at N = 64, 256, 1024.
Run it from the root of a heatfvp checkout on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
SEEDS = (1, 2, 3)

import harness  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _criterion_5():
    """tests/test_acceptance.py::test_criterion_05, timed."""
    import numpy as np

    from heatfvp import duhamel as dh
    from heatfvp.spectral import DomainSpec, SpectralVec, build_basis

    basis = build_basis(DomainSpec("interval", (np.pi,), 16))
    lam_max = float(basis.lambdas[-1])
    rng = np.random.default_rng(2026)
    j = np.arange(1, 17)
    t0 = perf_counter()
    for k in range(200):
        T = float(rng.uniform(0.5, 1.5))
        u0 = SpectralVec.from_coefficients(basis, rng.standard_normal(16) * np.exp(-0.2 * j))
        f = None
        if k % 2:
            ts = np.linspace(0.0, T, 4)
            f = dh.SourceTerm(basis, ts, rng.standard_normal((4, 16)) * np.exp(-0.05 * basis.lambdas))
        h = min(T / 32, 0.4 / lam_max)
        tgrid = np.linspace(0.0, T, int(np.ceil(T / h)) + 1)
        dh.check_energy_estimate(dh.solve_cauchy(u0, f, tgrid))
    return perf_counter() - t0


def _criterion_9():
    """The 50-generator loop of tests/test_acceptance.py::test_criterion_09, timed."""
    import numpy as np

    from heatfvp import generator as gl

    t0 = perf_counter()
    for i in range(50):
        dim = int(np.random.default_rng(i).integers(2, 9))
        gen = gl.random_elliptic(dim, seed=i)
        gl.check_injectivity(gen, [0.1, 1.0, 10.0])
        s, t = np.random.default_rng(1000 + i).uniform(0.1, 1.0, 2)
        gl.exp_semigroup(gen, s + t)
        gl.exp_semigroup(gen, s) @ gl.exp_semigroup(gen, t)
        gl.check_sectoriality(gen)
    sa = gl.random_selfadjoint(6, seed=11)
    gl.check_logconvexity_criterion(sa, trials=1000, seed=3, times=np.linspace(0.1, 5.0, 33))
    return perf_counter() - t0


def _build_basis_ms():
    import numpy as np

    from heatfvp.spectral import DomainSpec, build_basis

    out = {}
    for n in (64, 256, 1024):
        times = []
        for _ in range(5):
            t0 = perf_counter()
            build_basis(DomainSpec("interval", (np.pi,), n))
            times.append(1e3 * (perf_counter() - t0))
        out[str(n)] = statistics.median(times)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    src = Path.cwd() / "src"
    if not (src / "heatfvp" / "__init__.py").is_file():
        sys.stderr.write("error: run from the root of a heatfvp checkout\n")
        return 2
    sys.path.insert(0, str(src))

    workloads = {}
    for name in WORKLOADS:
        runs = [_run(name, s, seconds, 0) for s in SEEDS]
        traced = _run(name, SEEDS[0], seconds, 1)
        e2e = {k: {"median": statistics.median(r["metrics"][k]["value"] for r in runs),
                   "unit": runs[0]["metrics"][k]["unit"]} for k in runs[0]["metrics"]}
        workloads[name] = {"end_to_end": e2e, "per_layer": traced["metrics"], "runs": runs,
                           "traced_run": {k: traced[k] for k in ("correct", "attempted", "failed")}}
        print(name, json.dumps({k: round(v["median"], 6) for k, v in e2e.items()}), flush=True)

    stages = {"criterion_5_s": _criterion_5(), "criterion_9_s": _criterion_9(),
              "build_basis_ms": _build_basis_ms()}
    print("stages", json.dumps(stages), flush=True)
    doc = {
        "what": "heatfvp benchmark baseline: medians over the seeds of every end-to-end metric, "
                "the per-layer metrics of one traced run, and the ROADMAP baseline stages",
        "command": "python3 perfbench/baseline.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "record": harness.run_record(SEEDS[0]),
        "stages": stages,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, default=float) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
