"""heatfvp benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a heatfvp checkout; the program is imported from
the checkout's `src`.  Workloads (see perfbench/README.md):

    cli-cold       serial fresh `heatfvp` processes, all eight subcommands
    fvp-batch      in-process backward solves at N = 256 and 1024
    forward-norms  in-process forward solves on long grids with their norms
    generator-lab  in-process MatrixGenerator reports

With --trace 0 the run measures the end-to-end metrics with tracing off;
with --trace 1 it runs one cycle untraced and one traced and reports the
per-layer metrics and the tracing overhead.  Every op's output is checked;
failures are listed with their cause.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A run record
(versions, BLAS threads, nproc, seed, control-loop time, metrics, failures)
is written to .perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

# modes built in set-up, and cycles per phase of a traced run
WORKLOADS = {
    "cli-cold": {"modes": (), "trace_cycles": 1},
    "fvp-batch": {"modes": (16, 256, 1024), "trace_cycles": 10},
    "forward-norms": {"modes": (16, 64), "trace_cycles": 1},
    "generator-lab": {"modes": (), "trace_cycles": 5},
}
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
             "peak_rss_mb": "MB", "ok_ratio": "1"}


def _inproc_ops(name, bases, seed):
    import inproc

    build = {"fvp-batch": inproc.fvp_batch_ops, "forward-norms": inproc.forward_norms_ops,
             "generator-lab": inproc.generator_lab_ops}[name]
    return build(bases, seed)


def _warm_up(ops):
    """One untimed pass over the cycle: lazy imports and first-call set-up
    are paid once per process, not per op."""
    for op in ops:
        try:
            op.call()
        except Exception:  # the timed loop reports it
            pass


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _accounting(outcomes) -> dict:
    members = [o for _, o in outcomes if o.member is True]
    failures = [(label, o.failed) for label, o in outcomes if o.failed is not None]
    return {
        "attempted": len(outcomes),
        "failed": len(failures),
        "correct": all(o.failed is None for _, o in outcomes if o.valid),
        "failures": failures,
        "member_ops": len(members),
        "member_refused": sum(o.refused for o in members),
        "false_accepts": sum(1 for _, o in outcomes if o.failed == harness.FALSE_ACCEPT),
    }


def timed_run(name, cfg, seed, seconds, src, work):
    setup = []

    def probe():
        setup.append(harness.setup_probe(src, work, cfg["modes"])["setup_s"])

    for _ in range(harness.SETUP_PROBES):
        probe()
    if name == "cli-cold":
        import clicold

        runner = clicold.CliRunner(src)
        ops = [runner.op(c) for c in clicold.build_cases(work / "cases", seed)]
        loop = harness.run_cycles(ops, seconds, probe=probe)
        peak = runner.peak_rss_mb
    else:
        import inproc

        ops = _inproc_ops(name, inproc.build_bases(cfg["modes"]), seed)
        _warm_up(ops)
        loop = harness.run_cycles(ops, seconds, probe=probe)
        peak = _self_rss_mb()
    for _ in range(harness.SETUP_PROBES):
        probe()
    acc = _accounting(loop.outcomes)
    tail, tail_p, samples = harness.tail(loop.latencies)
    metrics = {
        "setup_s": harness.median(setup),
        "ops_per_s": len(loop.latencies) / loop.wall_s,
        "op_p50_s": harness.median(loop.latencies),
        "op_tail_s": tail,
        "peak_rss_mb": peak,
        "ok_ratio": 1.0 - acc["failed"] / acc["attempted"],
    }
    detail = {
        "setup_samples_s": setup,
        "op_tail": {"percentile": tail_p, "samples": samples, "beyond": min(10, samples - 1)},
        "cycles": loop.cycles,
        "loop_wall_s": loop.wall_s,
        "fail_ratio": acc["failed"] / acc["attempted"],
    }
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, acc, detail


def traced_run(name, cfg, seed, src, work, spans_out):
    import spans as sp_

    cycles = cfg["trace_cycles"]
    spanset = sp_.SpanSet()
    # cli metrics read 0 where no CLI process runs
    extra = {f"cli.{sub}.p50_s": (0.0, "s") for sub in sp_.SUBCOMMANDS}
    extra.update({"cli.run_s": (0.0, "s"), "cli.bytes_written": (0, "bytes")})
    extra.update({f"cli.exit_{rc}": (0, "count") for rc in (0, 1, 2)})
    if name == "cli-cold":
        import clicold

        cases = clicold.build_cases(work / "cases", seed)
        plain = clicold.CliRunner(src)
        loop_u = harness.run_cycles([plain.op(c) for c in cases], max_cycles=cycles)
        spans_out.mkdir(parents=True, exist_ok=True)
        traced = clicold.CliRunner(src, traced_dir=spans_out)
        traced.first_bytes = plain.first_bytes  # tracing must not change a byte
        loop_t = harness.run_cycles([traced.op(c) for c in cases], max_cycles=cycles)
        for path in traced.span_files:
            spanset.add_dump(str(path))
        imports = [t[0] for t in traced.child_times]
        runs = [t[1] for t in traced.child_times]
        extra["cli.import_s"] = (harness.median(imports) if imports else 0.0, "s")
        extra["cli.run_s"] = (harness.median(runs) if runs else 0.0, "s")
        for sub in sp_.SUBCOMMANDS:
            walls = plain.walls.get(sub, [])
            extra[f"cli.{sub}.p50_s"] = (harness.median(walls) if walls else 0.0, "s")
        extra["cli.bytes_written"] = (plain.bytes_written, "bytes")
        for rc in (0, 1, 2):
            extra[f"cli.exit_{rc}"] = (plain.exits.get(rc, 0), "count")
    else:
        import inproc

        tracer = sp_.Tracer()
        tracer.install()
        tracer.active = True  # op 0: set-up
        bases = inproc.build_bases(cfg["modes"])
        tracer.active = False
        ops = _inproc_ops(name, bases, seed)
        _warm_up(ops)
        loop_u = harness.run_cycles(ops, max_cycles=cycles)
        tracer.active = True
        loop_t = harness.run_cycles(ops, tracer=tracer, max_cycles=cycles)
        tracer.active = False
        tracer.dump(str(spans_out) + ".npz")
        spanset.add_tracer(tracer)
        # this process has loaded heatfvp already: time the import fresh
        probes = [harness.setup_probe(src, work, ())["import_s"] for _ in range(3)]
        extra["cli.import_s"] = (harness.median(probes), "s")

    from heatfvp.logspace import LOG_MAX

    acc = _accounting(loop_u.outcomes + loop_t.outcomes)
    metrics = sp_.layer_metrics(spanset, LOG_MAX)
    refused = acc["member_refused"] / acc["member_ops"] if acc["member_ops"] else 0.0
    metrics["semigroup.member_refused_ratio"] = (refused, "1")
    metrics["semigroup.false_accepts"] = (acc["false_accepts"], "count")
    metrics.update(extra)
    plain_rate = len(loop_u.latencies) / loop_u.wall_s
    traced_rate = len(loop_t.latencies) / loop_t.wall_s
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ops_per_s"] = (plain_rate - traced_rate, "1/s")
    detail = {"spans": spanset.n_spans, "cycles_per_phase": cycles,
              "fail_ratio": acc["failed"] / acc["attempted"], "spans_file": str(spans_out)}
    return metrics, acc, detail


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="heatfvp benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "heatfvp" / "__init__.py").is_file():
        sys.stderr.write(f"error: no heatfvp sources under {src}; run from the root of a heatfvp checkout\n")
        return 2
    sys.path.insert(0, str(src))
    state = root / ".perfbench"
    runs_dir = state / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = state / f"work-{run_id}"
    work.mkdir(parents=True)

    cfg = WORKLOADS[args.workload]
    record = harness.run_record(args.seed)
    try:
        if args.trace:
            metrics, acc, detail = traced_run(args.workload, cfg, args.seed, src, work, runs_dir / f"{run_id}-spans")
            metrics["host.control_s"] = (record["host.control_s"], "s")
        else:
            metrics, acc, detail = timed_run(args.workload, cfg, args.seed, args.seconds, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"heatfvp benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("record: " + json.dumps(record, sort_keys=True))
    for key, (value, unit) in metrics.items():
        line = f"  {key} = {_fmt(value)} {unit}"
        if key == "op_tail_s":
            t = detail["op_tail"]
            line += f"  (p{t['percentile']:.4g} of {t['samples']} ops, {t['beyond']} beyond)"
        print(line)
    print(f"  fail_ratio = {detail['fail_ratio']:.6g} ({acc['failed']} of {acc['attempted']} ops)")
    print(f"  member data refused: {acc['member_refused']} of {acc['member_ops']}; "
          f"false accepts: {acc['false_accepts']}; correct: {acc['correct']}")
    for (label, cause), count in sorted(Counter(acc["failures"]).items()):
        print(f"  FAILED x{count} {label}: {cause}")

    result = {
        "correct": acc["correct"],
        "attempted": acc["attempted"],
        "failed": acc["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(runs_dir / f"{run_id}.json", "w") as fh:
        json.dump({"args": vars(args), "record": record, "detail": detail, "failures": acc["failures"],
                   **result}, fh, indent=1, default=float)
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
