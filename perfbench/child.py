"""Fresh-process helpers started by run.py, one at a time.

    python3 perfbench/child.py setup OUT.json [N ...]
        Time `import heatfvp` plus build_basis for each N (none: import
        alone) from a fresh interpreter; write {"import_s": ...,
        "setup_s": ...} to OUT.json.

    python3 perfbench/child.py cli SPANS.npz OUT.json -- ARGV ...
        Run `heatfvp.cli.cli(ARGV)` with span wrappers installed, after
        timing `import heatfvp`; write the spans to SPANS.npz and the
        import and run times to OUT.json.  Exits with the CLI's code; an
        uncaught exception propagates as it would from the real entry point.

Results go to files, so the CLI's own stdout stays byte-identical.
"""

import json
import sys
import time


def _setup(out_path, modes):
    t0 = time.perf_counter()
    import heatfvp

    import_s = time.perf_counter() - t0
    for n in modes:
        heatfvp.build_basis(heatfvp.DomainSpec("interval", (3.141592653589793,), int(n)))
    elapsed = time.perf_counter() - t0
    with open(out_path, "w") as fh:
        json.dump({"import_s": import_s, "setup_s": elapsed}, fh)


def _cli(spans_path, out_path, argv):
    t0 = time.perf_counter()
    import heatfvp
    import heatfvp.cli

    import_s = time.perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    t1 = time.perf_counter()
    try:
        rc = heatfvp.cli.cli(argv)
    finally:
        run_s = time.perf_counter() - t1
        tracer.active = False
        tracer.dump(spans_path)
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "run_s": run_s}, fh)
    sys.exit(rc)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        _setup(sys.argv[2], sys.argv[3:])
    elif mode == "cli":
        sep = sys.argv.index("--")
        _cli(sys.argv[2], sys.argv[3], sys.argv[sep + 1:])
    else:
        sys.exit(f"unknown mode {mode!r}")
