"""Run one benchmark workload and print its metrics as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload restaurant-rules-service --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps the layer boundaries listed in ``layers.py`` and prints
the per-layer metrics instead, writing every span to
``perfbench/out/trace-<workload>-<seed>.json``.  Earlier stdout lines are
JSON records, one per job (with the dataset SHA-256) plus a run summary.
The exit code is 0 only when every operation passed its correctness
checks.  The program under test is imported from ``src/`` next to this
directory; without it the command exits 2 and prints no result.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: on a 2-vCPU host a threaded BLAS competes with the
# service's server and worker threads and adds run-to-run noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the benchmark's self-tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up, imports included, and exit; "
                             "a measuring run starts these itself")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import warnings

    import workloads
    from tracing import Tracer

    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    # Rejection-livelock warnings are expected on the small DP workload;
    # the fallback share is reported as rejection.fallback_frac instead.
    warnings.simplefilter("ignore", RuntimeWarning)
    import_s = time.perf_counter() - _STARTED

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        size = workload.tiny if args.tiny else workload.full
        _, session, elapsed = workloads.set_up(workload, size, args.seed, OUT)
        session.close()
        print(json.dumps({"setup_s": import_s + elapsed}), flush=True)
        return 0
    tracer = None
    if args.trace:
        import layers
        tracer = Tracer()
        tracer.install(layers.TARGETS)

    def emit(record: dict) -> None:
        print(json.dumps(record, default=float), flush=True)

    runner = workloads.Runner(
        workload, args.seed, args.seconds, args.tiny, tracer, OUT, import_s, emit,
    )
    try:
        result = runner.run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
