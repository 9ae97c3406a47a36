#!/usr/bin/env python3
"""End-to-end benchmark for serving and simulation.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-unique --seed 1 --seconds 30 --trace 0

Workloads: ``serve-unique``, ``serve-hot``, ``sim-sweep`` (see
``workloads.py`` and ``README.md``). The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value", "unit"}``). ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics from a traced run
and writes its spans to ``.bench_out/``. The line before it is a JSON
record of the environment and the run's details.

BLAS is pinned to one thread before numpy loads, the program runs from
a scratch directory under ``.bench_work/`` with its disk trace cache
off, and nothing else is written.
"""

import os

# Before numpy loads anywhere; forked workers inherit these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_TRACE_CACHE"] = "off"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("serve-unique", "serve-hot", "sim-sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-tests")
    parser.add_argument("--record-goldens", metavar="FIRST-LAST",
                        help="record sim-sweep goldens for a seed range")
    args = parser.parse_args(argv)
    if args.workload is None and args.record_goldens is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_sha() -> str:
    """HEAD of a git checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    import numpy

    from repro.perf.parallel import available_workers

    blas = "unknown"
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except Exception:  # the config layout differs across numpy releases
        pass
    return {
        "workers": available_workers(None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def stop_resource_tracker() -> None:
    """Stop the helper process that shared-memory use started, and wait.

    The serving pool's shared-memory segments start the standard
    library's resource tracker; stopping it here means the benchmark
    leaves no process behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def result_line(outcome, units) -> dict:
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.record_goldens:
        first, _, last = args.record_goldens.partition("-")
        workloads.record_goldens(range(int(first), int(last or first) + 1))
        return 0

    size = workloads.TINY if args.size == "tiny" else workloads.FULL
    scratch_root = ROOT / ".bench_work"
    scratch_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    home = os.getcwd()
    os.chdir(scratch)
    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), size
        )
    finally:
        os.chdir(home)
        shutil.rmtree(scratch, ignore_errors=True)
        stop_resource_tracker()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": size.name,
        "environment": environment(),
        **outcome.details,
    }
    if outcome.tracer is not None:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        outcome.tracer.write(spans)
        details["spans"] = str(spans.relative_to(ROOT))
    units = workloads.PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS
    print(json.dumps(details, default=str))
    print(json.dumps(result_line(outcome, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
