"""Benchmark of pptbound: one workload per run, timed end to end or traced
per layer.

    python3 perfbench/run.py --workload two_copy --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload's operations as a closed loop with one
client until ``--seconds`` have passed, checks every output against the
references in ``reference.py``, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json;
with ``--trace 1`` the functions of each pptbound module are wrapped and
the ``per_layer`` ones are reported instead.  Run it from anywhere: the
package is taken from ``src/`` next to this directory, never from an
installed copy.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported, here and in
# every subprocess; the choice is printed with the run's environment.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Fresh processes timed for setup_s, cli.interpreter_s and cli.import_s;
# each metric is the median.
PROBES = 5
WORKLOADS = ("two_copy", "families", "cli")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up once and exit (times setup_s)")
    return p.parse_args(argv)


def metric_specs(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def interpreter_seconds() -> float:
    """Wall time of a bare ``python -c pass``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


def import_seconds() -> float:
    """Time a fresh interpreter spends in ``import pptbound``."""
    code = "import time; t = time.perf_counter(); import pptbound; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return float(out.stdout)


def setup_seconds(args: argparse.Namespace) -> float:
    """Median wall time of a fresh process that imports pptbound, makes the
    workload's inputs and warms up (``--setup-only``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "cpus": os.cpu_count(),
    }


def cpu_seconds() -> float:
    """CPU time of this process plus that of its waited-for children."""
    return time.process_time() + sum(os.times()[2:4])


def run_loop(ops, seconds: float) -> dict:
    """Whole rounds of ``ops`` until ``seconds`` of loop time have passed."""
    from reference import CheckError

    wall, cpu, rss = [], [], []
    failed = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # a crash of the program is a failed operation
                out = None
                failed += 1
                print(f"FAILED {op.label}:\n{traceback.format_exc()}", file=sys.stderr)
            wall.append(time.perf_counter() - t0)
            cpu.append(cpu_seconds() - c0)
            if out is None:
                continue
            rss.append(getattr(out, "rss_kib", 0))
            try:
                op.check(out)
            except CheckError as exc:
                failed += 1
                print(f"FAILED {op.label}: {exc}", file=sys.stderr)
        if time.perf_counter() - start >= seconds:
            break
    return {"wall": wall, "cpu": cpu, "rss_kib": max(rss, default=0), "failed": failed}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "pptbound" / "__init__.py").is_file():
        print(f"error: no pptbound package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args: argparse.Namespace, workdir: Path) -> int:
    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.setup(args.workload, args.seed, workdir, in_process=bool(args.trace))
    if args.setup_only:
        return 0
    specs = metric_specs(args.trace)
    print(json.dumps({"environment": environment()}))
    values: dict[str, float] = {}
    if tracer is None:
        values["setup_s"] = setup_seconds(args)
    else:
        tracer.reset()
    run = run_loop(ops, args.seconds)
    n = len(run["wall"])
    if tracer is None:
        values["op_s"] = statistics.median(run["wall"])
        values["ops_per_s"] = n / sum(run["wall"])
        values["cpu_per_op_s"] = sum(run["cpu"]) / n
        peak_kib = run["rss_kib"] if args.workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["peak_rss_mib"] = peak_kib / 1024.0
    else:
        values.update(tracer.summary(n))
        if args.workload == "cli":
            values["cli.interpreter_s"] = statistics.median(interpreter_seconds() for _ in range(PROBES))
            values["cli.import_s"] = statistics.median(import_seconds() for _ in range(PROBES))
    metrics = {s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]} for s in specs}
    print(json.dumps({"correct": run["failed"] == 0, "attempted": n, "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
