"""Closed-loop benchmark of the shearlab CLI pipelines, end to end and per layer.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload localize --seed 1 --seconds 20 --trace 0

One client in one thread calls ``shearlab.cli.main(argv)`` in this process,
each op after the previous one has finished, in whole passes until
``--seconds`` have gone by (at least one pass). Every op's output is checked.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
run spends half its time untraced and half traced and prints the per-layer
metrics, with the tracing overhead. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The line
before it holds the details (samples, failures, per-op medians, environment).

Every time comes from this script's clock, never from a manifest's
``wall_seconds`` (see README.md), and is scaled to the reference machine's
full speed (speed.py; ``setup_s`` by a reference import instead). The
details line also gives the unscaled end-to-end values. Metric names and
units are read from BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter, process_time

import numpy
import scipy

import ops
from spans import NO_WAIT, Tracer, layer_metrics
from speed import machine_speed

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench-out")          # relative to ROOT, which is the working directory
REQUIRED = ("BENCHMARK.json", "src/shearlab/cli.py", ops.LOCALIZATION_CONFIG,
            ops.METASTABILITY_CONFIG, f"{ops.GOLDEN_DIR}/localization_diagnostics.csv",
            f"{ops.GOLDEN_DIR}/metastability_diagnostics.csv")
SETUP_REPEATS = 3
SETUP_CODE = "import shearlab.cli as cli; cli.build_parser()"
# the third-party modules shearlab.cli imports, and their import time on the
# reference machine at full speed
REFERENCE_IMPORT = "import numpy, scipy.integrate, scipy.interpolate"
REFERENCE_IMPORT_S = 0.75


@dataclass(frozen=True)
class Sample:
    """One op as the client saw it; ``error`` is None when it passed its checks."""

    kind: str
    wall: float
    cpu: float
    scale: float            # machine_speed() around the op: the mean of before and after
    peak_rss_mb: float      # the process's peak resident set once the op has ended
    error: str | None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SHEARLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"),
                                                    env.get("PYTHONPATH")) if p)
    return env


def _start(code: str) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Fresh-interpreter time to import the CLI and build its parser: (scaled, unscaled).

    Each timed start is paired with a start that imports only the third-party
    modules the CLI needs; the scaled value is the median of setup over that
    reference, times REFERENCE_IMPORT_S. Import time does not follow the
    in-process kernel of ``speed`` (their correlation measured -0.36), but it
    does follow the reference import. One untimed pair comes first: it writes
    the bytecode cache, which a user's installed copy already has.
    """
    scaled, raw = [], []
    for i in range(repeats + 1):
        reference, setup = _start(REFERENCE_IMPORT), _start(SETUP_CODE)
        if i:
            raw.append(setup)
            scaled.append(setup / reference * REFERENCE_IMPORT_S)
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    """Runs one op at a time through ``main`` and checks what it wrote."""

    def __init__(self, main, out_dir: Path):
        self.main = main
        self.out_dir = out_dir
        self.tracer: Tracer | None = None

    def run(self, op: ops.Op) -> Sample:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        argv = [*op.argv, "--out-dir", str(self.out_dir)]
        gc.collect()
        scale = machine_speed()
        call = (lambda: self.main(argv)) if self.tracer is None else \
            (lambda: self.tracer.pipeline(op.kind, lambda: self.main(argv)))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            start, cpu = perf_counter(), process_time()
            try:
                code = call()
            except SystemExit as exc:           # argparse rejects the argv
                code = exc.code
            except Exception as exc:            # a crash fails this op, not the run
                code = f"{type(exc).__name__}: {exc}"
            wall, cpu = perf_counter() - start, process_time() - cpu
        error = None
        if code != 0:
            error = f"exit {code} {stderr.getvalue().strip()[:300]}"
        else:
            try:
                for check in op.checks:
                    check(self.out_dir)
            except Exception as exc:            # missing or malformed output fails the op
                error = f"check: {type(exc).__name__}: {exc}"
        return Sample(op.kind, wall, cpu, scale, peak_rss_mb(),
                      error and f"{' '.join(op.argv)}: {error}")


def warm_up(runner: Runner, workload: str, seed: int) -> list[Sample]:
    """One untimed op per subcommand, so lazy set-up is not charged to the first timed op."""
    first = {}
    for op in next(ops.passes(workload, seed)):
        first.setdefault(op.kind, op)
    return [runner.run(op) for op in first.values()]


def closed_loop(runner: Runner, workload: str, seed: int, seconds: float):
    """Whole passes until ``seconds`` have gone by; returns (samples, passes).

    Each op runs between two measurements of ``machine_speed`` (the one before
    the next op serves as this op's after) and is scaled by their mean.
    """
    stream = ops.passes(workload, seed)
    samples, passes = [], 0
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        samples += [runner.run(op) for op in next(stream)]
        passes += 1
    after = [s.scale for s in samples[1:]] + [machine_speed()]
    return [replace(s, scale=(s.scale + a) / 2) for s, a in zip(samples, after)], passes


def throughput(samples: list[Sample], scaled: bool = True) -> float:
    return len(samples) / sum(s.wall * (s.scale if scaled else 1.0) for s in samples)


def end_to_end(samples: list[Sample], passes: int, setup_s: float,
               scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; times are scaled to the reference machine speed.

    ``pipeline_p50_s`` is a median of medians: each position of the pass (the
    same op kind every pass) takes the median of its times over the passes,
    then the median over positions. A plain median over a pass with four op
    kinds in equal numbers falls between the second and third kind, where
    it moves with single outliers.

    ``peak_rss_mb`` is read after the first timed pass, a fixed number of ops:
    the resident set grows with every LSODA call (SciPy), so a later reading
    would follow the number of passes the run had time for.
    """
    times = [s.wall * (s.scale if scaled else 1.0) for s in samples]
    per_pass = len(samples) // passes
    return {
        "setup_s": setup_s,
        "pipelines_per_s": throughput(samples, scaled),
        "pipeline_p50_s": statistics.median(statistics.median(times[j::per_pass])
                                            for j in range(per_pass)),
        "cpu_per_pipeline_s": sum(s.cpu * (s.scale if scaled else 1.0)
                                  for s in samples) / len(samples),
        "peak_rss_mb": samples[per_pass - 1].peak_rss_mb,
    }


def traced_run(runner: Runner, workload: str, seed: int, seconds: float):
    """Half the time untraced, half traced; per-layer metrics plus the overhead."""
    untraced, _ = closed_loop(runner, workload, seed, seconds / 2)
    tracer = runner.tracer = Tracer()
    tracer.install()
    try:
        traced, passes = closed_loop(runner, workload, seed, seconds / 2)
    finally:
        tracer.uninstall()
        runner.tracer = None
    metrics = layer_metrics(tracer.spans, passes, [s.scale for s in traced])
    metrics["trace.untraced_pipelines_per_s"] = throughput(untraced)
    metrics["trace.traced_pipelines_per_s"] = throughput(traced)
    metrics["trace.overhead_ratio"] = throughput(untraced) / throughput(traced) - 1.0
    tracer.write(OUT / f"trace-{workload}.json",
                 {"workload": workload, "seed": seed, "passes": passes})
    return metrics, untraced + traced, passes


def details(samples: list[Sample], timed: list[Sample], passes: int) -> dict:
    """What the last line leaves out: sample counts, tail, per-op medians, failures."""
    walls = sorted(s.wall * s.scale for s in timed)
    info = {"samples": len(timed), "passes": passes,
            "attempted": len(samples),
            "failed_ratio": {"value": sum(s.error is not None for s in samples)
                             / len(samples), "unit": "ratio"},
            "failures": [s.error for s in samples if s.error][:10]}
    # the highest percentile with at least ten samples beyond it
    if len(walls) >= 20:
        pct = math.floor(100 * (1 - 10 / len(walls)))
        info[f"pipeline_p{pct}_s"] = statistics.quantiles(walls, n=100)[pct - 1]
    kinds = {}
    for s in timed:
        kinds.setdefault(s.kind, []).append(s.wall * s.scale)
    info["op_p50_s"] = {k: statistics.median(v) for k, v in kinds.items()}
    info["machine_speed_p50"] = statistics.median(s.scale for s in timed)
    info["environment"] = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "machine": platform.machine()}
    return info


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a shearlab checkout, missing {missing}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    os.environ.pop("SHEARLAB_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    from shearlab import cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported {cli.__file__}, not this checkout", file=sys.stderr)
        return 2

    runner = Runner(cli.main, OUT / "ops")
    setup_s, setup_raw = (None, None) if args.trace else measure_setup()
    warm = warm_up(runner, args.workload, args.seed)
    if args.trace:
        measured, timed, passes = traced_run(runner, args.workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        timed, passes = closed_loop(runner, args.workload, args.seed, args.seconds)
        measured = end_to_end(timed, passes, setup_s)
        wanted = spec["end_to_end"]
    shutil.rmtree(runner.out_dir, ignore_errors=True)

    samples = warm + timed
    failed = sum(s.error is not None for s in samples)
    info = details(samples, timed, passes)
    if args.trace:
        info["waits"] = NO_WAIT
    else:
        info["unscaled"] = end_to_end(timed, passes, setup_raw, scaled=False)
    print("perfbench details: " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
