"""The repository benchmark: one workload, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload paper_sweeps --seed 1 --seconds 30 \
        --trace 0

With ``--trace 0`` the last line of standard output is the end-to-end
result (``setup_s``, ``wall_s``, ``agent_rounds_per_s``, ``peak_rss_mb``);
with ``--trace 1`` it is the per-layer table, read from passes run under
span wrappers and compared against untraced passes of the same process for
the tracing overhead.  Everything the run writes goes under
``.perfbench_out/`` in the current directory.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads: the program's tensors are small,
# and on a shared two-core machine extra BLAS threads measured contention
# (same median, several times the run-to-run spread), not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: The CLI module: what every ``repro-experiments`` invocation imports.
IMPORT_TARGET = "repro.experiments.cli"
#: Fresh interpreters timing the import (a module imports once per process).
IMPORT_PROBES = 3
#: Passes a run makes at the least, so that every figure is a median.
MIN_PASSES = 2
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "agent_rounds_per_s": "agent_rounds/s",
    "peak_rss_mb": "MB",
}
PROBE_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    f"import {IMPORT_TARGET}\n"
    "print(time.perf_counter() - t)\n"
)


def import_probe() -> float:
    """Import time of the CLI module in a fresh interpreter, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE_CODE],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    """What the figures were measured on."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    import numpy
    import scipy

    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def run(args) -> dict:
    import layers
    import workloads

    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
    tracer = layers.Tracer() if args.trace else None

    try:
        return measure(args, workload, tracer, layers, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, workload, tracer, layers, work_dir) -> dict:
    clock = time.perf_counter
    imports = [import_probe() for _ in range(IMPORT_PROBES)]
    import_s = statistics.median(imports)
    setups, walls, cpus, traced_walls, layer_passes = [], [], [], [], []
    agent_rounds = set()
    attempted = failed = 0
    failures = []
    # Passes go on while the next one, at the mean pass length so far, is
    # expected to end within --seconds.  Traced runs alternate untraced
    # and traced passes, starting and ending untraced, so the overhead
    # compares passes of one process and the first pass's warm-up does
    # not land on one side only.
    min_passes = 3 if args.trace else MIN_PASSES
    started = clock()
    passes = 0

    def next_pass_fits() -> bool:
        elapsed = clock() - started
        return elapsed + elapsed / passes <= args.seconds

    while (
        passes < min_passes
        or next_pass_fits()
        or (args.trace and passes % 2 == 0)
    ):
        traced = bool(args.trace) and passes % 2 == 1
        if traced:
            tracer.reset()
            layers.install(tracer)
        t0 = clock()
        state = workload.setup()
        t1 = clock()
        c1 = time.process_time()
        outcome = workload.run_pass(state)
        t2 = clock()
        cpus.append(time.process_time() - c1)
        rounds = workload.agent_rounds(state, outcome)
        if traced:
            tracer.uninstall()
            table = tracer.layer_metrics()
            tracer.reset()
            counted = table.pop("engine.agent_rounds")
            if counted != rounds:
                failed += 1
                failures.append(
                    f"traced engines ran {counted} agent-rounds, the "
                    f"workload's grid has {rounds}"
                )
            layer_passes.append(table)
            traced_walls.append(t2 - t1)
        else:
            setups.append(t1 - t0)
            walls.append(t2 - t1)
        agent_rounds.add(rounds)
        ops, bad, messages = workload.check_pass(state, outcome)
        attempted += ops
        failed += bad
        failures += messages
        del state, outcome
        passes += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # A failing run-level check fails the operation it checks.
    run_failures = workload.check_run()
    failed = min(attempted, failed + len(run_failures))
    failures += run_failures

    if len(agent_rounds) != 1:
        failures.append(f"agent-rounds differ between passes: {agent_rounds}")
    wall_s = statistics.median(walls)
    if args.trace:
        metrics = {
            name: statistics.median(p[name] for p in layer_passes)
            for name in layer_passes[0]
        }
        metrics["import.s"] = import_s
        metrics["tracing.overhead_s"] = (
            statistics.median(traced_walls) - wall_s
        )
        units = {
            name: unit
            for name, (unit, _) in layers.PER_LAYER_METRICS.items()
        }
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": wall_s,
            "agent_rounds_per_s": max(agent_rounds) / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "provenance": provenance(args.seed),
        "passes": passes,
        "import_s": imports,
        "setup_s": setups,
        "wall_s": walls,
        "traced_wall_s": traced_walls,
        "run_cpu_s": cpus,
        "agent_rounds_per_pass": max(agent_rounds),
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "layers_per_pass": layer_passes,
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    (stem.parent / (stem.name + ".json")).write_text(
        json.dumps(record, indent=1) + "\n"
    )
    if args.trace:
        tracer.write_spans(stem.parent / (stem.name + ".spans.jsonl.gz"))
        width = max(len(name) for name in units)
        for name, unit in units.items():
            print(f"{name:<{width}}  {metrics[name]:>16.6f}  {unit}")
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"run": record["provenance"], "passes": passes}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def run_all(args, names) -> int:
    """Every workload, one after another, each in a fresh process.

    Each child's output passes through; the last line maps every workload
    to its result.
    """
    results, code = {}, 0
    for name in names:
        done = subprocess.run(
            [
                sys.executable,
                __file__,
                "--workload",
                name,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            code = done.returncode
            continue
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, help="a workload name, or 'all'"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"no program source at {SRC / 'repro'}; run from the "
            "repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; known: "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    importlib.import_module(IMPORT_TARGET)
    OUT.mkdir(exist_ok=True)
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
