"""One workload in one process: set up, signal ready, run passes on request.

Started by ``run.py`` with the BLAS/OpenMP thread count already pinned in
its environment and the ``kgl`` to measure first on ``PYTHONPATH``: the
program's ``src`` or the frozen copy in ``baseline``.  Protocol: the worker
prints ``ready`` once imports and warm-up are done, then reads one command
a line from stdin.

- ``passes <trace> <seconds>`` runs passes until the next one would end
  after ``seconds`` (at least one).  With ``trace`` 0 every pass is
  untraced; with 1 untraced and traced passes alternate.  The answer is one
  JSON line: per pass the ``walls``/``cpus`` (untraced) or ``trace_walls``
  and per-layer ``layers`` (traced), the checks ``attempted`` and the
  ``failures``.
- ``exit`` (or end of input) prints one JSON line with the machine record
  and ``peak_rss_mb``, then ends the process.

With ``--setup-only`` the worker exits right after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from workloads import WORKLOADS, compare, data_seed, key_numbers


def warm_up() -> None:
    """First-call costs every workload would otherwise pay inside a pass."""
    import numpy as np
    from kgl.dyadic import build_bump_pair

    a = np.ones((64, 64), dtype=complex)
    (a @ a).sum()  # starts the BLAS thread pool
    np.fft.ifft(np.fft.fft(a, axis=0), axis=0)
    build_bump_pair()


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_pass(name: str, seed: int, out_root: str):
    """One pass of a workload; returns (wall_s, cpu_s, outcomes).

    Each outcome is (experiment, report) or (experiment, exception text).
    """
    from kgl import cli

    shutil.rmtree(out_root, ignore_errors=True)
    outcomes = []
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for i, (experiment, overrides) in enumerate(WORKLOADS[name].runs):
        params = dict(cli.DEFAULTS[experiment], **overrides)
        cfg = cli.ExperimentConfig(
            experiment=experiment,
            params=params,
            seed=data_seed(seed),
            out_dir=os.path.join(out_root, f"{i}-{experiment}"),
        )
        try:
            outcomes.append((experiment, cli.run(cfg)))
        except Exception:  # a crash counts as a failed check; the run goes on
            outcomes.append((experiment, traceback.format_exc()))
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return wall, cpu, outcomes


def grade(outcomes, references: list[dict]) -> tuple[int, list[str]]:
    """Checks attempted and the failures: report checks, then key numbers."""
    attempted, failures = 0, []
    for (experiment, report), ref in zip(outcomes, references):
        if isinstance(report, str):
            attempted += 1
            failures.append(f"{experiment}: raised\n{report}")
            continue
        attempted += len(report.checks) + len(ref)
        failures += [f"{experiment}: check {c} failed" for c, ok in report.checks.items() if not ok]
        failures += [f"{experiment}: {m}" for m in compare(key_numbers(experiment, report.metrics), ref)]
    return attempted, failures


def one_pass(args, references: list[dict], traced: bool, result: dict) -> None:
    tracer = None
    if traced:
        from layertrace import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    try:
        wall, cpu, outcomes = run_pass(args.workload, args.seed, os.path.join(args.out, "pass"))
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failures = grade(outcomes, references)
    result["attempted"] += attempted
    result["failures"] += failures
    if tracer is None:
        result["walls"].append(wall)
        result["cpus"].append(cpu)
    else:
        result["trace_walls"].append(wall)
        result["layers"].append(layer_metrics(tracer))
        with open(os.path.join(args.out, "trace_summary.json"), "w") as fh:
            json.dump(tracer.summary(), fh, indent=1, sort_keys=True)
        tracer.save(os.path.join(args.out, "spans.npz"))


def passes(args, references: list[dict], trace: bool, seconds: float) -> dict:
    """Passes until the next would end after ``seconds`` (at least one)."""
    result = {"walls": [], "cpus": [], "trace_walls": [], "layers": [],
              "attempted": 0, "failures": []}
    start = time.perf_counter()
    while True:
        one_pass(args, references, False, result)
        next_pass = statistics.median(result["walls"])
        if trace:
            one_pass(args, references, True, result)
            next_pass += statistics.median(result["trace_walls"])
        if time.perf_counter() - start + next_pass > seconds:
            return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--code", required=True, help="directory the kgl package must come from")
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import kgl.cli  # imports every kgl module

    code = os.path.realpath(args.code)
    if not os.path.realpath(kgl.cli.__file__).startswith(code + os.sep):
        print(f"kgl imported from {kgl.cli.__file__}, not from {code}", file=sys.stderr)
        return 2
    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference.json")) as fh:
        references = json.load(fh)[args.workload][str(data_seed(args.seed))]
    for line in sys.stdin:
        command = line.split()
        if command[:1] == ["passes"] and len(command) == 3:
            result = passes(args, references, command[1] == "1", float(command[2]))
        elif command == ["exit"]:
            break
        else:
            print(f"unknown command {line!r}", file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
    print(json.dumps({
        "machine": machine_record(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
