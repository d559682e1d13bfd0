"""Benchmark of ``kgl``: four workloads, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload toy-evolve --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, ``--workload all`` both for every workload.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, the machine record, the times as measured and any
failed check.

Each workload runs in a worker process (``worker.py``).  The launcher pins
itself, and so every worker, to one CPU, and the BLAS/OpenMP thread count
to 1 before numpy is imported.  An untraced run starts a second worker on
the frozen copy of ``kgl`` in ``baseline/`` and has both run passes at the
same time on that CPU, so the two share every slowdown of the host: it
slows a CPU by up to ~40 % in bursts of 0.5-3 s and drifts by tens of per
cent over minutes.  The program's CPU seconds per pass over the baseline's
cancel that out.  Wall time does not: a pass one worker runs after the
other has stopped has the CPU to itself.  Set-up is measured over
``SETUP_SAMPLES`` starts of the program's worker (the last one goes on to
run the passes) and reported as their median.  See README.md for why each
workload exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline")

SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a workload run must end within 180 s
OUT_ROOT = ".bench_out"


class BenchError(RuntimeError):
    pass


def pin_to_one_cpu() -> None:
    """Pin this process, and so every process it starts, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def worker_env(code: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one CPU for all workers
    env["PYTHONPATH"] = code + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A worker process and its line protocol (see worker.py)."""

    def __init__(self, code: str, args: list[str], deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        # unbuffered, so readline takes no more than one line
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--code", code, *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0, env=worker_env(code),
        )
        try:
            line = self._readline()
            if line != b"ready\n":
                raise BenchError(f"worker not ready (read {line!r}, exit code {self.proc.poll()})")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _readline(self) -> bytes:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(self.deadline - time.monotonic(), 0.0))
        if not ready:
            raise BenchError(f"worker gave no answer within {DEADLINE_S:.0f} s")
        return self.proc.stdout.readline()

    def send(self, command: str) -> None:
        try:
            self.proc.stdin.write(command.encode() + b"\n")
        except OSError as exc:
            raise BenchError(f"worker gone before {command!r} (exit code {self.proc.poll()})") from exc

    def receive(self) -> dict:
        line = self._readline()
        try:
            return json.loads(line)
        except ValueError:
            raise BenchError(f"worker answered {line[:200]!r} (exit code {self.proc.poll()})") from None

    def close(self) -> dict:
        """Ask the worker to end; return its final record."""
        self.send("exit")
        final = self.receive()
        try:
            code = self.proc.wait(timeout=max(self.deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker did not end within {DEADLINE_S:.0f} s") from None
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        self.kill()
        return final

    def kill(self) -> None:
        """Stop the process if it still runs, wait for it, close its pipes."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Raw samples of one workload run.

    Untraced: ``setups``, the program's ``walls``/``cpus`` and the
    baseline's ``base_walls``/``base_cpus``, the two run side by side.
    Traced: the program's ``walls``, ``trace_walls`` and each traced pass's
    ``layers``.
    """
    start = time.perf_counter()
    deadline = time.monotonic() + DEADLINE_S
    out = os.path.join(OUT_ROOT, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    common = ["--workload", name, "--seed", str(seed)]
    src = os.path.join(os.getcwd(), "src")
    result = {"setups": [], "base_walls": [], "base_cpus": []}
    workers: list[Worker] = []
    try:
        for _ in range(0 if trace else SETUP_SAMPLES - 1):
            worker = Worker(src, common + ["--out", out, "--setup-only"], deadline)
            workers.append(worker)
            worker.proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            result["setups"].append(worker.setup_s)
        program = Worker(src, common + ["--out", out], deadline)
        workers.append(program)
        result["setups"].append(program.setup_s)
        if trace:
            program.send(f"passes 1 {seconds - (time.perf_counter() - start):.3f}")
            result.update(program.receive())
        else:
            base = Worker(BASELINE, common + ["--out", os.path.join(out, "baseline")], deadline)
            workers.append(base)
            left = seconds - (time.perf_counter() - start)
            for worker in (program, base):
                worker.send(f"passes 0 {left:.3f}")
            result.update(program.receive())
            base_result = base.receive()
            base.close()
            result["base_walls"] = base_result["walls"]
            result["base_cpus"] = base_result["cpus"]
            result["attempted"] += base_result["attempted"]
            result["failures"] += ["baseline " + f for f in base_result["failures"]]
        result.update(program.close())
    finally:
        for worker in workers:
            worker.kill()
    return result


def end_to_end(result: dict) -> dict[str, tuple[float, str]]:
    attempted = max(result["attempted"], 1)
    return {
        "cpu_rel": (statistics.median(result["cpus"]) / statistics.median(result["base_cpus"]),
                    "ratio"),
        "setup_s": (statistics.median(result["setups"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "check_pass_ratio": (1.0 - len(result["failures"]) / attempted, "ratio"),
    }


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    passes = result["layers"]
    out = {
        name: (statistics.median(p[name][0] for p in passes), unit)
        for name, (_, unit) in passes[0].items()
    }
    traced = statistics.median(result["trace_walls"])
    untraced = statistics.median(result["walls"])
    out["bench.wall_s"] = (untraced, "s")
    out["bench.traced_wall_s"] = (traced, "s")
    out["bench.trace_overhead_s"] = (traced - untraced, "s")
    out["check_fail_ratio"] = (len(result["failures"]) / max(result["attempted"], 1), "ratio")
    return out


def report(name: str, result: dict, metrics: dict) -> None:
    """Human-readable lines: machine record, samples as measured, every metric."""
    print(f"# {name} machine {json.dumps(result['machine'], sort_keys=True)}")
    print(f"# {name} samples: {len(result['walls'])} untraced passes, "
          f"{len(result['base_walls'])} baseline passes beside them, "
          f"{len(result['trace_walls'])} traced passes, {len(result['setups'])} set-ups; "
          f"{result['attempted']} checks attempted, {len(result['failures'])} failed")
    for key in ("setups", "walls", "cpus", "base_walls", "base_cpus", "trace_walls"):
        if result[key]:
            print(f"# {name} {key} (s): {' '.join(f'{v:.4f}' for v in result[key])}")
    for failure in result["failures"][:20]:
        print(f"# {name} FAILED {failure}")
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "kgl", "cli.py")):
        print("run from the repository root: src/kgl/cli.py not found", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            for trace in modes:
                result = run_workload(name, args.seed, args.seconds, trace)
                found = per_layer(result) if trace else end_to_end(result)
                report(name, result, found)
                attempted += result["attempted"]
                failed += len(result["failures"])
                prefix = f"{name}/" if args.workload == "all" else ""
                metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
