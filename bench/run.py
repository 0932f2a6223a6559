"""riskminer benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]

Run from the root of a source checkout; the program under test is
``src/riskminer``, run through its CLI with ``PYTHONPATH=src``. Workloads
are defined in ``bench/workloads.py``; ``bench/README.md`` says why each was
chosen and what each per-layer metric should move.

A run makes the workload's inputs from the seed (untimed), then runs the
workload again and again, each time in fresh subprocesses started one after
another, until about ``--seconds`` seconds are measured (at least two
runs). The harness waits on each child with ``os.wait4`` for its wall time,
CPU time and peak RSS (which covers the child's own children). Before each
run, and once after the last, it runs a block of ``bench/probe.py``, which
measures the machine's current speed; the invocation's timings are scaled
by that speed to reference seconds. Before each run it also times a few
fresh processes that import riskminer and load its schema and factor
catalog (``setup_s``).
After the loop it digests every run's output files and checks them; a run
that exits non-zero, fails a check, or writes files whose digest differs
from the first run's counts as failed.

With ``--trace 1`` the loop is followed by one traced run (the CLI under
``bench/spans.py``), and the per-layer metrics come from its spans.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``). The lines before
it give every metric with its unit and sample count, the error rate and the
machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PER_RUN = 5  # set-up samples taken before each workload run
PROBE_CHUNKS = 250  # chunks of bench/probe.py per probe block, about 1 s
# A probe chunk's wall time on the 2-vCPU Intel Xeon VM the benchmark was
# built on (Python 3.11, numpy 2.4), when nothing else slows it down. A wall
# time scaled by REFERENCE_CHUNK_S / (mean chunk time around it) is in
# reference seconds.
REFERENCE_CHUNK_S = 0.0035
MIN_RUNS = 2  # so every invocation compares output digests across runs
CHILD_TIMEOUT_S = 150.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_CODE = "import riskminer; riskminer.default_schema(); riskminer.default_factor_map()"

sys.path.insert(0, BENCH_DIR)
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env.pop("RISKMINER_SEED", None)
    return env


class RunError(Exception):
    """A failure that leaves no result to report."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int  # first non-zero exit code, else 0


def spawn(argv: list[str], log_path: str) -> Sample:
    """Run one child to completion and read its own rusage with wait4."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=log, stderr=log)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # SIGTERM or Ctrl-C: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def probe_block(log_path: str) -> list[float]:
    """Chunk times of one speed-probe block (``bench/probe.py``)."""
    with open(log_path, "ab") as log:
        out = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "probe.py"), str(PROBE_CHUNKS)],
                             env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                             timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RunError(f"speed probe exited with code {out.returncode}")
    return json.loads(out.stdout)


def run_steps(steps: list[list[str]], log_path: str, spans: str | None = None) -> Sample:
    """One workload run: its CLI steps back to back. Wall and CPU time add
    up over the steps; peak RSS is the largest step's. With ``spans``, step
    i runs under ``spans.py`` and leaves its spans in ``spans/i.json``."""
    total = Sample(0.0, 0.0, 0.0, 0)
    for i, step in enumerate(steps):
        if spans is None:
            argv = [sys.executable, "-m", "riskminer.cli", *step]
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR, "spans.py"), os.path.join(spans, f"{i}.json"), *step]
        s = spawn(argv, log_path)
        total.wall_s += s.wall_s
        total.cpu_s += s.cpu_s
        total.peak_rss_mb = max(total.peak_rss_mb, s.peak_rss_mb)
        if s.status != 0:
            total.status = s.status
            break
    return total


def read_spans(spans: str) -> list[list]:
    """The spans each traced step of one run left, in step order."""
    out = []
    for name in sorted(os.listdir(spans), key=lambda n: int(n.split(".")[0])):
        with open(os.path.join(spans, name), encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(out_dir)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def setup_sample(log_path: str) -> float:
    """Wall time of a fresh process that imports riskminer and loads the
    shipped schema and factor catalog."""
    s = spawn([sys.executable, "-c", SETUP_CODE], log_path)
    if s.status != 0:
        raise RunError(f"set-up process exited with code {s.status}")
    return s.wall_s


def git_commit() -> str:
    """The checked-out commit; ``unknown`` outside a git clone."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            # do not report the commit of a repository that merely encloses the checkout
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine(seed: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def run_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def check_outputs(workload, rm, inputs: str, samples: list[Sample], out_dirs: list[str]) -> list[str]:
    """One failure line per failed run. Each distinct output set is checked
    once, and every run must write the same bytes as the first."""
    digests = [digest(d) for d in out_dirs]
    problems: dict[str, list[str]] = {}
    for d, out in zip(digests, out_dirs):
        if d not in problems:
            try:
                problems[d] = workload.check(rm, inputs, out)
            except (OSError, ValueError, KeyError, rm.errors.RiskminerError) as exc:
                problems[d] = [f"output check raised {exc!r}"]
    failures = []
    for i, (s, d) in enumerate(zip(samples, digests)):
        reasons = [f"exit code {s.status}"] if s.status != 0 else []
        if d != digests[0]:
            reasons.append("output digest differs from the first run's")
        reasons += problems[d]
        if reasons:
            failures.append(f"run {i}: " + "; ".join(reasons))
    return failures


def measure(args, workload, work: str) -> tuple[dict, int, list[str], dict]:
    """Make the inputs, run the timed loop (and the traced run), check the
    outputs; return (metrics, runs attempted, failures, raw samples)."""
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    log = os.path.join(work, "children.log")

    def generate(step):
        s = run_steps([step], log)
        if s.status != 0:
            raise RunError(f"input generation exited with code {s.status}")

    workload.prepare(args.seed, inputs, generate)
    setup_sample(log)  # warm-up: compiles bytecode, fills the page cache

    # Probe blocks and set-up samples sit between runs, outside the run
    # clock, so that they see the same machine conditions as the runs.
    samples: list[Sample] = []
    out_dirs: list[str] = []
    setup: list[float] = []
    chunks: list[float] = []
    start = time.perf_counter()
    while True:
        chunks += probe_block(log)
        if args.trace == 0:
            setup += [setup_sample(log) for _ in range(SETUP_PER_RUN)]
        out = os.path.join(work, f"run-{len(samples)}")
        os.makedirs(out)
        samples.append(run_steps(workload.steps(inputs, out), log))
        out_dirs.append(out)
        elapsed = time.perf_counter() - start
        if len(samples) >= MIN_RUNS and elapsed * (1 + 1 / len(samples)) > args.seconds:
            break
    chunks += probe_block(log)
    untraced = list(samples)

    if args.trace:
        out = os.path.join(work, "run-traced")
        spans = os.path.join(work, "spans")
        os.makedirs(out)
        os.makedirs(spans)
        traced = run_steps(workload.steps(inputs, out), log, spans)
        samples.append(traced)
        out_dirs.append(out)

    # Imported only now: a child's peak RSS from wait4 includes the RSS of
    # this process, which numpy would raise above that of a small child.
    sys.path.insert(0, SRC)
    import riskminer as rm

    failures = check_outputs(workload, rm, inputs, samples, out_dirs)

    n = len(untraced)
    wall_s = statistics.median(s.wall_s for s in untraced)
    mean_chunk = statistics.mean(chunks)
    scale = REFERENCE_CHUNK_S / mean_chunk
    if args.trace == 0:
        run_s = wall_s * scale
        metrics = {
            "run_s": metric(run_s, "s", n),
            "records_per_s": metric(workload.records / run_s, "1/s", n),
            "setup_s": metric(statistics.median(setup) * scale, "s", len(setup)),
            "peak_rss_mb": metric(statistics.median(s.peak_rss_mb for s in untraced), "MB", n),
        }
    else:
        from spans import layer_metrics

        metrics = {name: metric(v, _unit(name), 1) for name, v in layer_metrics(read_spans(spans)).items()}
        metrics["run.cpu_s"] = metric(statistics.median(s.cpu_s for s in untraced), "s", n)
        metrics["run.wall_s"] = metric(wall_s, "s", n)
        metrics["run.probe_chunk_s"] = metric(mean_chunk, "s", len(chunks))
        metrics["run.trace_overhead_s"] = metric(traced.wall_s - wall_s, "s", 1)
    raw = {"samples": [vars(s) for s in samples], "setup_samples": setup, "probe_chunks": chunks}
    return metrics, len(samples), failures, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="measure about this long (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result (samples, machine) to this JSON file")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "riskminer", "__init__.py")):
        print(f"no riskminer sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with the same pid
    os.makedirs(work)
    try:
        metrics, attempted, failures, raw = measure(args, workload, work)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        _print_log_tail(os.path.join(work, "children.log"))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only if no other run is using it
        except OSError:
            pass

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine(args.seed),
        "error_rate": metric(len(failures) / attempted, "ratio", attempted),
        "failures": failures,
        "metrics": metrics,
        **raw,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for failure in failures:
        print("FAILED " + failure)
    for name, m in {"error_rate": result["error_rate"], **metrics}.items():
        print(f"  {name:34s} {m['value']:<14.6g} {m['unit']:5s}  (n={m['samples']})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


def _print_log_tail(path: str, lines: int = 20) -> None:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            tail = fh.readlines()[-lines:]
    except OSError:
        return
    sys.stderr.writelines(tail)


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
