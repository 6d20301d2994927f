"""capfuse benchmark runner.

Run from the repository root:

    python3 bench/run.py --workload {pretrain,emend,score} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric from a run
whose operations alternate untraced and traced. The line before it holds the
run report: metadata, input properties and output checks. See README.md.

With --setup-only the process sets the workload up, prepares the inputs of
operation 0 and prints the monotonic clock; a timed run starts it several
times to measure set-up from process start.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 7
# Seconds one run of each calibration task takes on the reference host (an
# unloaded 2-vCPU KVM guest). Operation times are scaled to that host's speed,
# which the calibration measures between operations; on a shared host this
# removes much of the drift in its speed. "start" is START_PROBE, which
# calibrates the set-up processes.
CALIBRATION_REF_S = {"numpy": 0.0085, "python": 0.0075, "start": 0.12}
# A fresh interpreter that imports numpy and prints when it is ready: the
# start-up cost every set-up process pays, with no capfuse code in it.
START_PROBE = ("import json, time, numpy; "
               "print(json.dumps({'ready': time.clock_gettime(time.CLOCK_MONOTONIC)}))")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pretrain", "emend", "score"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def use_checkout(root: Path):
    """Import capfuse from the checkout's src/ and the test oracles from its tests/."""
    if not (root / "src" / "capfuse" / "__init__.py").is_file():
        raise SystemExit(f"error: {root} holds no src/capfuse; run from the repository root")
    sys.path[:0] = [str(root / "src"), str(root / "tests")]


# -- measurement ------------------------------------------------------------------


def run_ops(workload, state, seconds: float, tracer=None, calibrate=None):
    """Time-boxed loop over operations 0, 1, 2, ...

    Returns (records, durations, traced flags, failed operations, peak RSS,
    operations before the RSS sample, calibration times, peak RSS after each
    operation). An untraced run makes at least workload.rss_ops operations
    whatever the deadline and samples the peak RSS in MB after them (or at the
    end if the inputs run out first), so the sample always covers the same
    work: a faster program, which fits more operations into the run, is not
    charged for them, and a slower one is not let off. With `calibrate`, the
    calibration task runs before the first operation and after each
    operation, so record k lies between calibration times k and k + 1.

    With a tracer, operations follow the pattern untraced, traced, traced,
    untraced, which balances drift and any period-two effect (such as a
    collection every other operation) between the two sides.
    """
    records, durations, traced, failed, rss, rss_trace = [], [], [], 0, None, []
    cals = [calibrate()] if calibrate else []
    deadline = time.perf_counter() + seconds
    i = 0
    min_ops = workload.rss_ops if tracer is None else 2  # a traced run needs both sides
    while i < state.n_ops and (i < min_ops or time.perf_counter() < deadline):
        on = tracer is not None and i % 4 in (1, 2)
        try:
            inp = workload.inputs(state, i)
            if on:
                with tracer.patch():
                    t0 = time.perf_counter()
                    result = workload.op(state, inp)
                    t1 = time.perf_counter()
            else:
                t0 = time.perf_counter()
                result = workload.op(state, inp)
                t1 = time.perf_counter()
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            failed += 1
            i += 1
            continue
        if calibrate:
            cals.append(calibrate())
        records.append(workload.record(state, inp, result) | {"index": i})
        durations.append(t1 - t0)
        traced.append(on)
        i += 1
        rss_trace.append(peak_rss_mb())
        if i == workload.rss_ops:
            rss = (rss_trace[-1], i)
    rss, rss_at = rss or (peak_rss_mb(), i)
    return records, durations, traced, failed, rss, rss_at, cals, rss_trace


def make_calibration(np, task: str):
    """A fixed task that measures the host's speed, not the program's;
    the returned function times one run of it.

    "numpy": products and elementwise ops on [32 x 512] arrays, as in batched
    training, and products on [5 x 512] arrays, as in beam steps; OpenBLAS
    threads these, so the task also feels contention for the second CPU.
    "python": n-gram counting in dicts, as in the metrics, with the collector
    paused (the task makes no cycles).
    """
    rng = np.random.default_rng(0)
    x, h = rng.normal(size=(32, 128)), rng.normal(size=(5, 128))
    w = rng.normal(size=(128, 512))
    captions = [[f"w{int(t)}" for t in rng.integers(0, 40, size=14)] for _ in range(600)]

    def numpy_task():
        for _ in range(30):
            z = x @ w
            np.tanh(z) * z
        for _ in range(150):
            (h @ w).argmax(axis=1)

    def python_task():
        for tokens in captions:
            for n in (1, 2, 3, 4):
                counts = {}
                for i in range(len(tokens) - n + 1):
                    gram = tuple(tokens[i:i + n])
                    counts[gram] = counts.get(gram, 0) + 1

    run_task = {"numpy": numpy_task, "python": python_task}[task]

    def calibrate() -> float:
        gc.disable()
        try:
            t0 = time.perf_counter()
            run_task()
            return time.perf_counter() - t0
        finally:
            gc.enable()

    return calibrate


def slowdowns(cals, task: str) -> list[float]:
    """Host slowdown against the reference host over each interval between
    consecutive calibrations: their mean time over the task's reference time."""
    return [(a + b) / 2 / CALIBRATION_REF_S[task] for a, b in zip(cals, cals[1:])]


def window_rates(records, durations, cals, key: str, window: int, task: str) -> list[float]:
    """Work per second over consecutive windows of `window` operations. Each
    operation's duration is first divided by the host's slowdown against the
    reference host: the mean of the calibration times around the operation
    over the task's reference time. A trailing partial window is dropped
    unless it is the only one."""
    scaled = [d / s for d, s in zip(durations, slowdowns(cals, task))]
    rates = []
    for lo in range(0, len(records), window):
        hi = min(lo + window, len(records))
        if hi - lo < window and rates:
            break
        rates.append(sum(r[key] for r in records[lo:hi]) / sum(scaled[lo:hi]))
    return rates


def total_rate(records, durations, key: str) -> float:
    return sum(r[key] for r in records) / sum(durations)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metadata ---------------------------------------------------------------------


def git_sha(root: Path):
    """HEAD commit read from .git without starting a process; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info(np):
    """BLAS name and version from numpy's build config, threads from OpenBLAS."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None,
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS") if k in os.environ}}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                info["threads"] = getattr(lib, fn)()
                return info
    return info


def metadata(root: Path, args, workload, np) -> dict:
    import hashlib

    src = hashlib.sha256()
    for path in sorted((root / "src" / "capfuse").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "git_sha": git_sha(root), "src_sha256": src.hexdigest()[:16],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas": blas_info(np), "numpy": np.__version__,
        "python": platform.python_version(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "config": workload.config(),
    }


# -- modes -------------------------------------------------------------------------


def monotonic() -> float:
    """CLOCK_MONOTONIC, which every process on the host reads alike."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def ready_seconds(root: Path, cmd: list[str]) -> dict:
    """Run `cmd` in a fresh process whose last stdout line is a JSON object
    with "ready", the monotonic clock when it was ready; return that object
    with "ready" replaced by total_s, the time from the process's start. The
    child has ended when this returns."""
    t0 = monotonic()
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True,
                         timeout=120)
    child = json.loads(out.stdout.splitlines()[-1])
    return child | {"total_s": child.pop("ready") - t0}


def setup_only(workload, seed: int) -> int:
    """--setup-only: set up as a timed run does, then print when it was ready."""
    t0 = monotonic()
    state = workload.setup(seed)
    t1 = monotonic()
    workload.inputs(state, 0)
    ready = monotonic()
    print(json.dumps({"ready": ready, "setup_s": t1 - t0, "inputs_s": ready - t1}))
    return 0


def timed_run(workload, args, root: Path, calibrate):
    """setup_s is the median over SETUP_REPEATS fresh processes of their
    set-up time: from the process's start until operation 0 could be timed
    (interpreter start-up, imports, workload.setup and the inputs of
    operation 0). Each is scaled by the START_PROBE processes run before and
    after it. This process then sets up once more, untimed, and runs the
    operations."""
    setup_cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-only"]
    probe_cmd = [sys.executable, "-c", START_PROBE]
    probes, setups = [ready_seconds(root, probe_cmd)["total_s"]], []
    for _ in range(SETUP_REPEATS):
        setups.append(ready_seconds(root, setup_cmd))
        probes.append(ready_seconds(root, probe_cmd)["total_s"])
    setup_s = [c["total_s"] / s for c, s in zip(setups, slowdowns(probes, "start"))]
    state = workload.setup(args.seed)
    records, durations, _, op_failed, rss, rss_at, cals, rss_trace = run_ops(
        workload, state, args.seconds, calibrate=calibrate)
    if not records:
        return op_failed, op_failed, None, {}
    failed, mlm_loss, report = workload.finish(state, records)
    rates = {k: window_rates(records, durations, cals, k, workload.window, workload.host_task)
             for k in ("tokens", "captions")}
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "tokens_per_s": (statistics.median(rates["tokens"]), "1/s"),
        "captions_per_s": (statistics.median(rates["captions"]), "1/s"),
        "peak_rss_mb": (rss, "MB"),
        "mlm_loss": (mlm_loss, "nats"),
    }
    report["timing"] = {
        "setup_children": setups, "setup_probes_s": probes, "setup_s_scaled": setup_s,
        "calibration_s": cals, "captions_per_s_windows": rates["captions"],
        "tokens_per_s_raw_total": total_rate(records, durations, "tokens"),
        "captions_per_s_raw_total": total_rate(records, durations, "captions"),
        "rss_sampled_after_ops": rss_at, "peak_rss_mb_after_op": rss_trace,
        "ops": len(records),
        "op_s": durations, "op_tokens": [r["tokens"] for r in records],
    }
    return len(records) + op_failed, failed + op_failed, metrics, report


def traced_run(workload, args):
    from tracing import Tracer

    tracer = Tracer()
    with tracer.patch():
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_wall = time.perf_counter() - t0
    records, durations, traced, op_failed, *_ = run_ops(workload, state, args.seconds, tracer)
    if not records:
        return op_failed, op_failed, None, {}
    failed, _, report = workload.finish(state, records)
    on = [r for r, t in zip(records, traced) if t], [d for d, t in zip(durations, traced) if t]
    off = ([r for r, t in zip(records, traced) if not t],
           [d for d, t in zip(durations, traced) if not t])
    layers = tracer.layer_metrics(setup_wall + sum(on[1]))
    if on[0] and off[0]:
        overhead = (total_rate(*off, "captions") / total_rate(*on, "captions") - 1.0) * 100
    else:
        overhead = 0.0
    layers["trace.overhead_pct"] = overhead
    layers["trace.ops"] = len(on[0])
    units = {"_s": "s", "_pct": "%", "_ratio": "ratio"}
    metrics = {k: (v, next((u for sfx, u in units.items() if k.endswith(sfx)), "count"))
               for k, v in layers.items()}
    report["trace"] = {"untraced_ops": len(off[0]), "traced_ops": len(on[0]),
                       "setup_wall_s": setup_wall, "missing_targets": tracer.missing}
    return len(records) + op_failed, failed + op_failed, metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    use_checkout(root)
    import numpy as np
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.setup_only:
        return setup_only(workload, args.seed)
    if args.trace:
        attempted, failed, metrics, report = traced_run(workload, args)
    else:
        attempted, failed, metrics, report = timed_run(
            workload, args, root, make_calibration(np, workload.host_task))
    if metrics is None:
        print(f"error: every operation of {args.workload} failed", file=sys.stderr)
        return 1
    report["metadata"] = metadata(root, args, workload, np)
    report["metadata"]["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
