"""quasiact benchmark: CLI workloads timed end to end, or replayed with spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/quasiact`` must exist). Each
workload step (see workloads.py) runs in its own interpreter, one at a time.
Iterations of the workload repeat until S seconds have passed; every step's
exit code and output are checked, and each output must be byte-identical
across iterations. All files go to a fresh directory under ``.perfbench/``
that is removed at the end.

--trace 0 reports the end-to-end metrics. --trace 1 runs each step untraced
and then again through the traced replay (step.py --trace), whose outputs
must match the untraced ones byte for byte, and reports the per-layer
metrics; its spans go to ``.perfbench/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give each metric's median,
tail percentile and sample count, the failure ratio and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from summary import describe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# A run ends within 180 s: no iteration starts that would end after
# RUN_LIMIT_S, and a step still running at DEADLINE_S is killed.
RUN_LIMIT_S = 150
DEADLINE_S = 170
# calibration_s takes about this long on the 2-vCPU Xeon VM the benchmark was
# tuned on; see end_to_end.
REFERENCE_CALIBRATION_S = 0.09
CALIBRATION_REPEATS = 3


@dataclass
class StepRun:
    name: str
    phase: str
    exit: int
    main_s: float
    setup_s: float
    rss_mib: float
    out_bytes: int
    calibration_s: list
    digests: dict = field(default_factory=dict)  # "output"/"stdout" -> sha256
    errors: list = field(default_factory=list)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def calibration_s() -> float:
    """Time a fixed mix of interpreter and memory-bound work."""
    start = time.perf_counter()
    table = {}
    for i in range(60_000):
        table[(i, i % 13)] = str(i)
    json.dumps(list(table.values()))
    images = numpy.arange(1 << 21, dtype=numpy.int32)[::-1].copy()
    for _ in range(6):
        images = images[images]
    return time.perf_counter() - start


def run_step(step, directory: str, deadline: float, trace: tuple | None = None) -> StepRun:
    """Run one step in a child interpreter; time it and read its peak RSS.

    The calibration runs just before the step. The child is killed if it is
    still running at ``deadline`` (monotonic), or if this process is stopped.
    """
    calibration = [calibration_s() for _ in range(CALIBRATION_REPEATS)]
    base = os.path.join(directory, step.name)
    timing = base + ".timing.json"
    if os.path.exists(timing):
        os.remove(timing)  # left by the previous iteration
    argv = [sys.executable, str(HERE / "step.py"), timing]
    if trace is not None:
        argv += ["--trace", *trace]
    argv += list(step.argv)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    with open(base + ".stdout", "wb") as out, open(base + ".stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(timing) as fh:
            main_s = json.load(fh)["main_s"]
    except (OSError, ValueError, KeyError):
        main_s = float("nan")
    result = StepRun(
        step.name, step.phase, proc.returncode, main_s, wall - main_s,
        usage.ru_maxrss / 1024, 0, calibration,
    )
    if result.exit != 0:
        with open(base + ".stderr", errors="replace") as fh:
            tail = fh.read()[-400:].strip()
        result.errors.append(f"exit code {result.exit}, expected 0: {tail}")
    if step.output and os.path.exists(step.output):
        result.out_bytes = os.path.getsize(step.output)
        result.digests["output"] = sha256_file(step.output)
    result.digests["stdout"] = sha256_file(base + ".stdout")
    return result


def run_iteration(steps, directory, deadline, trace=None) -> list:
    """Run the steps in order; ``trace`` holds %s-patterns for the spans
    file and the run id, filled in with each step's name."""
    return [
        run_step(step, directory, deadline,
                 None if trace is None else tuple(t % step.name for t in trace))
        for step in steps
    ]


def check_runs(steps, directory, runs_by_iteration) -> None:
    """Fail step runs whose output differs from the first iteration's, then
    check the last outputs in full and fail every run that produced them."""
    for i, step in enumerate(steps):
        runs = [runs[i] for runs in runs_by_iteration]
        for kind, check, path in (
            ("output", step.check_output, step.output),
            ("stdout", step.check_stdout, os.path.join(directory, step.name + ".stdout")),
        ):
            if check is None:
                continue
            first = runs[0].digests.get(kind)
            for r in runs[1:]:
                if r.digests.get(kind) != first:
                    r.errors.append(f"{kind} differs from the first iteration's")
            last = runs[-1]
            if last.exit != 0 or not os.path.exists(path):
                continue
            with open(path) as fh:
                text = fh.read()
            try:
                errors = check(text)
            except Exception as exc:  # a malformed output fails its runs
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            for r in runs:
                if r.digests.get(kind) == last.digests.get(kind):
                    r.errors += [f"{kind}: {e}" for e in errors]


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    sha = None  # a checkout without .git has no sha; source_sha256 names the code
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(runs_by_iteration) -> dict:
    """Metric -> (samples, unit): one sample per iteration, setup per step.

    On the shared 2-vCPU VM this was tuned on, the machine's speed drifts by
    up to a quarter between runs. construct_s and verify_s are therefore
    wall times rescaled by REFERENCE_CALIBRATION_S over the run's median
    calibration time, which cut the quartile spread of most of them between
    runs there by a third to a half; the raw wall times are printed next to
    them. setup_s is not rescaled.
    """
    calibration = statistics.median(
        c for runs in runs_by_iteration for r in runs for c in r.calibration_s
    )
    scale = REFERENCE_CALIBRATION_S / calibration
    print(f"calibration: median {calibration:.6g} s, time scale {scale:.6g}")

    def per_iteration(fn):
        return [fn(runs) for runs in runs_by_iteration]

    def phase_sum(phase):
        return lambda runs: sum(r.main_s for r in runs if r.phase == phase) * scale

    def phase_max_rss(phase):
        return lambda runs: max(r.rss_mib for r in runs if r.phase == phase)

    for phase in ("construct", "verify"):
        wall = per_iteration(phase_sum(phase))
        print(f"{phase} wall time before rescaling (s): "
              + describe(w / scale for w in wall))
    metrics = {
        "construct_s": (per_iteration(phase_sum("construct")), "s"),
        "verify_s": (per_iteration(phase_sum("verify")), "s"),
        "setup_s": ([r.setup_s for runs in runs_by_iteration for r in runs], "s"),
        "construct_rss_mb": (per_iteration(phase_max_rss("construct")), "MiB"),
        "verify_rss_mb": (per_iteration(phase_max_rss("verify")), "MiB"),
        "cert_mb": (per_iteration(lambda runs: sum(r.out_bytes for r in runs) / 1e6), "MB"),
    }
    return metrics


def per_layer(replays_by_iteration, runs_by_iteration, spans_dir, spans_out):
    """Metric -> (samples, unit), plus the exact counts and errors."""
    from layers import report, step_metrics
    from spans import read_jsonl

    times_by_iteration, counts_by_iteration, ratios = [], [], []
    with open(spans_out, "w") as out:
        for it, replays in enumerate(replays_by_iteration):
            times, counts, traced = {}, {}, 0.0
            for r in replays:
                path = os.path.join(spans_dir, f"{it}-{r.name}.jsonl")
                spans = read_jsonl(path)
                with open(path) as fh:
                    out.write(fh.read())
                t, c = step_metrics(spans)
                for k, v in t.items():
                    times[k] = times.get(k, 0.0) + v
                for k, v in c.items():
                    counts[k] = counts.get(k, 0) + v
                traced += sum(s.duration for s in spans if s.name == "step")
            untraced = sum(r.main_s for r in runs_by_iteration[it])
            times_by_iteration.append(times)
            counts_by_iteration.append(counts)
            ratios.append(traced / untraced)

    errors = []
    counts = counts_by_iteration[0]
    if any(c != counts for c in counts_by_iteration[1:]):
        errors.append("per-layer counts differ between iterations")
    if counts["replay.mismatches"]:
        errors.append(f"{counts['replay.mismatches']} replayed pairs disagree with verify")
    metrics = report(times_by_iteration, counts)
    metrics["trace.overhead_ratio"] = (ratios, "ratio")
    return metrics, counts, errors


def check_counts_repeat(counts: dict, workload: str, digest: str) -> list:
    """Compare counts with the last traced run of the same code and workload."""
    path = WORK / "counts.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{digest}:{workload}"
    if key in known and known[key] != counts:
        diff = sorted(k for k in counts if known[key].get(k) != counts[k])
        return [f"counts differ from an earlier run of the same code: {diff}"]
    known[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)
    return []


def measure(args, directory: str) -> tuple[dict, int, int, list]:
    workload = WORKLOADS[args.workload]
    cli_dir = os.path.join(directory, "cli")
    replay_dir = os.path.join(directory, "replay")
    spans_dir = os.path.join(directory, "spans")
    for d in (cli_dir, replay_dir, spans_dir):
        os.mkdir(d)
    steps = workload.steps(args.seed, cli_dir)
    replay_steps = workload.steps(args.seed, replay_dir)

    runs_by_iteration, replays_by_iteration = [], []
    start = time.monotonic()
    deadline = start + DEADLINE_S
    while True:
        began = time.monotonic()
        runs_by_iteration.append(run_iteration(steps, cli_dir, deadline))
        if args.trace:
            it = len(replays_by_iteration)
            spans = os.path.join(spans_dir, f"{it}-%s.jsonl")
            run_id = f"{args.workload}/seed{args.seed}/iteration{it}/%s"
            replays_by_iteration.append(
                run_iteration(replay_steps, replay_dir, deadline, (spans, run_id))
            )
        now = time.monotonic()
        if now - start >= args.seconds or now - start + (now - began) > RUN_LIMIT_S:
            break

    check_runs(steps, cli_dir, runs_by_iteration)
    errors = []
    for runs, replays in zip(runs_by_iteration, replays_by_iteration):
        for run, replay in zip(runs, replays):
            kinds = ("output",) if run.phase == "construct" else ("stdout",)
            for kind in kinds:
                if replay.digests.get(kind) != run.digests.get(kind):
                    replay.errors.append(f"replayed {kind} differs from the CLI's")

    everything = [r for runs in runs_by_iteration + replays_by_iteration for r in runs]
    failed = [r for r in everything if r.errors]
    for r in failed:
        errors += [f"{r.name}: {e}" for e in r.errors]
    print(
        f"{args.workload} seed {args.seed}: {len(runs_by_iteration)} iterations, "
        f"{len(everything)} steps attempted, {len(failed)} failed, "
        f"failed_ratio {len(failed) / len(everything):.6g}"
    )
    if args.trace and not failed:
        spans_out = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics, counts, count_errors = per_layer(
            replays_by_iteration, runs_by_iteration, spans_dir, spans_out
        )
        errors += count_errors + check_counts_repeat(counts, args.workload, source_digest())
        print(f"spans written to {spans_out.relative_to(ROOT)}")
    elif args.trace:
        metrics = {}
    else:
        metrics = end_to_end(runs_by_iteration)
    return metrics, len(everything), len(failed), errors


def main(argv=None) -> int:
    # Stopping the benchmark raises SystemExit, so the running step is
    # killed and the run directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quasiact" / "cli.py").is_file():
        print(f"error: no quasiact sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("provenance " + json.dumps(provenance(args), sort_keys=True))

    WORK.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        metrics, attempted, failed, errors = measure(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    for e in errors:
        print(f"check failed: {e}")
    result = {}
    for name, (samples, unit) in metrics.items():
        samples = [x for x in samples if not math.isnan(x)]  # steps that crashed
        if not samples:
            continue
        print(f"{name} ({unit}): {describe(samples)}")
        result[name] = {"value": statistics.median(samples), "unit": unit}
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
