"""Timed passes of `probdatalog run`, their verification, and the metrics.

A pass is one in-process call of `probdatalog.cli.main` with standard output
captured: read, parse, normalize, reason, lineage, exact probability and
JSON, which is what a `probdatalog run` user waits for.  Passes run one
after another in this single process, with no threads.  Verification,
garbage collection between passes and the tracer's installation all stay
outside the timed region.  A reference loop is timed before every untraced
pass and around every set-up sample, and the end-to-end times are rescaled
by it to a machine of fixed speed (see reference.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

from probdatalog import cli

from reference import REFERENCE_S, time_reference
from tracing import UNITS, Tracer
from verify import Reference
from workloads import WORKLOADS, Workload, make

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# The tail percentile needs ten passes beyond it, so a run makes at least
# eleven passes even when they outlast --seconds.
TAIL_BEYOND = 10
MIN_PASSES = TAIL_BEYOND + 1
SETUP_SAMPLES = 7
MAX_REPORTED_PROBLEMS = 20

END_TO_END_UNITS = {"solve_s": "s", "solve_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {**UNITS, "trace.solve_s": "s", "trace.overhead_s": "s"}


def write_program(workload: Workload, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(workload.text, encoding="utf-8")


def setup_once(workload: str, seed: int) -> tuple:
    """(seconds, reference loop seconds) of one fresh process that imports
    the program, generates the workload and writes it: what a run spends
    before its first pass.  The child reads CLOCK_MONOTONIC, which every
    process of the machine shares, as soon as the program is written, and
    then times one reference loop of its own.  Reading the end in the child
    keeps the parent's wait for it, which polls, out of the figure."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    done, ref = map(float, out.split())
    return done - t0, ref


def one_pass(argv: List[str]) -> tuple:
    """(seconds, exit code or None, stdout, exception text or None)."""
    buf = io.StringIO()
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejects its arguments this way
        code = e.code
    except Exception as e:  # a crash is a failed pass, not a failed run
        error = f"{type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    return dt, code, buf.getvalue(), error


def tail(times: List[float]) -> tuple:
    """(value, percentile): the highest percentile of pass time that has
    TAIL_BEYOND passes beyond it."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(
    workload: Workload,
    program: Path,
    seconds: float,
    trace: bool,
    min_passes: int = MIN_PASSES,
    setup_probe: Optional[Callable[[], tuple]] = None,
) -> dict:
    """Run passes for `seconds` (and at least `min_passes`), then verify
    them.  With `trace`, every other pass is traced.  A timed reference
    loop runs before every untraced pass and once more after the last
    pass.  A `setup_probe`, which returns (seconds, reference loop
    seconds), is sampled SETUP_SAMPLES times, spread evenly over the run
    and between passes; each sample is rescaled by the mean of its own
    loop and of one loop here just before and just after it."""
    argv = ["run", "--program", str(program), "--output", "json", "--stats",
            *workload.cli_args]
    tracer = Tracer() if trace else None
    plain: List[float] = []
    traced: Dict[int, float] = {}
    outputs: Counter = Counter()
    crashes: List[str] = []
    refs: List[float] = []
    setup: List[float] = []
    setup_refs: List[float] = []

    def sample_setup() -> None:
        before = time_reference()
        seconds, child = setup_probe()
        setup.append(seconds)
        setup_refs.append((before + child + time_reference()) / 3)

    start = time.perf_counter()
    i = 0
    while i < min_passes or time.perf_counter() - start < seconds:
        due = len(setup) * seconds <= SETUP_SAMPLES * (time.perf_counter() - start)
        if setup_probe is not None and len(setup) < SETUP_SAMPLES and due:
            sample_setup()
        is_traced = tracer is not None and i % 2 == 1
        gc.collect()
        if not is_traced:
            refs.append(time_reference())
        if is_traced:
            tracer.install(i)
        try:
            dt, code, text, error = one_pass(argv)
        finally:
            if is_traced:
                tracer.uninstall()
        if is_traced:
            traced[i] = dt
        else:
            plain.append(dt)
        if error is None:
            outputs[(code, text)] += 1
        else:
            crashes.append(error)
        i += 1
    refs.append(time_reference())
    while setup_probe is not None and len(setup) < SETUP_SAMPLES:
        sample_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = Reference(workload)
    problems = [f"raised {e}" for e in crashes]
    failed = len(crashes)
    for (code, text), count in outputs.items():
        found = check_output(reference, code, text)
        if found:
            failed += count
            problems += found
    return {
        "attempted": i,
        "failed": failed,
        "problems": problems[:MAX_REPORTED_PROBLEMS],
        "plain": plain,
        "refs": refs,
        "traced": traced,
        "peak_rss_mb": peak_rss_mb,
        "setup": setup,
        "setup_refs": setup_refs,
        "tracer": tracer,
    }


def check_output(reference: Reference, code, text: str) -> List[str]:
    if code != 0:
        return [f"exit code {code}: {text.strip()[:200]}"]
    try:
        payload = json.loads(text)
    except ValueError:
        return [f"output is not JSON: {text[:200]!r}"]
    return reference.problems(payload)


def rescaled(times: List[float], refs: List[float]) -> List[float]:
    """Each pass time rescaled to the reference machine by the mean of the
    reference loops just before and just after it (`refs` has one more
    entry than `times`)."""
    return [t * REFERENCE_S / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)]


def end_to_end(run: dict) -> Dict[str, float]:
    """Times in seconds on the reference machine; see "Noise" in README.md."""
    passes = rescaled(run["plain"], run["refs"])
    return {
        "solve_s": statistics.median(passes),
        "solve_tail_s": tail(passes)[0],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(
            [s * REFERENCE_S / r for s, r in zip(run["setup"], run["setup_refs"])]
        ),
    }


def per_layer(run: dict) -> tuple:
    """(metrics, missing): medians over the traced passes."""
    tracer: Tracer = run["tracer"]
    per_pass = [tracer.pass_metrics(i) for i in run["traced"]]
    metrics = {}
    for name, unit in UNITS.items():
        values = [m[name] for m in per_pass if name in m]
        if per_pass and len(values) == len(per_pass):
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = median(values)
    traced = list(run["traced"].values())
    metrics["trace.solve_s"] = statistics.median(traced)
    # Traced and untraced passes alternate, so their means see the same
    # machine conditions.
    metrics["trace.overhead_s"] = statistics.fmean(traced) - statistics.fmean(run["plain"])
    missing = sorted(set(UNITS) - set(metrics))
    return metrics, missing


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from `.git` without running git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="generate and write the program, then exit (times set-up)")
    return p.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    workload = make(args.workload, args.seed)
    if args.setup_only:
        write_program(workload, OUT / f"{workload.name}.setup.pl")
        print(time.monotonic(), time_reference())
        return 0
    program = OUT / f"{workload.name}.pl"
    write_program(workload, program)
    probe = None if args.trace else (lambda: setup_once(args.workload, args.seed))
    run = measure(workload, program, args.seconds, bool(args.trace), setup_probe=probe)
    if args.trace:
        metrics, missing = per_layer(run)
        units = PER_LAYER_UNITS
        run["tracer"].write(str(OUT / f"{workload.name}.spans.tsv"))
    else:
        metrics, missing = end_to_end(run), []
        units = END_TO_END_UNITS
    percentile = None if args.trace else tail(run["plain"])[1]
    wall = {} if args.trace else {
        "solve_s": statistics.median(run["plain"]),
        "solve_tail_s": tail(run["plain"])[0],
        "setup_s": statistics.median(run["setup"]),
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "params": workload.params,
        "cli_args": list(workload.cli_args),
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": run["attempted"],
        "untraced_passes": len(run["plain"]),
        "traced_passes": len(run["traced"]),
        "tail_percentile": percentile,
        "tail_passes_beyond": TAIL_BEYOND,
        "reference_s": REFERENCE_S,
        "wall_metrics": wall,
        "error_rate": run["failed"] / run["attempted"],
        "problems": run["problems"],
        "missing_metrics": missing,
        "setup_samples_s": run["setup"],
        "setup_reference_s": run["setup_refs"],
        "pass_times_s": run["plain"],
        "pass_reference_s": run["refs"],
        "traced_pass_times_s": list(run["traced"].values()),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "metrics": metrics,
    }
    path = OUT / f"{workload.name}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    for problem in run["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0
