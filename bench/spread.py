"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --workload chain --seeds 0-9 [--trace 1]

Each seed is one `bench/run.py` process with the run length of
BENCHMARK.json.  For every metric it prints the median over the seeds and
the distance between the first and third quartiles as a share of that
median, the spread BENCHMARK.json's bounds are set against.  With --json
the summary, and the full record of every run, is also written to that
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="also write the summary to this file")
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values: dict = {}
    units: dict = {}
    records: list = []
    failed = 0
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=600,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        record = json.loads(
            (ROOT / "bench" / "out" / f"{args.workload}-trace{args.trace}.json").read_text()
        )
        records.append(record)
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              file=sys.stderr)

    summary = {}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name], "values": vs}
        shown = "-" if spread is None else f"{spread:.2%}"
        print(f"{args.workload:12} {name:32} median {med:12.6g} {units[name]:6}"
              f" spread {shown:>7}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "trace": args.trace,
             "failed": failed, "metrics": summary, "records": records},
            indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
