"""Run one workload on several seeds and report the spread of each metric.

    python3 bench/repeat.py --workload exact --seeds 1-10
    python3 bench/repeat.py --workload cli --seeds 1-10 --baseline bench/baseline.json

Each run is `bench/run.py` in a fresh process with the run length from
BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (`statistics.quantiles(values, n=4)`), and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound.  `--baseline` stores the summary, with the failure counts
and input digests, under the workload's name in the given JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        stem = f"{args.workload}-seed{seed}-trace{args.trace}"
        detail = json.loads((ROOT / ".bench_out" / f"result-{stem}.json").read_text())
        runs.append((seed, result, detail))
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name in runs[0][1]["metrics"]:
        values = [r["metrics"][name]["value"] for _, r, _ in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else None
        summary[name] = {
            "unit": runs[0][1]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3, "spread": spread,
        }
        bound = bounds.get(name)
        print(f"{name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread}"
              + (f"  bound {bound}" if bound is not None else ""))

    if args.baseline:
        path = Path(args.baseline)
        data = json.loads(path.read_text()) if path.exists() else {}
        entry = data.setdefault(args.workload, {})
        section = {
            "seeds": [seed for seed, _, _ in runs],
            "run_seconds": spec["run_seconds"],
            "metrics": summary,
            "attempted": [r["attempted"] for _, r, _ in runs],
            "failed": [r["failed"] for _, r, _ in runs],
            "failures": {str(seed): d["failures"] for seed, _, d in runs},
            "op_p50_ms": [d["op_p50_ms"] for _, _, d in runs],
            "op_p90_ms": [d["op_p90_ms"] for _, _, d in runs],
            "ops_per_s": [d["ops_per_s"] for _, _, d in runs],
            "input_sha256": {str(seed): d["input_sha256"] for seed, _, d in runs},
        }
        entry["facts"] = {k: v for k, v in runs[0][2]["facts"].items() if k != "seed"}
        if args.trace:
            # the traced runs' own wall time against the untraced runs' is the
            # tracing overhead as the two kinds of run see it
            traced_wall = statistics.median(d["end_to_end"]["wall_s"] for _, _, d in runs)
            section["wall_s"] = traced_wall
            untraced = entry.get("end_to_end", {}).get("metrics", {}).get("wall_s")
            if untraced:
                section["overhead_vs_untraced"] = traced_wall / untraced["median"] - 1
            entry["per_layer"] = section
        else:
            entry["end_to_end"] = section
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
