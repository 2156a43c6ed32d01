"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --workloads drift sweep --seeds 1 2 3 4 5
    python3 bench/repeat.py --seeds $(seq 1 10) --out bench/baseline.json

Runs are sequential, one process each, with ``--seconds`` from
BENCHMARK.json unless given.  For every workload and metric it prints the
median, the quartiles and the spread (Q3 - Q1) / median, and flags end-to-end
spreads that exceed a third of the metric's bound in BENCHMARK.json.
``--out`` writes every run's result and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import quartile_spread

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180 + 2 * seconds,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(lines[-2][len("record "):]), json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            start = time.perf_counter()
            record, result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"workload": workload, "seed": seed, "result": result,
                         "wall_s": time.perf_counter() - start,
                         "provenance": record["provenance"],
                         "inputs_sha256": record["inputs_sha256"],
                         "process_throughputs": [p["throughput"] for p in record.get("processes", [])]})
            status = "ok" if result["correct"] else f"FAILED {result['failed']}/{result['attempted']}"
            print(f"{workload} seed {seed}: {status} in {runs[-1]['wall_s']:.1f} s", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        for name, vals in values.items():
            row = {"median": statistics.median(vals), "values": vals}
            if len(vals) >= 2 and row["median"]:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                row.update(q1=q1, q3=q3, spread=quartile_spread(vals))
            summary[workload][name] = row
            flag = ""
            if name in bounds and "spread" in row and name != "setup_s":
                flag = "  <-- above bound/3" if row["spread"] > bounds[name] / 3 else ""
            spread = f"{row['spread']:.4f}" if "spread" in row else "-"
            print(f"  {name:58s} median {row['median']:12.6g}  spread {spread}{flag}")
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace,
                                        "seeds": args.seeds, "summary": summary, "runs": runs},
                                       indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
