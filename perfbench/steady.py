"""Run the benchmark on several seeds and print each metric's median and
spread (quartile distance over median), the figures the bounds in
``BENCHMARK.json`` are checked against.

    python3 perfbench/steady.py serve-hot 1,2,3,4,5,6,7,8,9,10 [--trace 0]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seeds", help="comma-separated seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds.split(","):
        cmd = [sys.executable, *config["command"][1:],
               "--workload", args.workload, "--seed", seed,
               "--seconds", str(config["run_seconds"]),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                              text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed}: correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for name, seen in values.items():
        line = f"{name:36s} median {statistics.median(seen):12.4f}"
        if len(seen) >= 2 and statistics.median(seen):
            line += f"  spread {spread(seen):.3f}"
        if name in bounds:
            line += f"  bound {bounds[name]}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
