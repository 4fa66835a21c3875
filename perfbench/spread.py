"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload campaign_read --seeds 1-5 \\
        --seconds 12

Runs ``perfbench/run.py`` once per seed, one after another, and prints
per metric the median, the quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``), and the bound from
``BENCHMARK.json`` it must stay under.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=str(ROOT), capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines
                        if line.startswith("repetitions:")))
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed operation(s)")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)
    for name, series in values.items():
        spread = relative_spread(series) if len(series) > 1 else 0.0
        bound = bounds.get(name)
        print(f"{args.workload} {name}: median {statistics.median(series):.5g}"
              f" spread {spread:.4f} (bound {bound}, target < "
              f"{bound / 3 if bound else float('nan'):.4f})")


if __name__ == "__main__":
    sys.exit(main())
