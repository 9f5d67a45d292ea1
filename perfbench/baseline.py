"""Record the environment and a before-state of where time goes.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seed 0 --seconds 25 > perfbench/baseline.json

For every workload it makes one untraced and one traced run and writes, as
JSON: the machine and library versions, the BLAS thread pin, the seed, the
generated inputs' sizes and term statistics, the end-to-end metrics, and
the per-layer metrics with each module's share of op time.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    env = run.environment()
    env["cpu_model"] = cpu_model()
    out = {"seed": args.seed, "seconds": args.seconds, "environment": env, "workloads": {}}
    for name, spec in run.WORKLOADS.items():
        plain = run.measure(name, args.seed, args.seconds, traced=False)
        traced = run.measure(name, args.seed, args.seconds, traced=True)
        if plain["failed"] or traced["failed"]:
            print(f"{name}: failed ops: {plain['errors'] + traced['errors']}", file=sys.stderr)
            return 1
        out["workloads"][name] = {
            "why": spec["why"],
            "inputs": plain["inputs"],
            "end_to_end": {m: plain[m] for m in (*run.END_TO_END, *run.REPORTED)},
            "tail": {"percentile": plain["tail_percentile"], "samples": len(plain["latencies"])},
            "per_layer": traced["layers"],
        }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
