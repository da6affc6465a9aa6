"""premip benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: premip is imported from its `src/`.  The
seed makes the inputs; `--seconds` is how long the closed loop measures.
With `--trace 0` the last line of output holds the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run.  The line before it holds
host facts and the per-pass spread.  Both are also written to
`.perfbench/results/`, and traced runs write their spans to
`.perfbench/spans/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path


def _host_facts(seed: int) -> dict:
    import numpy
    import scipy
    import premip
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scipy": scipy.__version__,
        "numpy": numpy.__version__,
        "premip": premip.__version__,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny instances, for the benchmark's self-test")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = (root / "src").resolve()
    if not (src / "premip" / "__init__.py").is_file():
        print(f"perfbench: no premip sources in {src}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import premip
    if not Path(premip.__file__).resolve().is_relative_to(src):
        print(f"perfbench: premip was imported from {premip.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import bench
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    result = bench.measure(args.workload, args.seed, args.seconds,
                           bool(args.trace), root, tiny=args.tiny)
    detail = result.pop("detail")
    detail.update(_host_facts(args.seed), workload=args.workload,
                  trace=args.trace)
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, **result}, indent=1) + "\n")
    if any(m["value"] != m["value"] for m in result["metrics"].values()):
        print("perfbench: no pipeline completed", file=sys.stderr)
        return 3
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
