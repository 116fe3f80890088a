"""Set-up for one benchmark run: runs a workload's set-up commands through
xferad.cli.main, in order, inside the current directory.

run.py starts this script once per set-up repetition, in a fresh process,
and times it from start to exit. Exits 1 if any command fails. With
--trace-out, the commands run traced and the per-layer metrics of the
set-up are written there as JSON.

    python3 perfbench/prepare.py --workload ovr --seed 1 [--trace-out FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402
from xferad.cli import main as xferad_main  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace-out")
    args = p.parse_args()

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    for argv in workloads.build(args.workload, args.seed).setup:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = xferad_main(argv)
        if rc != 0:
            print(f"set-up command failed with exit {rc}: xferad {' '.join(argv)}",
                  file=sys.stderr)
            return 1
    if tracer is not None:
        tracer.uninstall()
        with open(args.trace_out, "w") as f:
            json.dump({k: v for k, (v, _unit) in per_layer_metrics(tracer.spans, 1).items()}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
