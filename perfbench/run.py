"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload forum-link --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory (pure Python, nothing to build).  ``--trace 0``
measures the end-to-end metrics with nothing patched; ``--trace 1``
alternates an untraced pass with a pass whose layer calls are timed
from outside and reports the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a failed correctness check exits 1.

Results, a run manifest and the spans of a traced run are written
under ``.perfbench_runs/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found: run the benchmark "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # Default paths only: a knob left in the environment would select
    # another worker count, stage-1 strategy or shard count.
    ignored = {k: os.environ.pop(k) for k in list(os.environ)
               if k.startswith("REPRO_")}
    import bench

    return bench.run(args.workload, args.seed, args.seconds,
                     bool(args.trace), ROOT,
                     sys.argv[1:] if argv is None else argv, ignored)


if __name__ == "__main__":
    sys.exit(main())
