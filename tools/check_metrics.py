#!/usr/bin/env python
"""CI smoke gate on a ``--metrics`` snapshot: cache hit-rate floors.

The bench-smoke CI job runs a short warm MD (the SC'94 A8 shape) with
``--metrics`` and hands the snapshot JSON to this script.  The state
machinery this repo is built around — warm-μ fused solves, sparse-
pattern reuse, Verlet-list reuse — only shows up as *ratios*, so a
regression that silently drops the calculator to its cold path keeps
every test green while doubling step cost.  This gate fails the build
instead.

Exit 1 if a hit rate or gauge falls below its floor, or if a positive
floor has no data to check: a benchmark that stops emitting its counters
must not leave its gate green.  A floor of 0 (the default) checks
nothing, so a diag-solver snapshot with no fused counters passes.  Run::

    python tools/check_metrics.py metrics.json \
        --min-fused-hit 0.4 --min-pattern-hit 0.5
    python tools/check_metrics.py bench.json --min-traj-size-ratio 3.0
"""

from __future__ import annotations

import argparse
import json
import sys


def rate(counters: dict, hits: list[str], misses: list[str]
         ) -> tuple[float | None, int]:
    """(hit rate, observation count) from counter names; (None, 0) if
    the relevant counters never fired."""
    h = sum(counters.get(k, 0) for k in hits)
    total = h + sum(counters.get(k, 0) for k in misses)
    return (h / total if total else None), int(total)


GATES = {
    # name -> (hit counters, miss counters, CLI floor attribute)
    "fused-path": (["foe.fused"], ["foe.fallback", "foe.cold"],
                   "min_fused_hit"),
    "pattern-cache": (["hamiltonian.pattern_hit"],
                      ["hamiltonian.pattern_miss"], "min_pattern_hit"),
    "neighbor-reuse": (["neighbors.reuse"],
                       ["neighbors.rebuild.init", "neighbors.rebuild.drift",
                        "neighbors.rebuild.strain",
                        "neighbors.rebuild.resize",
                        "neighbors.rebuild.cell-unmappable"],
                       "min_neighbor_reuse"),
}


def _status(value: float | None, floor: float) -> str:
    """Gate verdict: a positive floor with nothing measured fails."""
    if value is None:
        return "FAIL (no data)" if floor > 0 else "no data"
    return "FAIL" if value + 1e-12 < floor else "ok"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("snapshot", help="metrics JSON from a --metrics run")
    ap.add_argument("--min-fused-hit", type=float, default=0.0,
                    help="floor on the warm-mu fused-path hit rate")
    ap.add_argument("--min-pattern-hit", type=float, default=0.0,
                    help="floor on the sparse-pattern cache hit rate")
    ap.add_argument("--min-neighbor-reuse", type=float, default=0.0,
                    help="floor on the Verlet-list reuse rate")
    ap.add_argument("--min-traj-size-ratio", type=float, default=0.0,
                    help="floor on the trajio.xyz_size_ratio gauge (XYZ "
                         "vs PTRJ file size from the A12 benchmark)")
    args = ap.parse_args(argv)
    with open(args.snapshot, encoding="utf-8") as fh:
        snap = json.load(fh)
    counters = snap.get("counters") or {}
    gauges = snap.get("gauges") or {}
    failed = False
    for name, (hits, misses, attr) in GATES.items():
        floor = getattr(args, attr)
        value, n = rate(counters, hits, misses)
        status = _status(value, floor)
        failed |= status.startswith("FAIL")
        shown = "   --" if value is None else f"{value:5.1%}"
        print(f"{name:<16} {shown}  (floor {floor:.1%}, n={n})  {status}")
    gauge_gates = [
        ("traj-size-ratio", "trajio.xyz_size_ratio",
         args.min_traj_size_ratio),
    ]
    for label, gauge_name, floor in gauge_gates:
        value = gauges.get(gauge_name)
        status = _status(value, floor)
        failed |= status.startswith("FAIL")
        shown = "   --" if value is None else f"{value:4.2f}x"
        print(f"{label:<16} {shown}  (floor {floor:.2f}x)  {status}")
    if failed:
        print("\nmetrics gate FAILED: a rate or gauge is below its floor "
              "or has no data", file=sys.stderr)
        return 1
    print("\nmetrics gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
