#!/usr/bin/env python
"""Parity of the O(N) region solver between two checkouts.

Runs a fixed set of linscale cases with whichever ``repro`` is first on
``PYTHONPATH`` and saves every output array, then compares two such
dumps against fixed bounds.  Use it to show that a change to the region
engine or kernel keeps the physics::

    PYTHONPATH=<old checkout>/src python tools/region_parity.py dump old.npz
    PYTHONPATH=src python tools/region_parity.py dump new.npz
    python tools/region_parity.py compare old.npz new.npz

Cases (GSP silicon, kT 0.2 eV):

* ``gamma64`` — Γ, 64-atom rattled Si, two-pass solve, ``reuse=False``;
* ``md9_inline`` / ``md9_pool`` — a 9-step ``reuse=True`` trajectory,
  inline and at ``nworkers=2``, whose displacement schedule makes cold,
  fused and fallback steps all appear;
* ``k222_trs`` / ``k222_symmetry`` — 8-atom Si at ``kpts=(2, 2, 2)``
  with each ``kgrid_reduce``, 5 steps that keep a trigonal symmetry.

Every step records the energies, μ, entropy, populations, forces,
stress, virial, the dense density matrix of every k point, and the
fused/fallback decision.  ``compare`` exits 1 when a bound is broken
or a step took a different path.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

#: Bound per output kind (max absolute difference).
BOUNDS = {
    "band_energy": 1e-10, "energy": 1e-10, "free_energy": 1e-10,
    "fermi_level": 1e-12, "entropy": 1e-12, "populations": 1e-12,
    "rho": 1e-12, "forces": 1e-10, "stress": 1e-10, "virial": 1e-10,
    "mode": 0.0, "used_fallback": 0.0,
}
MODES = ("two-pass", "fused", "fused+fallback")


def _record(calc, atoms, out: dict, tag: str, rhos: list) -> str:
    rhos.clear()
    res = calc.compute(atoms, forces=True)
    for key in ("band_energy", "energy", "free_energy", "fermi_level",
                "entropy", "populations", "forces", "stress", "virial"):
        out[f"{tag}/{key}"] = np.asarray(res[key])
    for ki, rho in enumerate(rhos[-1]):
        out[f"{tag}/rho{ki}"] = rho.toarray()
    fp = res["fastpath"]
    mode = fp["mode"]
    out[f"{tag}/mode"] = np.array(MODES.index(mode))
    out[f"{tag}/used_fallback"] = np.array(bool(fp["used_fallback"]))
    return mode


def dump(path: str) -> None:
    from repro.geometry import bulk_silicon, rattle, supercell
    from repro.linscale import LinearScalingCalculator
    from repro.linscale import calculator as lcalc
    from repro.tb import GSPSilicon

    rhos: list = []
    solve = lcalc.LinearScalingCalculator._solve

    def capture(self, *args, **kwargs):
        foe = solve(self, *args, **kwargs)
        rhos.append(foe.rho_k)
        return foe

    lcalc.LinearScalingCalculator._solve = capture
    gsp = GSPSilicon()
    out: dict = {}

    atoms = rattle(supercell(bulk_silicon(), 2), 0.05, seed=7)
    calc = LinearScalingCalculator(gsp, kT=0.2, order=100, reuse=False)
    print("gamma64", _record(calc, atoms, out, "gamma64", rhos))

    # tiny steps stay inside the μ-Taylor bound (fused); the two jumps
    # push μ past it (fallback)
    amps = [0.0, 1e-5, 1e-5, 0.03, 1e-5, 1e-5, 0.03, 1e-5, 1e-5]
    direction = np.random.default_rng(3).normal(size=atoms.positions.shape)
    for tag, nworkers in (("md9_inline", 1), ("md9_pool", 2)):
        at = atoms.copy()
        calc = LinearScalingCalculator(gsp, kT=0.2, order=100,
                                       nworkers=nworkers, reuse=True)
        modes = []
        for step, amp in enumerate(amps):
            at.positions = at.positions + amp * direction
            modes.append(_record(calc, at, out, f"{tag}/{step}", rhos))
        calc.close()
        print(tag, modes)

    base = bulk_silicon()
    frac = base.cell.fractional(base.positions)
    # the (¼,¼,¼) sublattice moved along [111]: keeps a trigonal wedge
    sub_b = np.isclose((4 * frac).round() % 2, 1).all(axis=1)
    shift = np.zeros_like(base.positions)
    shift[sub_b] = 1.0
    for reduce in ("trs", "symmetry"):
        tag = f"k222_{reduce}"
        at = base.copy()
        calc = LinearScalingCalculator(gsp, kT=0.2, order=100,
                                       kpts=(2, 2, 2), kgrid_reduce=reduce)
        modes = []
        for step, amp in enumerate([0.02, 1e-5, 1e-5, 0.03, 1e-5]):
            at.positions = at.positions + amp * shift
            modes.append(_record(calc, at, out, f"{tag}/{step}", rhos))
        print(tag, modes)

    np.savez_compressed(path, **out)
    print(f"wrote {len(out)} arrays to {path}")


def compare(old_path: str, new_path: str) -> int:
    old, new = np.load(old_path), np.load(new_path)
    if set(old.files) != set(new.files):
        print("different outputs:",
              sorted(set(old.files) ^ set(new.files)))
        return 1
    worst: dict[str, float] = {}
    for name in old.files:
        kind = name.rsplit("/", 1)[1]
        kind = "rho" if kind.startswith("rho") else kind
        diff = float(np.max(np.abs(old[name].astype(complex)
                                   - new[name].astype(complex)),
                            initial=0.0))
        worst[kind] = max(worst.get(kind, 0.0), diff)
    failed = False
    for kind, bound in BOUNDS.items():
        ok = worst.get(kind, 0.0) <= bound
        failed |= not ok
        print(f"{kind:<14} max |Δ| {worst.get(kind, 0.0):.2e}  "
              f"(bound {bound:.0e})  {'ok' if ok else 'FAIL'}")
    print("parity FAILED" if failed else "parity ok")
    return int(failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("dump").add_argument("path")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("old")
    cmp_.add_argument("new")
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        dump(args.path)
        return 0
    return compare(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
