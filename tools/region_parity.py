#!/usr/bin/env python
"""Parity of the O(N) region solver and the dense TB engine between two
checkouts.

Runs a fixed set of linscale and dense ``TBCalculator`` cases with
whichever ``repro`` is first on ``PYTHONPATH`` and saves every output
array, then compares two such dumps against fixed bounds.  Use it to
show that a change to either engine keeps the physics::

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

Every linscale step records the energies, μ, entropy, populations,
forces, stress, virial, the dense density matrix of every k point, and
the fused/fallback decision.

Dense ``TBCalculator`` cases (``tb_*``; kT 0 unless given):

* ``tb_cnt120`` — Γ, rattled 120-atom (10,0) XuCarbon tube;
* ``tb_si64`` — Γ, 64-atom rattled Si, lapack, kT 0.1 eV;
* ``tb_si8_jacobi`` / ``tb_si8_householder`` — Γ, rattled Si8;
* ``tb_nonortho_gamma`` / ``tb_nonortho_k2`` — ``NonOrthogonalSilicon``
  on rattled Si8 at Γ and at ``kpts=2`` (kT 0.1 eV);
* ``tb_k222_trs`` / ``tb_k222_full`` / ``tb_k222_symmetry`` — Si8 at
  ``kpts=(2, 2, 2)``, kT 0.1 eV, 3 displaced steps that keep a trigonal
  symmetry.

Each records the energies, μ, entropy, eigenvalues, occupations,
forces, stress (periodic cells), virial and the set of output keys,
and must match to 1e-12.  A zero-temperature metal is left out: its
degenerate-shell filling is pinned by the test suite instead.

``compare`` exits 1 when a bound is broken, a step took a different
path, or a case's output keys differ.
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
#: Bound for every array of a dense ``tb_*`` case, and the array kinds
#: such a case records.
DENSE_BOUND = 1e-12
DENSE_KINDS = ("band_energy", "energy", "free_energy", "fermi_level",
               "entropy", "eigenvalues", "occupations", "forces",
               "stress", "virial")


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


def _record_dense(calc, atoms, out: dict, tag: str) -> None:
    res = calc.compute(atoms, forces=True)
    for key in DENSE_KINDS:
        if key in res:
            out[f"{tag}/{key}"] = np.asarray(res[key])
    out[f"{tag}/keys"] = np.array(sorted(res))


def _dump_dense(out: dict) -> None:
    from repro.geometry import bulk_silicon, nanotube, rattle, supercell
    from repro.tb import GSPSilicon, NonOrthogonalSilicon, TBCalculator
    from repro.tb import XuCarbon

    si8 = rattle(bulk_silicon(), 0.05, seed=8)
    gamma_cases = [
        ("tb_cnt120", TBCalculator(XuCarbon()),
         rattle(nanotube(10, 0, cells=3, periodic=False), 0.05, seed=120)),
        ("tb_si64", TBCalculator(GSPSilicon(), kT=0.1),
         rattle(supercell(bulk_silicon(), 2), 0.05, seed=64)),
        ("tb_si8_jacobi", TBCalculator(GSPSilicon(), solver="jacobi"), si8),
        ("tb_si8_householder",
         TBCalculator(GSPSilicon(), solver="householder"), si8),
        ("tb_nonortho_gamma", TBCalculator(NonOrthogonalSilicon()), si8),
        ("tb_nonortho_k2",
         TBCalculator(NonOrthogonalSilicon(), kT=0.1, kpts=2), si8),
    ]
    for tag, calc, atoms in gamma_cases:
        _record_dense(calc, atoms, out, tag)
        print(tag, "ok")

    base = bulk_silicon()
    shift = _trigonal_shift(base)
    for reduce in ("trs", "full", "symmetry"):
        tag = f"tb_k222_{reduce}"
        at = base.copy()
        calc = TBCalculator(GSPSilicon(), kT=0.1, kpts=(2, 2, 2),
                            kgrid_reduce=reduce)
        for step, amp in enumerate([0.02, 0.01, 0.03]):
            at.positions = at.positions + amp * shift
            _record_dense(calc, at, out, f"{tag}/{step}")
        print(tag, "ok")


def _trigonal_shift(base):
    """Unit shift of the (¼,¼,¼) sublattice along [111]: keeps a
    trigonal wedge."""
    frac = base.cell.fractional(base.positions)
    sub_b = np.isclose((4 * frac).round() % 2, 1).all(axis=1)
    shift = np.zeros_like(base.positions)
    shift[sub_b] = 1.0
    return shift


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
    shift = _trigonal_shift(base)
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

    _dump_dense(out)
    np.savez_compressed(path, **out)
    print(f"wrote {len(out)} arrays to {path}")


def compare(old_path: str, new_path: str) -> int:
    old, new = np.load(old_path), np.load(new_path)
    if set(old.files) != set(new.files):
        print("different outputs:",
              sorted(set(old.files) ^ set(new.files)))
        return 1
    worst: dict[str, float] = {}
    dense_worst: dict[str, float] = {}
    keys_differ = []
    for name in old.files:
        kind = name.rsplit("/", 1)[1]
        kind = "rho" if kind.startswith("rho") else kind
        if kind == "keys":
            if old[name].tolist() != new[name].tolist():
                keys_differ.append(name)
            continue
        diff = float(np.max(np.abs(old[name].astype(complex)
                                   - new[name].astype(complex)),
                            initial=0.0))
        table = dense_worst if name.startswith("tb_") else worst
        table[kind] = max(table.get(kind, 0.0), diff)
    failed = False
    bounds = [("", kind, bound, worst) for kind, bound in BOUNDS.items()]
    bounds += [("tb ", kind, DENSE_BOUND, dense_worst)
               for kind in DENSE_KINDS]
    for prefix, kind, bound, table in bounds:
        ok = table.get(kind, 0.0) <= bound
        failed |= not ok
        print(f"{prefix + kind:<16} max |Δ| {table.get(kind, 0.0):.2e}  "
              f"(bound {bound:.0e})  {'ok' if ok else 'FAIL'}")
    for name in keys_differ:
        print(f"output keys differ: {name}")
    failed |= bool(keys_differ)
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
