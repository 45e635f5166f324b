"""The TB calculator façade: energies, forces, stress from one object.

This is the user-facing entry point the MD driver, relaxers and benchmarks
all consume.  A :class:`TBCalculator` owns a model, a Verlet neighbour
list, an eigensolver choice and an optional electronic temperature; it
caches the last evaluation so repeated ``get_*`` calls on an unchanged
structure cost nothing, and it records per-phase wall-clock times in a
:class:`~repro.utils.timing.PhaseTimer` — the instrumentation behind the
T1/T2 step-timing tables.

:class:`_CalculatorBase` holds the glue every calculator shares — the
results cache, the virial → stress tail, the getter surface, and the
Monkhorst–Pack grid set-up with its symmetry-wedge resolver.  The O(N)
calculators of :mod:`repro.linscale.calculator` and the classical
:class:`~repro.classical.StillingerWeber` inherit it too.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ElectronicError, ModelError
from repro.neighbors.verlet import VerletList
from repro.state import CalculatorState
from repro.tb.eigensolvers import get_solver
from repro.tb.forces import (
    band_forces_k,
    density_matrices,
    repulsive_energy_forces,
)
from repro.tb.hamiltonian import build_hamiltonian, build_hamiltonian_k
from repro.tb.kpoints import KGRID_REDUCE_MODES, frac_to_cartesian, reduced_kgrid
from repro.tb.occupations import fermi_dirac_occupations, homo_lumo_gap
from repro.tb.symmetry import rewedge, symmetrize_forces, symmetrize_virial
from repro.units import EV_PER_A3_TO_GPA, KB
from repro.utils.timing import PhaseTimer


class _CalculatorBase:
    """Shared cache, force/stress assembly, getters and k-grid set-up.

    Subclasses own a :class:`repro.state.CalculatorState` (``_state``), a
    ``_params()`` tuple (what invalidates the electronic state) and
    ``compute(atoms, forces)``; k-sampling subclasses call
    :meth:`_init_kgrid` from ``__init__`` and :meth:`_resolve_kgrid` per
    evaluation.  Everything else — the results cache, the virial →
    stress/pressure tail, and the getter surface — lives here once.
    """

    model = None
    timer: PhaseTimer

    def _params(self) -> tuple:  # pragma: no cover - overridden
        raise NotImplementedError

    def _reset_persistent(self) -> None:  # pragma: no cover - overridden
        """Drop step-to-step caches (lists, patterns, windows, μ)."""

    def invalidate(self) -> None:
        """Forget everything — cached results *and* persistent state.

        Call after mutating model parameters in place; normal structural
        changes are detected automatically through the state protocol.
        """
        self._state = CalculatorState()
        self._results = {}
        self._cache_key = None
        self._sym_cache: tuple = (None, None)
        self._reset_persistent()

    def _cached(self, report, forces: bool) -> dict | None:
        """Cached results, only when they were *stored* for the current
        state generation — a compute that raised after the snapshot was
        taken leaves ``_cache_key`` behind the generation, so a retry at
        the same geometry recomputes instead of serving stale data."""
        if not report.any_change and self._results and \
                self._cache_key == self._state.snapshot_id and \
                (not forces or "forces" in self._results):
            return self._results
        return None

    def _store(self, res: dict) -> dict:
        self._results = res
        self._cache_key = self._state.snapshot_id
        return res

    def _attach_forces(self, res: dict, atoms, fband, frep, vband, vrep
                       ) -> None:
        """Total forces, virial, and — for periodic cells — stress/pressure."""
        res["forces"] = fband + frep
        res["virial"] = vband + vrep
        if atoms.cell.fully_periodic:
            vol = atoms.cell.volume
            res["stress"] = res["virial"] / vol
            res["pressure"] = float(-np.trace(res["virial"]) / (3 * vol))
            res["pressure_gpa"] = res["pressure"] * EV_PER_A3_TO_GPA

    # -- Monkhorst–Pack sampling -------------------------------------------
    def _init_kgrid(self, kpts, kgrid_reduce: str) -> None:
        """Validate the folding mode and fold the static grids.

        ``kpts=None`` is Γ-only.  The ``symmetry`` wedge depends on cell
        *and* basis, so it is left unresolved (``kpts_frac is None``)
        until :meth:`_resolve_kgrid` sees a structure.
        """
        if kgrid_reduce not in KGRID_REDUCE_MODES:
            raise ElectronicError(
                f"unknown kgrid_reduce {kgrid_reduce!r}; choose from "
                f"{KGRID_REDUCE_MODES}")
        self.kgrid_reduce = kgrid_reduce
        self._kgrid_size = kpts
        if kpts is None or kgrid_reduce == "symmetry":
            self.kpts_frac = None
            self.kweights = None
        else:
            self.kpts_frac, self.kweights, _ = reduced_kgrid(kpts,
                                                             kgrid_reduce)

    def _resolve_kgrid(self, atoms):
        """Current folding ops (``None`` outside symmetry mode), updating
        ``kpts_frac`` / ``kweights`` for the current structure.

        Cached by exact cell/positions/species bytes — across a strain
        sweep of a symmetric crystal the *fractional* wedge is invariant,
        so a params signature built from it stays put and warm per-k
        state survives every strain step.  On geometry changes the cached
        ops are revalidated in O(|ops|·N); the full O(N²) detection reruns
        only when an op was lost (:func:`repro.tb.symmetry.rewedge`)."""
        if self._kgrid_size is None:
            return None
        if not atoms.cell.periodic:
            raise ElectronicError("k-point sampling requires a periodic cell")
        if self.kgrid_reduce != "symmetry":
            return None
        key = (atoms.cell.matrix.tobytes(), tuple(atoms.symbols),
               atoms.positions.tobytes())
        cached_key, grid = self._sym_cache
        if cached_key != key:
            g = rewedge(self._kgrid_size, atoms,
                        prev_ops=grid[2] if grid else None)
            grid = (g.kpts_frac, g.weights, g.ops)
            self._sym_cache = (key, grid)
        else:
            obs.counter_inc("symmetry.wedge_cache_hit")
        self.kpts_frac, self.kweights = grid[0], grid[1]
        return grid[2]

    def _kgrid_label(self) -> str:
        """``Γ`` or the k-point count and folding, for ``__repr__``."""
        if self._kgrid_size is None:
            return "Γ"
        if self.kpts_frac is None:
            return "symmetry k-grid (unresolved)"
        return f"{len(self.kpts_frac)} k-points ({self.kgrid_reduce})"

    # -- convenience getters -----------------------------------------------
    def get_potential_energy(self, atoms) -> float:
        """Total energy (eV): band-structure + repulsive."""
        return self.compute(atoms, forces=False)["energy"]

    def get_free_energy(self, atoms) -> float:
        """Mermin free energy E − T·S_el (equals energy at kT = 0 and
        where S is not expanded)."""
        return self.compute(atoms, forces=False)["free_energy"]

    def get_forces(self, atoms) -> np.ndarray:
        """(N, 3) forces in eV/Å."""
        return self.compute(atoms, forces=True)["forces"]

    def get_stress(self, atoms) -> np.ndarray:
        """3×3 potential stress tensor in eV/Å³ (periodic cells only)."""
        res = self.compute(atoms, forces=True)
        if "stress" not in res:
            raise ModelError("stress requires a fully periodic cell")
        return res["stress"]

    def get_pressure(self, atoms) -> float:
        """Potential pressure −tr(virial)/3V in eV/Å³."""
        res = self.compute(atoms, forces=True)
        if "pressure" not in res:
            raise ModelError("pressure requires a fully periodic cell")
        return res["pressure"]

    def get_eigenvalues(self, atoms):
        raise ModelError(
            f"{type(self).__name__} never builds an eigen-spectrum; use "
            "TBCalculator for eigenvalues / gaps"
        )


class TBCalculator(_CalculatorBase):
    """Tight-binding total-energy and force calculator.

    Parameters
    ----------
    model :
        A :class:`~repro.tb.models.base.TBModel`.
    kT :
        Electronic temperature in eV (0 = integer filling; a degenerate
        Fermi shell is shared evenly).
    kpts :
        ``None`` for Γ-only, or a Monkhorst–Pack size tuple / int for
        k-sampled energies **and forces** (per-k Hermitian density
        matrices with the phase-gradient force term).  Small-cell MD and
        relaxation run on either mode.
    kgrid_reduce :
        How the MP grid is folded: ``"trs"`` (default) folds ±k pairs,
        ``"full"`` keeps the raw grid, ``"symmetry"`` folds the crystal
        point group on top of time reversal into an irreducible wedge
        (:mod:`repro.tb.symmetry`) — the wedge is re-detected from the
        structure on every geometry change (a symmetry-broken structure
        degrades to the time-reversal reduction), and forces/virials are
        scattered back through the rotations and atom permutations.
    solver :
        "lapack" (default), "jacobi" or "householder".
    skin :
        Verlet-list skin in Å.
    """

    def __init__(self, model, kT: float = 0.0, kpts=None,
                 solver: str = "lapack", neighbor_method: str = "auto",
                 skin: float = 0.5, kgrid_reduce: str = "trs"):
        self.model = model
        if kT < 0:
            raise ElectronicError("kT must be >= 0")
        self.kT = float(kT)
        self._init_kgrid(kpts, kgrid_reduce)
        if kpts is not None and solver != "lapack":
            # the from-scratch solvers are real-symmetric only and
            # would silently discard the imaginary parts of H(k)
            raise ElectronicError(
                f"k-point sampling needs the 'lapack' eigensolver "
                f"(complex Hermitian H(k)); got solver={solver!r}")
        self.solver_name = solver
        self.solve = get_solver(solver)
        self.timer = PhaseTimer()
        self._vlist = VerletList(rcut=model.cutoff, skin=skin,
                                 method=neighbor_method)
        self.invalidate()

    def _params(self) -> tuple:
        return (self.kT, self.solver_name)

    def _reset_persistent(self) -> None:
        self._vlist.reset()

    def state_report(self) -> dict:
        """Reuse diagnostics (shared calculator-state protocol)."""
        return {"neighbors": self._vlist.stats(),
                "snapshot_id": self._state.snapshot_id}

    # -- main evaluation ----------------------------------------------------------
    def compute(self, atoms, forces: bool = True) -> dict:
        """Evaluate and return the full results dict.

        Keys: ``energy``, ``free_energy``, ``band_energy``,
        ``repulsive_energy``, ``eigenvalues``, ``occupations``,
        ``fermi_level``, ``entropy``, ``homo``/``lumo``/``gap``/
        ``n_orbitals``/``n_pairs`` (Γ-mode), ``n_kpoints``/``weights``
        (k-mode), and — with ``forces=True`` — ``forces``, ``virial``,
        ``stress`` (periodic cells), ``pressure``.

        Structure and parameter changes are detected through the shared
        :class:`repro.state.CalculatorState` contract; an unchanged
        structure returns the cached results without any matrix work.
        """
        report = self._state.observe(atoms, params=self._params())
        cached = self._cached(report, forces)
        if cached is not None:
            return cached
        return self._store(self._compute(atoms, forces))

    def _compute(self, atoms, want_forces: bool) -> dict:
        """One engine over the sampled ``(k, weight)`` pairs.

        Γ is the single pair ``(None, 1.0)``: a real H, so every
        eigensolver runs on it.  A k grid gives complex H(k).  One common
        Fermi level (or zero-temperature filling) is taken over the
        weighted spectrum; forces contract each k point's ρ(k) (and W(k)
        for non-orthogonal models) through
        :func:`repro.tb.forces.band_forces_k` — with the atomic-gauge
        phase-gradient term at k ≠ 0 — and sum with the weights.  In
        ``kgrid_reduce="symmetry"`` mode the sum runs over the
        irreducible wedge only and the band forces/virial are scattered
        back through the folding ops.
        """
        model = self.model
        model.check_species(atoms.symbols)
        sym_ops = self._resolve_kgrid(atoms)
        gamma = self._kgrid_size is None

        with self.timer.phase("neighbors"):
            nl = self._vlist.update(atoms)

        if gamma:
            kpoints = [(None, 1.0)]
        else:
            kpoints = list(zip(frac_to_cartesian(self.kpts_frac, atoms.cell),
                               self.kweights))
        spectra = []
        for k, _ in kpoints:
            with self.timer.phase("hamiltonian"):
                if k is None:
                    H, S = build_hamiltonian(atoms, model, nl)
                else:
                    H, S = build_hamiltonian_k(atoms, model, nl, k)
            with self.timer.phase("diagonalize"):
                eps_k, C_k = self.solve(H, S)
            spectra.append((eps_k, C_k if want_forces else None))
        eps = np.concatenate([e for e, _ in spectra])
        weights = None if gamma else \
            np.repeat(self.kweights, [len(e) for e, _ in spectra])

        with self.timer.phase("occupations"):
            nelec = model.total_electrons(atoms.symbols)
            f, mu, entropy = fermi_dirac_occupations(eps, nelec, self.kT,
                                                     weights=weights)
            band_energy = float(np.sum((f if gamma else weights * f) * eps))

        with self.timer.phase("repulsive"):
            erep, frep, vrep = repulsive_energy_forces(atoms, model, nl)

        energy = band_energy + erep
        res = {
            "band_energy": band_energy,
            "repulsive_energy": erep,
            "energy": energy,
            "free_energy": energy - (self.kT / KB) * entropy
                           if self.kT > 0 else energy,
            "eigenvalues": eps,
            "occupations": f,
            "fermi_level": mu,
            "entropy": entropy,
        }
        if gamma:
            homo, lumo, gap = homo_lumo_gap(eps, f)
            res.update(homo=homo, lumo=lumo, gap=gap, n_orbitals=len(eps),
                       n_pairs=nl.n_pairs)
        else:
            res.update(weights=weights, n_kpoints=len(kpoints))

        if want_forces:
            with self.timer.phase("forces"):
                fband = np.zeros((len(atoms), 3))
                vband = np.zeros((3, 3))
                need_w = not model.orthogonal
                pos = 0
                for (k, wk), (eps_k, C_k) in zip(kpoints, spectra):
                    f_k = f[pos:pos + len(eps_k)]
                    pos += len(eps_k)
                    rho, w = density_matrices(C_k, f_k,
                                              eps_k if need_w else None)
                    fb, vb = band_forces_k(atoms, model, nl, rho, k, w=w)
                    fband += wk * fb
                    vband += wk * vb
                if sym_ops is not None:
                    fband = symmetrize_forces(fband, sym_ops, atoms.cell)
                    vband = symmetrize_virial(vband, sym_ops, atoms.cell)
                self._attach_forces(res, atoms, fband, frep, vband, vrep)
        return res

    def get_eigenvalues(self, atoms) -> np.ndarray:
        return self.compute(atoms, forces=False)["eigenvalues"]

    def get_gap(self, atoms) -> float:
        res = self.compute(atoms, forces=False)
        if "gap" not in res:
            raise ModelError("gap reporting is Γ-only")
        return res["gap"]

    def __repr__(self) -> str:
        return (f"TBCalculator(model={self.model.name!r}, "
                f"{self._kgrid_label()}, kT={self.kT} eV, "
                f"solver={self.solver_name!r})")
