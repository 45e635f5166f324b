"""Calculators built on density matrices instead of eigen-spectra.

:class:`LinearScalingCalculator` is the O(N) production path: sparse
Hamiltonian → localization regions → FOE-in-regions → Hellmann–Feynman
forces from core density rows.  It is API-compatible with
:class:`~repro.tb.calculator.TBCalculator` (``compute`` /
``get_potential_energy`` / ``get_forces`` / ``get_stress`` …), so the MD
driver, the relaxers and the CLI run unchanged on top of it; the only
deliberate gap is anything needing an eigen-spectrum (eigenvalues,
HOMO/LUMO gap), which an O(N) method never produces.

With ``reuse=True`` (the default) the calculator keeps **persistent
step-to-step state** — the MD fast path:

* skin-based Verlet neighbour lists (rebuilt only on > skin/2 drift or
  any cell change),
* the sparse-Hamiltonian pattern, with value-only rewrites and
  dirty-row updates when only some atoms moved,
* the localization regions (rebuilt only when the r_loc bond graph
  changes),
* the Chebyshev spectral window (Lanczos bounds, padded; refreshed on
  neighbour-list rebuilds and guarded a posteriori),
* the chemical potential (linear extrapolation of the last two steps
  warm-starts the next solve).

When a warm μ is available, force evaluations use the *fused*
single-pass FOE (:func:`repro.linscale.foe_local.solve_density_regions_fused`)
— one Chebyshev recursion instead of two, with a μ-Taylor correction —
which roughly halves the per-step cost.  All reuse decisions flow
through the shared :class:`repro.state.CalculatorState` contract, so a
cell, species or parameter change always falls back to a full cold
rebuild.  ``reuse=False`` restores the rebuild-everything-per-step
behaviour (benchmark baseline).

:class:`DensityMatrixCalculator` wraps the *dense* O(N)-family kernels —
Palser–Manolopoulos purification (zero temperature) and the global
Chebyshev FOE (finite temperature) — behind the same interface, which is
what the CLI's ``--solver purification|foe`` flags dispatch to and what
the crossover benchmark compares against.  It shares the same state
protocol and reuses its spectral bounds and μ across steps.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import obs
from repro.errors import ElectronicError, ModelError, SpectralWindowError
from repro.neighbors.verlet import VerletList
from repro.state import CalculatorState
from repro.tb.chebyshev import fermi_operator_expansion
from repro.tb.forces import band_forces, repulsive_energy_forces
from repro.tb.hamiltonian import build_hamiltonian
from repro.tb.purification import (
    lanczos_spectral_bounds,
    purify_density_matrix,
    spectral_bounds,
)
from repro.units import EV_PER_A3_TO_GPA, KB
from repro.utils.timing import PhaseTimer

from repro.linscale.foe_local import (
    build_region_gather_maps,
    solve_density_regions,
    solve_density_regions_fused,
    sparse_band_forces,
)
from repro.linscale.kfoe import (
    solve_density_regions_k,
    solve_density_regions_k_fused,
    sparse_band_forces_k,
)
from repro.linscale.regions import extract_regions, region_statistics
from repro.linscale.sparse_hamiltonian import SparseHamiltonianBuilder
from repro.tb.kpoints import KGRID_REDUCE_MODES, frac_to_cartesian, reduced_kgrid
from repro.tb.symmetry import (
    symmetrize_atom_scalars,
    symmetrize_forces,
    symmetrize_virial,
)


def _padded_lanczos_window(H) -> tuple[float, float]:
    """Tight Lanczos bounds + drift pad — the cached Chebyshev window.

    The pad absorbs spectral drift while the window is reused between
    refreshes; the a-posteriori moment guards catch the rare case of the
    spectrum escaping anyway.  One formula for every calculator, so the
    dense and O(N) engines expand on identical windows.
    """
    emin, emax = lanczos_spectral_bounds(H)
    pad = 0.02 * (emax - emin) + 0.2
    return (emin - pad, emax + pad)


class _DensityMatrixCalculatorBase:
    """Shared cache, force/stress assembly and getters.

    Subclasses own a :class:`repro.state.CalculatorState` (``_state``), a
    ``_params()`` tuple (what invalidates the electronic state) and
    ``compute(atoms, forces)``; everything else — the results cache, the
    virial → stress/pressure tail, and the TBCalculator-compatible getter
    surface — lives here once.
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

    # -- convenience getters (TBCalculator-compatible) ---------------------
    def get_potential_energy(self, atoms) -> float:
        """Total energy (eV): band-structure + repulsive."""
        return self.compute(atoms, forces=False)["energy"]

    def get_free_energy(self, atoms) -> float:
        """Mermin free energy E − T·S_el (equals energy where S is not
        expanded)."""
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
            "density-matrix calculators never build an eigen-spectrum; use "
            "TBCalculator for eigenvalues / gaps"
        )


class LinearScalingCalculator(_DensityMatrixCalculatorBase):
    """O(N) tight-binding calculator (FOE in localization regions).

    Parameters
    ----------
    model :
        An *orthogonal* :class:`~repro.tb.models.base.TBModel`.
    kT :
        Electronic temperature in eV; must be > 0 (the Fermi operator is
        expanded, not diagonalised).  Accuracy vs the exact smeared
        diagonalisation is controlled by *r_loc* and *order* together.
    r_loc :
        Localization radius in Å (≥ ``model.cutoff``).  Defaults to
        1.5 × cutoff — a few bonding shells, the regime the paper's
        accuracy tables use.
    order :
        Chebyshev expansion order; needed order grows like
        (spectral width)/kT.
    nworkers, executor :
        Region solves are batched through the process pool
        (:func:`repro.parallel.pool.map_tasks`).
    neighbor_method, skin :
        Verlet-list construction (builder choice, skin margin in Å).
    reuse :
        Keep persistent step-to-step state (neighbour lists, Hamiltonian
        pattern, regions, spectral window, μ) and use the fused
        single-pass FOE when warm — the MD fast path.  ``False`` rebuilds
        everything on every call (the pre-fast-path behaviour, kept as
        the benchmark baseline).
    rho_tol :
        Acceptable μ-Taylor remainder in the fused density matrix; the
        fused solve falls back to an exact second pass beyond it.
    kpts :
        ``None`` for the Γ-point engine, or a Monkhorst–Pack size
        tuple / int for the k-sampled engine
        (:mod:`repro.linscale.kfoe`): complex per-(k, region) blocks off
        the one cached bond pattern, one cached spectral window per k,
        MP-weighted moments → one common μ, weighted density-row and
        force assembly.  This is the path for *small-cell metals* — tiny
        periodic cells whose Γ-only folding would need a large
        supercell.
    kgrid_reduce :
        MP-grid folding: ``"trs"`` (default, −k onto +k with doubled
        weight), ``"full"``, or ``"symmetry"`` — the crystal-point-group
        irreducible wedge (:mod:`repro.tb.symmetry`), re-detected per
        structure, with band forces/virial/populations scattered back
        through the folding ops.  A symmetry-broken structure degrades
        to the time-reversal reduction; the per-k pattern cache, window
        caches and warm-μ fast path all run on the wedge unchanged.
    """

    def __init__(self, model, kT: float = 0.1, r_loc: float | None = None,
                 order: int = 150, nworkers: int = 1, executor=None,
                 neighbor_method: str = "auto", skin: float = 0.5,
                 reuse: bool = True, rho_tol: float = 1e-10, kpts=None,
                 kgrid_reduce: str = "trs"):
        if not model.orthogonal:
            raise ElectronicError(
                "LinearScalingCalculator supports orthogonal models only "
                "(no S-metric FOE)"
            )
        if kT <= 0:
            raise ElectronicError(
                "LinearScalingCalculator needs kT > 0 — the Fermi operator "
                "is expanded at finite electronic temperature"
            )
        self.model = model
        self.kT = float(kT)
        self.r_loc = float(r_loc) if r_loc is not None else 1.5 * model.cutoff
        if self.r_loc < model.cutoff:
            raise ElectronicError(
                f"r_loc = {self.r_loc} Å must be >= model cutoff "
                f"{model.cutoff} Å"
            )
        self.order = int(order)
        self.nworkers = int(nworkers)
        self.executor = executor
        self.reuse = bool(reuse)
        self.rho_tol = float(rho_tol)
        if kgrid_reduce not in KGRID_REDUCE_MODES:
            raise ElectronicError(
                f"unknown kgrid_reduce {kgrid_reduce!r}; choose from "
                f"{KGRID_REDUCE_MODES}")
        self.kgrid_reduce = kgrid_reduce
        self._kgrid_size = kpts
        self._sym_cache: tuple = (None, None)
        if kpts is None or kgrid_reduce == "symmetry":
            # the symmetry wedge depends on cell + basis: resolved per
            # structure at the top of every compute
            self.kpts_frac = None
            self.kweights = None
        else:
            self.kpts_frac, self.kweights, _ = reduced_kgrid(kpts,
                                                             kgrid_reduce)
        self._own_pool = None
        self.timer = PhaseTimer()
        self._neighbor_method = neighbor_method
        self._skin = float(skin)
        self._vlist = VerletList(rcut=model.cutoff, skin=skin,
                                 method=neighbor_method)
        self._vlist_loc = VerletList(rcut=self.r_loc, skin=skin,
                                     method=neighbor_method)
        self._hbuilder = SparseHamiltonianBuilder(model)
        self._counters = {"cache_hits": 0, "foe_cold": 0, "foe_fused": 0,
                          "foe_fallback": 0, "window_refreshes": 0,
                          "window_reuses": 0, "window_invalidations": 0,
                          "region_rebuilds": 0, "region_reuses": 0}
        self.invalidate()

    def _params(self) -> tuple:
        ksig = None if self.kpts_frac is None else \
            tuple(map(tuple, np.round(self.kpts_frac, 12)))
        return (self.kT, self.r_loc, self.order, ksig)

    def _reset_persistent(self) -> None:
        """Drop every step-to-step cache; the next compute is cold."""
        self._vlist.reset()
        self._vlist_loc.reset()
        self._hbuilder.reset()
        self._regions = None
        self._regions_sig = None
        self._windows = None
        self._mu_hist: list[float] = []
        self._last_solve_mode = "none"
        self._gmaps = None
        self._gmaps_key = (None, None)
        self._sym_cache = (None, None)

    def _region_executor(self):
        """The executor region solves run on — user-supplied, or one pool
        kept alive for the calculator's lifetime (an MD run must not pay
        process spawn every step)."""
        if self.executor is not None:
            return self.executor
        if self.nworkers > 1 and self._own_pool is None:
            self._own_pool = ProcessPoolExecutor(max_workers=self.nworkers)
        return self._own_pool

    def close(self) -> None:
        """Shut down the calculator-owned worker pool (no-op otherwise)."""
        if self._own_pool is not None:
            self._own_pool.shutdown()
            self._own_pool = None

    def __del__(self):  # pragma: no cover - interpreter-exit ordering
        with contextlib.suppress(Exception):
            self.close()

    # -- persistent-state helpers ------------------------------------------
    def _get_regions(self, atoms, nl_loc):
        """Cached localization regions, rebuilt only when the r_loc bond
        graph (the filtered pair arrays) changed."""
        sig_ok = (
            self._regions is not None
            and np.array_equal(self._regions_sig[0], nl_loc.i)
            and np.array_equal(self._regions_sig[1], nl_loc.j)
        )
        if sig_ok:
            self._counters["region_reuses"] += 1
            obs.counter_inc("regions.reuse")
            return self._regions
        self._counters["region_rebuilds"] += 1
        obs.counter_inc("regions.rebuild")
        self._regions = extract_regions(atoms, self.model, self.r_loc,
                                        nl=nl_loc)
        self._regions_sig = (nl_loc.i.copy(), nl_loc.j.copy())
        return self._regions

    def _refresh_windows(self, H_k) -> list[tuple[float, float]]:
        """Recompute and cache one padded Chebyshev window per H(k) — a
        one-entry list at Γ (refreshed on neighbour-list rebuilds; see
        :func:`_padded_lanczos_window`).  Bloch spectra shift with k, so
        one shared window would either leak or over-widen every
        expansion."""
        self._windows = [_padded_lanczos_window(H) for H in H_k]
        self._counters["window_refreshes"] += 1
        obs.counter_inc("window.refresh")
        return self._windows

    #: cap on cached densification-map memory (bytes); beyond it the
    #: fused solve falls back to CSR slicing — maps cost O(Σ n_region²),
    #: which would eventually rival the sparse problem itself
    GATHER_MAP_BYTES_MAX = 256 * 1024 * 1024

    def _gather_maps(self, H, regions):
        """Cached per-region densification maps (inline solves only).

        Valid exactly while both the CSR structure (``H.indices`` is the
        builder's cached array on pattern hits) and the region list are
        the cached objects; rebuilt otherwise.  Skipped for pooled
        solves (the maps would have to be shipped to workers) and for
        systems whose maps would exceed :data:`GATHER_MAP_BYTES_MAX`.
        """
        if self.nworkers != 1 or self.executor is not None:
            return None
        nbytes = 4 * sum(r.n_orbitals ** 2 for r in regions)
        if nbytes > self.GATHER_MAP_BYTES_MAX:
            return None
        if self._gmaps is None or \
                self._gmaps_key != (id(H.indices), id(regions)):
            self._gmaps = build_region_gather_maps(H, regions)
            # holding H.indices/regions refs keeps the ids stable
            self._gmaps_key = (id(H.indices), id(regions))
            self._gmaps_anchor = (H.indices, regions)
        return self._gmaps

    def _resolve_kgrid(self, atoms):
        """Current folding ops (``None`` outside symmetry mode), updating
        ``kpts_frac`` / ``kweights`` for the current structure.

        Cached by exact cell/positions/species bytes — across a strain
        sweep of a symmetric crystal the *fractional* wedge is invariant,
        so the params signature stays put and the warm per-k state
        (pattern, windows, μ) survives every strain step.  On geometry
        changes the cached ops are revalidated in O(|ops|·N); the full
        O(N²) detection reruns only when an op was lost
        (:func:`repro.tb.symmetry.rewedge`)."""
        if self.kgrid_reduce != "symmetry":
            return None
        from repro.tb.symmetry import rewedge

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

    def _mu_guess(self) -> float | None:
        """Warm μ: linear extrapolation of the last two converged values."""
        if not self._mu_hist:
            return None
        if len(self._mu_hist) >= 2:
            return 2.0 * self._mu_hist[-1] - self._mu_hist[-2]
        return self._mu_hist[-1]

    def state_report(self) -> dict:
        """Reuse diagnostics: what was rebuilt vs recycled so far.

        Keys: ``neighbors`` / ``neighbors_loc`` (Verlet build/reuse
        counts), ``hamiltonian`` (pattern builds vs value rewrites),
        ``regions``, ``window``, ``foe`` (cold / fused / fallback
        counts), ``cache_hits``.
        """
        c = self._counters
        return {
            "reuse": self.reuse,
            "neighbors": self._vlist.stats(),
            "neighbors_loc": self._vlist_loc.stats(),
            "hamiltonian": self._hbuilder.stats(),
            "regions": {"rebuilds": c["region_rebuilds"],
                        "reuses": c["region_reuses"]},
            "window": {"refreshes": c["window_refreshes"],
                       "reuses": c["window_reuses"],
                       "invalidations": c["window_invalidations"]},
            "foe": {"cold": c["foe_cold"], "fused": c["foe_fused"],
                    "fallback": c["foe_fallback"]},
            "cache_hits": c["cache_hits"],
        }

    # -- main evaluation ----------------------------------------------------
    def compute(self, atoms, forces: bool = True) -> dict:
        """Evaluate and return the full results dict.

        Keys: ``energy``, ``free_energy``, ``band_energy``,
        ``repulsive_energy``, ``fermi_level``, ``entropy``,
        ``populations``, ``charges``, ``n_regions``, ``region_stats``,
        ``order``, ``r_loc``, ``n_orbitals``, ``n_pairs``, ``fastpath``
        and — with ``forces=True`` — ``forces``, ``virial``, ``stress``
        (periodic cells), ``pressure``.  Energies in eV, forces in eV/Å,
        stress/pressure in eV/Å³, entropy in eV/K.
        """
        if not obs.tracing_enabled():
            return self._compute_impl(atoms, forces)
        with obs.span("calc.compute") as sp_:
            res = self._compute_impl(atoms, forces)
            fp = res.get("fastpath") or {}
            sp_.set(natoms=len(atoms),
                    mode=fp.get("mode", self._last_solve_mode))
            return res

    def _compute_impl(self, atoms, forces: bool = True) -> dict:
        kmode = self._kgrid_size is not None
        if kmode and not atoms.cell.periodic:
            raise ElectronicError("k-point sampling requires a periodic cell")
        # resolve the (possibly structure-dependent) wedge *before* the
        # state observation: a changed wedge changes the params signature
        # and correctly forces a full reset of the per-k caches
        sym_ops = self._resolve_kgrid(atoms) if kmode else None

        report = self._state.observe(atoms, params=self._params())
        cached = self._cached(report, forces)
        if cached is not None:
            self._counters["cache_hits"] += 1
            obs.counter_inc("calc.cache_hit")
            return cached
        if not self.reuse or report.needs_full_reset:
            self._reset_persistent()

        model = self.model
        model.check_species(atoms.symbols)

        with self.timer.phase("neighbors"):
            nl = self._vlist.update(atoms)
            nl_loc = self._vlist_loc.update(atoms)

        with self.timer.phase("hamiltonian"):
            moved = report.moved if self.reuse else None
            if kmode:
                kcarts = frac_to_cartesian(self.kpts_frac, atoms.cell)
                H_k = self._hbuilder.build_k(atoms, nl, kcarts, moved=moved)
            else:
                H_k = [self._hbuilder.build(atoms, nl, moved=moved)]

        with self.timer.phase("regions"):
            regions = self._get_regions(atoms, nl_loc)

        if self.reuse and (self._windows is None
                           or self._vlist.last_update_rebuilt
                           or self._vlist_loc.last_update_rebuilt):
            # without reuse the two-pass solve computes its own bounds;
            # refreshing here too would double the Lanczos work
            with self.timer.phase("bounds"):
                self._refresh_windows(H_k)
        elif self.reuse:
            # cached Lanczos window carried over: no re-Lanczos this step
            self._counters["window_reuses"] += 1
            obs.counter_inc("window.reuse")

        with self.timer.phase("foe"):
            foe = self._solve(H_k, regions, atoms, with_rho=forces)
        self._mu_hist = (self._mu_hist + [foe.mu])[-2:]

        with self.timer.phase("repulsive"):
            erep, frep, vrep = repulsive_energy_forces(atoms, model, nl)

        z = np.array([model.n_electrons(s) for s in atoms.symbols])
        populations = foe.populations
        if sym_ops is not None:
            # wedge-accumulated per-atom sums → full-grid values
            populations = symmetrize_atom_scalars(populations, sym_ops)
        energy = foe.band_energy + erep
        res = {
            "band_energy": foe.band_energy,
            "repulsive_energy": erep,
            "energy": energy,
            "free_energy": energy - (self.kT / KB) * foe.entropy,
            "fermi_level": foe.mu,
            "entropy": foe.entropy,
            "populations": populations,
            "charges": z - populations,
            "n_electrons": foe.n_electrons,
            "n_regions": foe.n_regions,
            "region_stats": region_statistics(regions),
            "order": foe.order,
            "r_loc": self.r_loc,
            "spectral_bounds": foe.windows if kmode
                               else foe.spectral_bounds,
            "n_orbitals": H_k[0].shape[0],
            "n_pairs": nl.n_pairs,
            "fastpath": {"mode": self._last_solve_mode,
                         "mu_shift": foe.mu_shift,
                         "used_fallback": foe.used_fallback},
        }
        if kmode:
            res["n_kpoints"] = len(kcarts)
            res["kweights"] = self.kweights

        if forces:
            with self.timer.phase("forces"):
                if kmode:
                    fband, vband = sparse_band_forces_k(
                        atoms, model, nl, foe.rho_k, self.kweights, kcarts)
                    if sym_ops is not None:
                        fband = symmetrize_forces(fband, sym_ops,
                                                  atoms.cell)
                        vband = symmetrize_virial(vband, sym_ops,
                                                  atoms.cell)
                else:
                    fband, vband = sparse_band_forces(atoms, model, nl,
                                                      foe.rho)
                self._attach_forces(res, atoms, fband, frep, vband, vrep)
        return self._store(res)

    def _solve(self, H_k, regions, atoms, with_rho: bool):
        """Cold / warm / fused FOE dispatch, with stale-window recovery.

        Fused when warm (cached windows + warm μ guess, with_rho); on a
        stale-window error, refresh and fall back to the verified
        two-pass solve, which itself retries once after a refresh.  Γ
        solves go through the Γ entry points and k-sampled ones through
        the k entry points — the same engine either way.
        """
        kmode = self._kgrid_size is not None
        nelec = self.model.total_electrons(atoms.symbols)
        common = dict(order=self.order, nworkers=self.nworkers,
                      executor=self._region_executor(),
                      # every H(k) shares the builder's CSR structure, so
                      # one cached map set serves all k points
                      gather_maps=self._gather_maps(H_k[0], regions))

        def fused(mu_guess):
            if kmode:
                return solve_density_regions_k_fused(
                    H_k, self.kweights, regions, nelec, self.kT,
                    windows=self._windows, mu_guess=mu_guess,
                    rho_tol=self.rho_tol, **common)
            return solve_density_regions_fused(
                H_k[0], regions, nelec, self.kT, window=self._windows[0],
                mu_guess=mu_guess, rho_tol=self.rho_tol, **common)

        def two_pass(bracket):
            windows = self._windows if self.reuse else None
            if kmode:
                return solve_density_regions_k(
                    H_k, self.kweights, regions, nelec, self.kT,
                    with_rho=with_rho, windows=windows, mu_bracket=bracket,
                    **common)
            return solve_density_regions(
                H_k[0], regions, nelec, self.kT, with_rho=with_rho,
                window=None if windows is None else windows[0],
                mu_bracket=bracket, **common)

        mu_guess = self._mu_guess() if self.reuse else None

        if self.reuse and with_rho and mu_guess is not None and \
                self._windows is not None:
            try:
                foe = fused(mu_guess)
                if foe.used_fallback:
                    self._counters["foe_fallback"] += 1
                    self._last_solve_mode = "fused+fallback"
                    obs.counter_inc("foe.fallback")
                else:
                    self._counters["foe_fused"] += 1
                    self._last_solve_mode = "fused"
                    obs.counter_inc("foe.fused")
                obs.observe("foe.mu_shift", abs(foe.mu_shift or 0.0))
                obs.current_span().set(mode=self._last_solve_mode,
                                       mu_shift=foe.mu_shift)
                return foe
            except SpectralWindowError:
                self._counters["window_invalidations"] += 1
                obs.counter_inc("window.invalidated")
                self._refresh_windows(H_k)
                # fall through to the verified two-pass solve

        bracket = None
        if self.reuse and mu_guess is not None:
            bracket = (mu_guess - 10.0 * self.kT, mu_guess + 10.0 * self.kT)
        try:
            foe = two_pass(bracket)
        except SpectralWindowError:
            self._counters["window_invalidations"] += 1
            obs.counter_inc("window.invalidated")
            self._refresh_windows(H_k)
            foe = two_pass(bracket)
        self._counters["foe_cold"] += 1
        self._last_solve_mode = "two-pass"
        obs.counter_inc("foe.cold")
        obs.current_span().set(mode="two-pass")
        return foe

    def get_charges(self, atoms) -> np.ndarray:
        """Mulliken charges q_i = Z_i − population_i (|e|)."""
        return self.compute(atoms, forces=False)["charges"]

    def __repr__(self) -> str:
        if self._kgrid_size is None:
            kmode = "Γ"
        elif self.kpts_frac is None:
            kmode = "symmetry k-grid (unresolved)"
        else:
            kmode = f"{len(self.kpts_frac)} k-points ({self.kgrid_reduce})"
        return (f"LinearScalingCalculator(model={self.model.name!r}, "
                f"{kmode}, kT={self.kT} eV, r_loc={self.r_loc:.2f} Å, "
                f"order={self.order}, nworkers={self.nworkers}, "
                f"reuse={self.reuse})")


class DensityMatrixCalculator(_DensityMatrixCalculatorBase):
    """Dense density-matrix calculator: purification or global FOE.

    ``method="purification"`` (Palser–Manolopoulos, kT = 0, gapped
    systems) or ``method="foe"`` (global Chebyshev expansion, kT > 0).
    Orthogonal models only.  Same getter surface as the other
    calculators; ``free_energy`` equals ``energy`` (purification is
    zero-temperature; the dense FOE does not expand the entropy).

    Step-to-step reuse: spectral bounds are cached across calls and
    refreshed on neighbour-list rebuilds; the FOE warm-starts its μ
    search from the last converged value.  ``reuse=False`` disables both.
    """

    def __init__(self, model, method: str = "purification", kT: float = 0.0,
                 order: int = 200, threshold: float = 0.0,
                 neighbor_method: str = "auto", skin: float = 0.5,
                 reuse: bool = True):
        if not model.orthogonal:
            raise ElectronicError(
                "density-matrix calculators support orthogonal models only"
            )
        if method not in ("purification", "foe"):
            raise ElectronicError(f"unknown density-matrix method {method!r}")
        if method == "purification" and kT != 0.0:
            raise ElectronicError(
                "purification is a zero-temperature method; drop the "
                "electronic temperature or use the FOE for kT > 0"
            )
        if method == "foe" and kT <= 0.0:
            raise ElectronicError("the FOE needs kT > 0")
        self.model = model
        self.method = method
        self.kT = float(kT)
        self.order = int(order)
        self.threshold = float(threshold)
        self.reuse = bool(reuse)
        self.timer = PhaseTimer()
        self._vlist = VerletList(rcut=model.cutoff, skin=skin,
                                 method=neighbor_method)
        self.invalidate()

    def _params(self) -> tuple:
        return (self.method, self.kT, self.order, self.threshold)

    def _reset_persistent(self) -> None:
        self._vlist.reset()
        self._bounds = None
        self._mu_prev = None

    def state_report(self) -> dict:
        """Reuse diagnostics (Verlet stats, cached bounds, warm μ)."""
        return {
            "reuse": self.reuse,
            "neighbors": self._vlist.stats(),
            "bounds_cached": self._bounds is not None,
            "mu_warm": self._mu_prev is not None,
        }

    def compute(self, atoms, forces: bool = True) -> dict:
        report = self._state.observe(atoms, params=self._params())
        cached = self._cached(report, forces)
        if cached is not None:
            return cached
        if not self.reuse or report.needs_full_reset or report.cell_changed:
            # dense spectral-bound caches have no a-posteriori guard, so a
            # cell change (which can shift the spectrum) resets them
            self._reset_persistent()
        model = self.model
        model.check_species(atoms.symbols)

        with self.timer.phase("neighbors"):
            nl = self._vlist.update(atoms)
        with self.timer.phase("hamiltonian"):
            H, _ = build_hamiltonian(atoms, model, nl)
        nelec = model.total_electrons(atoms.symbols)

        if self._bounds is None or self._vlist.last_update_rebuilt:
            with self.timer.phase("bounds"):
                if self.method == "purification":
                    self._bounds = spectral_bounds(H)
                else:
                    self._bounds = _padded_lanczos_window(H)

        with self.timer.phase("density_matrix"):
            if self.method == "purification":
                pur = purify_density_matrix(H, nelec,
                                            threshold=self.threshold,
                                            bounds=self._bounds)
                rho = pur.dense_rho_spin_summed()
                band = pur.band_energy
                extra = {"iterations": pur.iterations,
                         "idempotency_error": pur.idempotency_error}
            else:
                try:
                    foe = fermi_operator_expansion(H, nelec, self.kT,
                                                   order=self.order,
                                                   bounds=self._bounds,
                                                   mu_guess=self._mu_prev)
                except SpectralWindowError:
                    # cached window went stale between Verlet rebuilds:
                    # refresh the bounds and re-solve once
                    self._bounds = _padded_lanczos_window(H)
                    foe = fermi_operator_expansion(H, nelec, self.kT,
                                                   order=self.order,
                                                   bounds=self._bounds,
                                                   mu_guess=self._mu_prev)
                rho = foe["rho"]
                band = foe["band_energy"]
                self._mu_prev = foe["mu"]
                extra = {"fermi_level": foe["mu"], "order": foe["order"]}

        with self.timer.phase("repulsive"):
            erep, frep, vrep = repulsive_energy_forces(atoms, model, nl)

        energy = band + erep
        res = {
            "band_energy": band,
            "repulsive_energy": erep,
            "energy": energy,
            "free_energy": energy,
            "method": self.method,
            "n_orbitals": H.shape[0],
            "n_pairs": nl.n_pairs,
            **extra,
        }
        if forces:
            with self.timer.phase("forces"):
                fband, vband = band_forces(atoms, model, nl, rho)
                self._attach_forces(res, atoms, fband, frep, vband, vrep)
        return self._store(res)

    def __repr__(self) -> str:
        return (f"DensityMatrixCalculator(model={self.model.name!r}, "
                f"method={self.method!r}, kT={self.kT} eV)")
