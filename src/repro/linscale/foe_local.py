"""Fermi-operator expansion evaluated inside localization regions.

The O(N) electronic kernel of Goedecker & Colombo (1994): instead of one
Chebyshev polynomial of the *global* Hamiltonian (dense FOE,
:mod:`repro.tb.chebyshev`), run the two-term recursion independently in
every localization region, keeping only the density-matrix rows of each
region's core atom.  Each region solve is a block matvec chain
``v_{k+1} = 2 H̃_loc v_k − v_{k−1}`` on the core basis columns — the
block-partitioned matvec idiom — and regions are independent, so they
batch through the process pool.

The paper's central objects (Goedecker & Colombo, PRL 73, 122 (1994)):
the finite-temperature density matrix as the Fermi operator of the
Hamiltonian, ``ρ = f((H − μ)/kT)`` (Eq. 1), its Chebyshev expansion
``ρ ≈ Σ_k c_k T_k(H̃)`` (Eq. 3), and the truncation of each column of ρ
to a localization region, which is what turns the expansion O(N).

This module holds the **one** region engine.  It runs on a list of
Hamiltonians with sampling weights, ``(H_list, weights)``: one sparse
``H(k)`` per k point, each expanded on its own spectral window, all
sharing one chemical potential: :func:`solve_density_regions_k` and
:func:`solve_density_regions_k_fused`, published by
:mod:`repro.linscale.kfoe`.  Γ is the one-k-point, weight-1 case —
:func:`solve_density_regions` and :func:`solve_density_regions_fused`
are thin calls into the engine and return the same result type.

Two evaluation strategies are provided:

**Reference two-pass** (:func:`solve_density_regions`):

1. **Moments** — per (k, region), the scalar Chebyshev moments
   ``m_k = Σ_{μ∈core} [T_k(H̃)]_{μμ}`` and energy moments
   ``e_k = Σ_{μ∈core} [T_k(H̃) H]_{μμ}``.  Weight-summed over k and
   regions these give the electron count ``N(μ) = Σ_k c_k(μ) M_k`` (μ
   found by bisection at scalar cost — no matrix work per trial), the
   band energy, the electronic entropy, and per-atom Mulliken
   populations.
2. **Density rows** — with μ fixed, re-run the recursion accumulating
   ``ρ_rows = Σ_k c_k v_k`` for the core orbitals.  Stacked over regions
   these rows form a sparse approximation ρ̂ of each k's density matrix
   (every orbital is the core of exactly one region); the Hermitised
   ``(ρ̂ + ρ̂ᴴ)/2`` feeds the Hellmann–Feynman force contraction.

**Fused single-pass** (:func:`solve_density_regions_fused`) — the MD fast
path.  The matvec chain is the same for both passes, so with a good μ
guess (last step's value) one recursion can produce *everything*: the
moments **and** a small stack of density-row accumulants — rows of
``f(H)``, ``∂f/∂μ(H)``, … at the guessed μ.  After the pass, the *exact*
μ is bisected from the (exact) moments and the density rows are corrected
by a μ-Taylor series; the remainder is O((Δμ/kT)⁴), checked against a
tolerance, with an automatic second-pass fallback when the guess was too
far off.  Energies, entropy and populations always come from the exact
moments, so only ρ (hence forces) carries the — bounded — Taylor error.
This halves the dominant cost of an MD step.

All scalar functions are expanded with the shared helpers in
:mod:`repro.tb.chebyshev`, on one ``(center, span)`` scaling per k from
tight Lanczos bounds of the sparse H(k) (submatrix spectra interlace, so
every region is covered).  Callers may pass *cached* windows; validity
is then checked a posteriori from the moments (``|m_k| ≤ n_core`` on a
valid window) and a stale window raises
:class:`~repro.errors.SpectralWindowError`.  Orthogonal models only,
like purification.

Every pass — moments, density rows, fused — runs the one region kernel
of :mod:`repro.linscale.backends.base`: a blocked Chebyshev recursion
over a coefficient stack of 0, 1 or 4 rows, fed dense region blocks by a
:class:`~repro.linscale.backends.base.RegionBlockSource`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import ElectronicError, SpectralWindowError
from repro.parallel.decomposition import block_partition
from repro.parallel.pool import map_tasks
from repro.tb.chebyshev import (
    entropy_coefficients,
    fermi_coefficients,
    fermi_mu_derivative_coefficients,
    solve_mu_from_moments_multi,
)
from repro.tb.purification import lanczos_spectral_bounds
from repro.linscale.backends.base import KERNEL, RegionBlockSource, core_rows
from repro.linscale.regions import LocalizationRegion


def build_region_gather_maps(H: sp.csr_matrix,
                             regions: list[LocalizationRegion]
                             ) -> list[np.ndarray]:
    """Per-region dense gather maps into (padded) ``H.data``.

    Regions overlap heavily (every atom sits in ~tens of halos), so
    densifying each region by CSR slicing re-walks the same sparse rows
    over and over — the dominant non-recursion cost of a fast-path step.
    These maps amortise that walk: ``maps[r]`` is an (n, n) int32 array
    with ``h_sub = data_pad[maps[r]]`` where
    ``data_pad = append(H.data, 0.0)`` (the last slot backs structural
    zeros).  Maps depend only on the CSR *structure* and the region
    orbital lists, both of which the fast path already caches — rebuild
    them when either changes.

    Memory is O(Σ n_region²) int32 — the same order as one set of dense
    region Hamiltonians — so callers cap total map size and fall back to
    CSR slicing beyond it (see
    :meth:`~repro.linscale.calculator.LinearScalingCalculator`).
    """
    H = sp.csr_matrix(H)
    indptr, indices = H.indptr, H.indices
    nil = len(H.data)
    maps = []
    for region in regions:
        orb = region.orbitals
        n = len(orb)
        lo = indptr[orb]
        counts = indptr[orb + 1] - lo
        total = int(counts.sum())
        # flat indices into H.data of every stored element in these rows
        offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
        flat = np.repeat(lo - offsets, counts) + np.arange(total)
        row_rep = np.repeat(np.arange(n), counts)
        cols = indices[flat]
        pos = np.searchsorted(orb, cols)
        pos_c = np.minimum(pos, n - 1)
        ok = orb[pos_c] == cols
        m = np.full((n, n), nil, dtype=np.int32)
        m[row_rep[ok], pos_c[ok]] = flat[ok]
        maps.append(m)
    return maps


# ---------------------------------------------------------------------------
# The region engine over (H_list, weights)
# ---------------------------------------------------------------------------

@dataclass
class RegionFOEResult:
    """Everything one O(N) electronic step produces, at Γ or k-sampled.

    ``rho_k`` holds one Hermitised spin-summed sparse density matrix per
    k point, built from core rows (``None`` when the solve was run
    energy-only); ``windows`` are the per-k spectral bounds the
    expansion ran on.  The scalars are weight-summed over k: ``mu`` is
    the one common chemical potential, ``populations`` the per-atom
    Mulliken electron populations (Σ = ``n_electrons``), ``entropy`` in
    eV/K.  ``mu_shift`` is the distance from the warm-start guess to the
    converged μ (0.0 for two-pass solves) and ``used_fallback`` records
    that a fused solve had to run the second density pass after all.

    A Γ solve is the one-k-point case; read its density matrix and
    window as :attr:`rho` and :attr:`spectral_bounds`.
    """

    rho_k: list[sp.csr_matrix] | None
    band_energy: float
    mu: float
    entropy: float
    populations: np.ndarray
    n_electrons: float
    order: int
    windows: list[tuple[float, float]]
    n_regions: int
    weights: np.ndarray
    mu_shift: float = 0.0
    used_fallback: bool = False

    @property
    def n_kpoints(self) -> int:
        return len(self.windows)

    def _gamma(self, values: list):
        if len(values) != 1:
            raise ElectronicError(
                f"result has {len(values)} k points; read the per-k "
                "rho_k / windows lists")
        return values[0]

    @property
    def rho(self) -> sp.csr_matrix | None:
        """The density matrix of a one-k-point (Γ) solve."""
        return None if self.rho_k is None else self._gamma(self.rho_k)

    @property
    def spectral_bounds(self) -> tuple[float, float]:
        """The spectral window of a one-k-point (Γ) solve."""
        return self._gamma(self.windows)


def _scaled_window(emin: float, emax: float) -> tuple[float, float]:
    """(center, span) of the Chebyshev variable, with the stability pad."""
    span = 0.5 * (emax - emin) * 1.01
    center = 0.5 * (emax + emin)
    if span <= 0:
        raise ElectronicError("degenerate spectral bounds")
    return center, span


def _validate_inputs(H_list, weights, regions: list[LocalizationRegion],
                     kT: float, order: int
                     ) -> tuple[list[sp.csr_matrix], np.ndarray]:
    """CSR Hamiltonians and float weights, or a typed error.

    The weights must be a probability distribution over the k points:
    anything else silently rescales the electron count, and the μ search
    then lands on a wrong but self-consistent answer.
    """
    if kT <= 0:
        raise ElectronicError("FOE-in-regions needs kT > 0")
    if order < 2:
        raise ElectronicError("expansion order must be >= 2")
    if len(H_list) == 0:
        raise ElectronicError("need at least one k point")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(H_list),):
        raise ElectronicError(
            f"{len(H_list)} k points but {weights.size} weights")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0) or \
            abs(weights.sum() - 1.0) > 1e-10:
        raise ElectronicError(
            f"k weights must be finite, non-negative and sum to 1; got "
            f"{weights} (sum {weights.sum()})")
    H_list = [sp.csr_matrix(H) for H in H_list]
    shapes = {H.shape for H in H_list}
    if len(shapes) != 1:
        raise ElectronicError(f"inconsistent H(k) shapes {shapes}")
    m_total = H_list[0].shape[0]
    n_core_total = sum(len(r.core_local) for r in regions)
    if n_core_total != m_total:
        raise ElectronicError(
            f"regions cover {n_core_total} core orbitals but H has "
            f"{m_total}; every orbital must be the core of exactly one region"
        )
    return H_list, weights


def _chunk_specs(regions: list[LocalizationRegion], nworkers: int
                 ) -> tuple[list, list]:
    """Region (orbitals, core_local) specs and their pool chunking.

    Workers receive (sparse H, region specs) and densify one region at a
    time; H travels once per chunk, so a pool of nworkers gets exactly
    nworkers chunks (regions are near-equal, block partition balances),
    while the inline/injected-executor path chunks finer so an external
    pool of unknown width can load-balance.
    """
    specs = [(r.orbitals, r.core_local) for r in regions]
    nchunks = nworkers if nworkers > 1 else min(len(regions), 8)
    chunks = [c for c in block_partition(len(regions), nchunks) if len(c)]
    return specs, chunks


def _region_worker(args):
    """One pool chunk of one pass: build a block source over the (shared)
    sparse H and run the kernel's *kind* pass on it — densifying inside
    the worker keeps the parent from shipping dense blocks through the
    pipe."""
    kind, H, specs, center, span, arg = args
    blocks = RegionBlockSource(H, specs)
    return getattr(KERNEL, kind)(blocks, center, span, arg)


class _RegionPasses:
    """Runs kernel passes over every (k, region) of one solve.

    Inline solves (``nworkers == 1``, no executor) keep one block source
    per H(k); with ``cache=True`` both passes of a two-pass solve share
    one densification per (k, region).  Pooled solves fan (k, chunk)
    tasks out k-major through :func:`repro.parallel.pool.map_tasks`, on
    the caller's executor or on one pool owned for the solve's duration
    (a context manager: leaving it shuts that pool down).
    """

    def __init__(self, H_list, regions, nworkers, executor, gather_maps,
                 cache=False):
        self._own_pool = None
        if executor is None and nworkers > 1:
            # one pool for all passes instead of a spawn per map_tasks call
            executor = self._own_pool = ProcessPoolExecutor(
                max_workers=nworkers)
        self.H_list = H_list
        self.nworkers, self.executor = nworkers, executor
        self.specs, self.chunks = _chunk_specs(regions, nworkers)
        self.sources = None
        if executor is None:
            # inline (nworkers == 1): every H(k) shares one CSR
            # structure, so a single gather-map set serves all k points
            self.sources = [RegionBlockSource(H, self.specs,
                                              gather_maps=gather_maps,
                                              cache=cache)
                            for H in H_list]

    def run(self, kind: str, per_k: list) -> list[list]:
        """Per k, the kernel's *kind* outputs in region order; *per_k*
        holds each k's ``(center, span, order-or-coefficients)``."""
        if self.sources is not None:
            return [getattr(KERNEL, kind)(src, *args)
                    for src, args in zip(self.sources, per_k)]
        tasks = [(kind, H, [self.specs[i] for i in c], *args)
                 for H, args in zip(self.H_list, per_k)
                 for c in self.chunks]
        flat = map_tasks(_region_worker, tasks, self.nworkers,
                         self.executor)
        n = len(self.chunks)
        return [[out for chunk in flat[ki * n:(ki + 1) * n] for out in chunk]
                for ki in range(len(self.H_list))]

    def __enter__(self) -> _RegionPasses:
        return self

    def __exit__(self, *exc) -> None:
        if self._own_pool is not None:
            self._own_pool.shutdown()


def _check_window(m_per: np.ndarray, window: tuple[float, float]) -> None:
    """A-posteriori window validity from the moments.

    On a valid window every region eigenvalue maps into [−1, 1], so
    ``|m_k| ≤ n_core`` exactly; outside it T_k grows exponentially and
    the moments blow through that bound within a few k.  Cheap (the
    moments already exist) and reliable for any meaningful violation.
    """
    nc_per = m_per[:, 0]
    if np.any(np.abs(m_per) > nc_per[:, None] * 1.5 + 1.0):
        raise SpectralWindowError(
            f"cached spectral window {window} no longer contains the "
            "Hamiltonian spectrum (Chebyshev moments exceed the n_core "
            "bound); refresh the Lanczos bounds and re-solve"
        )


def _moments_and_mu(per_k: list, windows, scaled, weights,
                    n_electrons: float, kT: float, order: int,
                    mu: float | None, warm_bracket, check: bool):
    """Per-(k, region) moments → window guard, common μ, and the
    weight-summed band energy, entropy, populations and per-k Fermi
    coefficients at μ."""
    m_per_k = [np.stack([out[0] for out in pk]) for pk in per_k]  # (R, K+1)
    e_per_k = [np.stack([out[1] for out in pk]) for pk in per_k]
    if check:
        for m_per, window in zip(m_per_k, windows):
            _check_window(m_per, window)
    m_k = np.stack([mp.sum(axis=0) for mp in m_per_k])          # (nk, K+1)
    e_k = np.stack([ep.sum(axis=0) for ep in e_per_k])

    if mu is None:
        emin = min(w[0] for w in windows)
        emax = max(w[1] for w in windows)
        mu = solve_mu_from_moments_multi(
            m_k, scaled, kT, n_electrons,
            bracket=(emin - 10.0 * kT, emax + 10.0 * kT),
            weights=weights, warm_bracket=warm_bracket)

    coeffs_k = [fermi_coefficients(c, s, mu, kT, order) for c, s in scaled]
    band = float(sum(w * (ck @ ek)
                     for w, ck, ek in zip(weights, coeffs_k, e_k)))
    entropy = float(sum(
        w * (entropy_coefficients(c, s, mu, kT, order) @ mk)
        for w, (c, s), mk in zip(weights, scaled, m_k)))
    populations = sum(w * (mp @ ck)
                      for w, mp, ck in zip(weights, m_per_k, coeffs_k))
    return float(mu), band, entropy, populations, coeffs_k


def _assemble_rho(regions: list[LocalizationRegion], rows_per_region: list,
                  m_total: int) -> sp.csr_matrix:
    """Stack core rows into the symmetrised (Hermitised) sparse ρ̂."""
    coo_r, coo_c, coo_d = [], [], []
    for region, rho_rows in zip(regions, rows_per_region):
        core_global = region.orbitals[region.core_local]
        coo_r.append(np.repeat(core_global, region.n_orbitals))
        coo_c.append(np.tile(region.orbitals, len(core_global)))
        coo_d.append(rho_rows.ravel())
    rho_hat = sp.coo_matrix(
        (np.concatenate(coo_d),
         (np.concatenate(coo_r), np.concatenate(coo_c))),
        shape=(m_total, m_total)).tocsr()
    rho_t = rho_hat.getH() if np.iscomplexobj(rho_hat.data) else rho_hat.T
    return (0.5 * (rho_hat + rho_t)).tocsr()


def solve_density_regions_k(H_list, weights,
                            regions: list[LocalizationRegion],
                            n_electrons: float, kT: float, order: int = 150,
                            mu: float | None = None, nworkers: int = 1,
                            executor=None, with_rho: bool = True,
                            windows: list[tuple[float, float]] | None = None,
                            mu_bracket: tuple[float, float] | None = None,
                            gather_maps: list[np.ndarray] | None = None
                            ) -> RegionFOEResult:
    """k-sampled FOE-in-regions (reference two-pass solve).

    The one two-pass implementation; :func:`solve_density_regions` is
    its one-k-point, weight-1 case.  Public home:
    :mod:`repro.linscale.kfoe`.

    Parameters
    ----------
    H_list :
        One complex Hermitian (or real symmetric, at Γ) sparse
        Hamiltonian per k point, all on the same orbital layout.
    weights :
        Sampling weights: finite, non-negative, summing to 1 (else
        :class:`~repro.errors.ElectronicError`).  Pair with a
        time-reversal-reduced grid from
        :func:`repro.tb.kpoints.monkhorst_pack` to halve the k work
        exactly.
    regions :
        k-independent localization regions of the folded neighbour
        graph (:func:`repro.linscale.regions.extract_regions`).
    windows :
        Optional cached per-k spectral bounds; recomputed by per-k
        Lanczos otherwise.  Stale windows raise
        :class:`~repro.errors.SpectralWindowError` through the per-k
        a-posteriori moment guard.
    mu_bracket :
        Optional warm bracket for the common μ (e.g. last step's μ ± a
        few kT); verified and widened automatically.
    gather_maps :
        Every H(k) shares one CSR structure, so a single gather-map set
        serves all k points on the inline path.

    Other parameters as in :func:`solve_density_regions`.
    """
    H_list, weights = _validate_inputs(H_list, weights, regions, kT, order)
    cached_window = windows is not None
    if not cached_window:
        windows = [lanczos_spectral_bounds(H) for H in H_list]
    scaled = [_scaled_window(emin, emax) for emin, emax in windows]

    with _RegionPasses(H_list, regions, nworkers, executor, gather_maps,
                       cache=with_rho) as passes:
        # -- pass 1: moments → μ, band energy, entropy, populations --------
        per_k = passes.run("moments", [(c, s, order) for c, s in scaled])
        mu, band, entropy, populations, coeffs_k = _moments_and_mu(
            per_k, windows, scaled, weights, n_electrons, kT, order, mu,
            mu_bracket, check=cached_window)
        # -- pass 2: core density rows → sparse ρ(k) -----------------------
        rows_k = None
        if with_rho:
            rows_k = passes.run("density_rows",
                                [(c, s, ck) for (c, s), ck
                                 in zip(scaled, coeffs_k)])

    m_total = H_list[0].shape[0]
    rho_k = None if rows_k is None else \
        [_assemble_rho(regions, rows, m_total) for rows in rows_k]
    return RegionFOEResult(
        rho_k=rho_k, band_energy=band, mu=mu, entropy=entropy,
        populations=populations, n_electrons=float(populations.sum()),
        order=order, windows=windows, n_regions=len(regions),
        weights=weights)


def solve_density_regions_k_fused(H_list, weights,
                                  regions: list[LocalizationRegion],
                                  n_electrons: float, kT: float,
                                  order: int = 150, *,
                                  windows: list[tuple[float, float]],
                                  mu_guess: float,
                                  nworkers: int = 1, executor=None,
                                  rho_tol: float = 1e-10,
                                  gather_maps: list[np.ndarray] | None = None
                                  ) -> RegionFOEResult:
    """Single-pass k-sampled FOE with per-k μ-Taylor correction.

    The one fused implementation; :func:`solve_density_regions_fused`
    is its one-k-point, weight-1 case (see there for the method and
    *rho_tol*).  Public home: :mod:`repro.linscale.kfoe`.  Each k is
    expanded on **its own** cached window, so the derivative coefficient
    stacks differ per k while the Taylor weights (powers of the common
    Δμ) are shared; the exact common μ comes from the weighted moments.
    Other parameters as in :func:`solve_density_regions_k`.
    """
    H_list, weights = _validate_inputs(H_list, weights, regions, kT, order)
    scaled = [_scaled_window(emin, emax) for emin, emax in windows]
    deriv_k = [fermi_mu_derivative_coefficients(c, s, float(mu_guess), kT,
                                                order, nderiv=3)
               for c, s in scaled]

    with _RegionPasses(H_list, regions, nworkers, executor,
                       gather_maps) as passes:
        per_k = passes.run("fused", [(c, s, d) for (c, s), d
                                     in zip(scaled, deriv_k)])
        mu, band, entropy, populations, coeffs_k = _moments_and_mu(
            per_k, windows, scaled, weights, n_electrons, kT, order, None,
            (mu_guess - 10.0 * kT, mu_guess + 10.0 * kT), check=True)
        dmu = mu - float(mu_guess)

        mu_shift_tol = kT * (24.0 * rho_tol) ** 0.25
        used_fallback = abs(dmu) > mu_shift_tol
        if used_fallback:
            # guess too far off: pay the explicit second pass (exact)
            rows_k = passes.run("density_rows",
                                [(c, s, ck) for (c, s), ck
                                 in zip(scaled, coeffs_k)])
        else:
            w_taylor = np.array([1.0, dmu, 0.5 * dmu * dmu,
                                 dmu * dmu * dmu / 6.0])
            rows_k = [[_taylor_rows(w_taylor, outs) for _, _, outs in pk]
                      for pk in per_k]

    m_total = H_list[0].shape[0]
    return RegionFOEResult(
        rho_k=[_assemble_rho(regions, rows, m_total) for rows in rows_k],
        band_energy=band, mu=mu, entropy=entropy, populations=populations,
        n_electrons=float(populations.sum()), order=order, windows=windows,
        n_regions=len(regions), weights=weights, mu_shift=float(dmu),
        used_fallback=used_fallback)


def _taylor_rows(w_taylor: np.ndarray, outs: np.ndarray) -> np.ndarray:
    """μ-corrected core density rows from one region's accumulant stack."""
    return core_rows(np.tensordot(w_taylor, outs, axes=([0], [0])))


# ---------------------------------------------------------------------------
# Γ entry points: the one-k-point, weight-1 case
# ---------------------------------------------------------------------------

def solve_density_regions(H, regions: list[LocalizationRegion],
                          n_electrons: float, kT: float, order: int = 150,
                          mu: float | None = None, nworkers: int = 1,
                          executor=None, with_rho: bool = True,
                          window: tuple[float, float] | None = None,
                          mu_bracket: tuple[float, float] | None = None,
                          gather_maps: list[np.ndarray] | None = None
                          ) -> RegionFOEResult:
    """FOE-in-regions density matrix from a sparse Hamiltonian (two-pass).

    Parameters
    ----------
    H :
        Real symmetric Hamiltonian, scipy sparse (dense accepted and
        converted).  Orthogonal basis assumed.
    regions :
        Output of :func:`repro.linscale.regions.extract_regions`; their
        core orbitals must tile all of H exactly once.
    n_electrons :
        Spin-summed electron count; μ is bisected from region moments
        unless given.
    kT :
        Electronic temperature in eV; must be > 0 (the expansion order
        needed grows with spectral width / kT).
    order :
        Chebyshev order K.
    nworkers, executor :
        Region batches are fanned out through
        :func:`repro.parallel.pool.map_tasks`.
    with_rho :
        ``False`` skips the second (density-rows) pass entirely — band
        energy, entropy, μ and populations all come from the moments, so
        energy-only evaluations cost half the Chebyshev work and return
        ``rho=None``.
    window :
        Optional precomputed spectral bounds ``(emin, emax)``; skips the
        Lanczos solves.  A stale window (spectrum escaped it) raises
        :class:`~repro.errors.SpectralWindowError` via the moment check.
    mu_bracket :
        Optional warm μ bracket (e.g. last step's μ ± a few kT); verified
        and widened automatically when it no longer brackets the count.
    gather_maps :
        Optional cached :func:`build_region_gather_maps` output; the
        inline (``nworkers == 1``, no executor) path then densifies each
        region with one fancy gather instead of CSR slicing.  Ignored on
        the pooled path, where shipping the maps would cost more than
        they save.

    Returns
    -------
    :class:`RegionFOEResult` with one k point (read ``rho`` and
    ``spectral_bounds``).
    """
    return solve_density_regions_k(
        [H], [1.0], regions, n_electrons, kT, order=order, mu=mu,
        nworkers=nworkers, executor=executor, with_rho=with_rho,
        windows=None if window is None else [window],
        mu_bracket=mu_bracket, gather_maps=gather_maps)


def solve_density_regions_fused(H, regions: list[LocalizationRegion],
                                n_electrons: float, kT: float,
                                order: int = 150, *,
                                window: tuple[float, float],
                                mu_guess: float,
                                nworkers: int = 1, executor=None,
                                rho_tol: float = 1e-10,
                                gather_maps: list[np.ndarray] | None = None
                                ) -> RegionFOEResult:
    """Single-pass FOE-in-regions with μ-Taylor correction (MD fast path).

    One Chebyshev recursion per region produces the moments *and* a stack
    of density-row accumulants — rows of f(H), ∂f/∂μ(H), ∂²f/∂μ²(H),
    ∂³f/∂μ³(H) at ``mu_guess``.  The exact μ is then bisected from the
    moments (identical to the two-pass result) and the density rows are
    corrected to third order in Δμ = μ − μ_guess.  Energies, entropy and
    populations are evaluated at the exact μ and carry **no** Taylor
    error; ρ carries a remainder of O((Δμ/kT)⁴)/24, kept below *rho_tol*
    by falling back to an explicit second density pass when the guess was
    too far off (``used_fallback=True`` in the result).

    Parameters
    ----------
    window :
        Cached spectral bounds ``(emin, emax)`` — required (a fast path
        without a cached window has nothing to reuse; use
        :func:`solve_density_regions` for cold solves).  Stale windows
        raise :class:`~repro.errors.SpectralWindowError`.
    mu_guess :
        Warm start, e.g. last MD step's μ (or a linear extrapolation).
    rho_tol :
        Bound on the acceptable μ-Taylor remainder in ρ; sets the
        fallback threshold ``|Δμ| ≤ kT · (24·rho_tol)^{1/4}``.
    gather_maps :
        As in :func:`solve_density_regions`.

    Returns
    -------
    :class:`RegionFOEResult` with one k point and ``rho`` always present.
    """
    return solve_density_regions_k_fused(
        [H], [1.0], regions, n_electrons, kT, order=order, windows=[window],
        mu_guess=mu_guess, nworkers=nworkers, executor=executor,
        rho_tol=rho_tol, gather_maps=gather_maps)


def sparse_band_forces(atoms, model, nl, rho: sp.csr_matrix
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Band forces (N, 3) and virial (3, 3) from a *sparse* symmetric ρ.

    The Γ case — one k point at the origin, weight 1 — of
    :func:`repro.linscale.kfoe.sparse_band_forces_k`, which contracts a
    real ρ in real arithmetic: ``g = 2 Σ ρ_ab ∂B_ab`` per half-list
    bond, the Hellmann–Feynman force ``F_i = −Tr(ρ ∂H/∂R_i)`` of the
    paper evaluated bond-by-bond.  Orthogonal models only.

    Units: forces in eV/Å, virial in eV.
    """
    # kfoe builds on this module, so the k routine is imported late
    from repro.linscale.kfoe import sparse_band_forces_k

    return sparse_band_forces_k(atoms, model, nl, [rho], [1.0],
                                np.zeros((1, 3)))
