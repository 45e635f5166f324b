"""k-point-parallel Fermi-operator expansion in localization regions.

Γ-only sampling wastes the O(N) advantage on small-cell metals and
strain sweeps: without k sampling those systems must be blown up into
supercells (paying the prefactor N times over) or fall back to dense k
diagonalisation.  The region engine therefore runs on the complex
Hermitian Bloch Hamiltonians ``H(k)``:

* one sparse ``H(k)`` per Monkhorst–Pack point, assembled off the single
  cached bond pattern by
  :meth:`repro.linscale.sparse_hamiltonian.SparseHamiltonianBuilder.build_k`
  (the localization regions themselves are k-independent — Bloch phases
  live in the matrix elements, not in the folded neighbour graph);
* one cached spectral window per k (``H(k)`` spectra shift with k;
  :func:`spectral_windows_k`);
* per-(k, region) Chebyshev moments, accumulated with the MP weights
  into **one common chemical potential** through
  :func:`repro.tb.chebyshev.solve_mu_from_moments_multi` — the
  electron count is a property of the whole BZ sample, never of one k;
* per-k core density rows → per-k sparse Hermitian ρ(k), contracted
  into weighted Hellmann–Feynman forces (Slater–Koster gradient **plus**
  the atomic-gauge phase-gradient term) by
  :func:`sparse_band_forces_k`;
* (k, region) tasks fanned through :func:`repro.parallel.pool.map_tasks`
  — the classic k-point decomposition composed with the region
  decomposition, so parallel width is ``n_k × n_regions``.

The solvers — the reference two-pass :func:`solve_density_regions_k` and
the fused single-pass MD fast path :func:`solve_density_regions_k_fused`
— are the one region engine of :mod:`repro.linscale.foe_local`, whose Γ
entry points are their one-k-point, weight-1 case; this module is their
public home.  Orthogonal models only.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ElectronicError
from repro.neighbors.base import NeighborList
from repro.tb.forces import k_bond_force_terms
from repro.tb.hamiltonian import orbital_offsets, pair_species_groups
from repro.tb.purification import lanczos_spectral_bounds
from repro.tb.slater_koster import sk_block_gradients, sk_blocks
from repro.linscale.foe_local import (
    solve_density_regions_k,
    solve_density_regions_k_fused,
)
from repro.linscale.sparse_hamiltonian import block_index_grids

__all__ = [
    "solve_density_regions_k",
    "solve_density_regions_k_fused",
    "sparse_band_forces_k",
    "spectral_windows_k",
]


def spectral_windows_k(H_list) -> list[tuple[float, float]]:
    """Per-k Lanczos spectral bounds — one Chebyshev window per H(k)."""
    return [lanczos_spectral_bounds(sp.csr_matrix(H)) for H in H_list]


# ---------------------------------------------------------------------------
# Weighted Hellmann–Feynman forces from per-k sparse density matrices
# ---------------------------------------------------------------------------

def _gather_blocks(rho: sp.csr_matrix, rows: np.ndarray, cols: np.ndarray
                   ) -> np.ndarray:
    """Dense (P, ni, nj) ρ blocks gathered from a sparse matrix."""
    flat = np.asarray(rho[rows.ravel(), cols.ravel()]).ravel()
    return flat.reshape(rows.shape)


def sparse_band_forces_k(atoms, model, nl: NeighborList, rho_k: list,
                         weights, k_carts) -> tuple[np.ndarray, np.ndarray]:
    """MP-weighted band forces (N, 3) and virial (3, 3) from sparse ρ(k).

    The sparse twin of :func:`repro.tb.forces.band_forces_k`, summed over
    the sampled k points: per half-list bond and k,

    ``∂E/∂d_c = 2 w_k Re[ Σ_ab conj(ρ(k)_ab) e^{i k·d} (G_cab + i k_c B_ab) ]``

    — the Slater–Koster gradient plus the atomic-gauge phase-gradient
    term.  As in the dense version, the virial keeps only the SK part
    (the phase term cancels against the reciprocal-vector strain
    response at fixed fractional k).  A real ρ at k = 0 — the Γ case,
    :func:`repro.linscale.foe_local.sparse_band_forces` — is contracted
    in real arithmetic, ``g = 2 Σ_ab ρ_ab G_cab``.  Every needed ρ block
    lies inside ρ's sparsity pattern because r_loc ≥ the model cutoff.
    Orthogonal models only.
    """
    if not model.orthogonal:
        raise ElectronicError(
            "sparse band forces support orthogonal models only"
        )
    weights = np.asarray(weights, dtype=float)
    k_carts = np.atleast_2d(np.asarray(k_carts, dtype=float))
    if len(rho_k) != len(weights) or len(rho_k) != len(k_carts):
        raise ElectronicError(
            f"{len(rho_k)} density matrices, {len(weights)} weights, "
            f"{len(k_carts)} k points — counts must match")
    symbols = atoms.symbols
    offsets, _ = orbital_offsets(symbols, model)
    n = len(atoms)
    forces = np.zeros((n, 3))
    virial = np.zeros((3, 3))
    if nl.n_pairs == 0:
        return forces, virial
    # only a complex ρ(k) or k ≠ 0 needs the phase factors and B blocks
    phased = [np.iscomplexobj(rho) or bool(k.any())
              for rho, k in zip(rho_k, k_carts)]

    for (sa, sb), pidx in pair_species_groups(symbols, nl).items():
        r = nl.distances[pidx]
        vec = nl.vectors[pidx]
        u = vec / r[:, None]
        ni, nj = model.norb(sa), model.norb(sb)
        oi = offsets[nl.i[pidx]]
        oj = offsets[nl.j[pidx]]

        V, dV = model.hopping(sa, sb, r)
        G = sk_block_gradients(u, r, V, dV)[:, :, :ni, :nj]
        B = sk_blocks(u, V)[:, :ni, :nj] if any(phased) else None
        rows, cols = block_index_grids(oi, oj, ni, nj)

        g = np.zeros((len(pidx), 3))
        g_sk_tot = np.zeros((len(pidx), 3))
        for rho, wk, k, phase in zip(rho_k, weights, k_carts, phased):
            phases = np.exp(1j * (vec @ k)) if phase else None
            g_sk, q = k_bond_force_terms(_gather_blocks(rho, rows, cols),
                                         phases, B, G)
            g_k = g_sk if q is None else g_sk + q[:, None] * k[None, :]
            g_sk_tot += wk * g_sk
            g += wk * g_k

        np.add.at(forces, nl.i[pidx], g)
        np.add.at(forces, nl.j[pidx], -g)
        virial += np.einsum("pc,pd->cd", g_sk_tot, vec)

    return forces, virial
