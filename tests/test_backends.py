"""The region kernel against an independent eigendecomposition oracle.

The one blocked Chebyshev recursion of
:mod:`repro.linscale.backends.base` serves the moments pass (no
coefficient rows), the density-row pass (one row) and the fused pass
(four rows).  Each is checked here against ``numpy.linalg.eigh`` of
every region block, ``T_k(H̃) = V·cos(k·arccos λ)·Vᴴ``, on random real
symmetric and complex Hermitian blocks, to 1e-12.  The block-source
tests pin the densify-once contract and the gather maps.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ReproError
from repro.linscale.backends import (
    KERNEL,
    RegionBlockSource,
    available_backends,
    get_backend,
)
from repro.linscale.foe_local import (
    build_region_gather_maps,
    solve_density_regions,
    solve_density_regions_fused,
)
from repro.linscale.regions import extract_regions
from repro.linscale.sparse_hamiltonian import build_sparse_hamiltonian
from repro.neighbors import neighbor_list
from repro.obs import metrics as metrics_mod

ORDER = 60
COMPLEX = pytest.mark.parametrize("complex_h", [False, True],
                                  ids=["real", "complex"])


# --------------------------------------------------------- synthetic batches
def random_region_batch(seed: int, complex_h: bool = False,
                        nregions: int = 8, dim: int = 36):
    """A sparse Hermitian H plus heterogeneous random region specs.

    Region sizes, orbital subsets and core positions are all drawn at
    random, so cores scattered through the region, single-column cores
    and whole-region cores all get exercised.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    if complex_h:
        a = a + 1j * rng.normal(size=(dim, dim))
    dense = (a + a.conj().T) / 2
    # thin it out so CSR slicing is a real code path, keep it Hermitian
    keep = rng.random(size=(dim, dim)) < 0.7
    keep = np.triu(keep) | np.triu(keep).T
    np.fill_diagonal(keep, True)
    dense = np.where(keep, dense, 0.0)
    specs = []
    for _ in range(nregions):
        n = int(rng.integers(4, dim + 1))
        orb = np.sort(rng.choice(dim, size=n, replace=False))
        nc = int(rng.integers(1, n + 1))
        core = np.sort(rng.choice(n, size=nc, replace=False))
        specs.append((orb, core))
    # window that safely contains every region block's spectrum
    span = 1.1 * float(np.abs(np.linalg.eigvalsh(dense)).max()) + 0.5
    return sp.csr_matrix(dense), specs, 0.0, span


def chebyshev_oracle(h_sub: np.ndarray, center: float, span: float,
                     order: int) -> np.ndarray:
    """``T_k(H̃)`` for k = 0 … order, (K+1, n, n), from ``eigh``."""
    n = h_sub.shape[0]
    lam, vecs = np.linalg.eigh((h_sub - center * np.eye(n)) / span)
    assert np.all(np.abs(lam) < 1.0)
    cheb = np.cos(np.outer(np.arange(order + 1), np.arccos(lam)))
    return np.einsum("ij,kj,lj->kil", vecs, cheb, vecs.conj())


def _oracle_per_region(blocks: RegionBlockSource, center, span, coeffs):
    """Per region: oracle (m, e, outs, rows) for a (S, K+1) stack."""
    order = coeffs.shape[1] - 1
    out = []
    for i in range(len(blocks)):
        h_sub, core = blocks.get(i), blocks.core_local(i)
        t = chebyshev_oracle(h_sub, center, span, order)
        t_cc = t[:, core][:, :, core]
        m = np.einsum("kii->k", t_cc).real
        e = np.einsum("kab,ba->k", t[:, core, :], h_sub[:, core]).real
        outs = np.einsum("sk,kab->sab", coeffs, t[:, :, core])
        rows = np.einsum("sk,kab->sab", coeffs, t[:, core, :])
        out.append((m, e, outs, rows))
    return out


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


# ----------------------------------------------- the kernel vs the oracle
@COMPLEX
def test_moments_match_reference(complex_h):
    H, specs, center, span = random_region_batch(11 + complex_h, complex_h)
    blocks = RegionBlockSource(H, specs)
    got = KERNEL.moments(blocks, center, span, ORDER)
    want = _oracle_per_region(blocks, center, span,
                              np.empty((0, ORDER + 1)))
    assert len(got) == len(specs)
    for (m, e), (m_ref, e_ref, _, _) in zip(got, want):
        assert m.shape == e.shape == (ORDER + 1,)
        _assert_close(m, m_ref)
        _assert_close(e, e_ref)


@COMPLEX
def test_density_rows_match_reference(complex_h):
    H, specs, center, span = random_region_batch(23 + complex_h, complex_h)
    blocks = RegionBlockSource(H, specs)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=ORDER + 1) / (1.0 + np.arange(ORDER + 1)) ** 2
    got = KERNEL.density_rows(blocks, center, span, coeffs)
    want = _oracle_per_region(blocks, center, span, coeffs[None, :])
    assert len(got) == len(specs)
    for rows, (_, _, _, rows_ref), (orb, core) in zip(got, want, specs):
        assert rows.shape == (len(core), len(orb))
        _assert_close(rows, rows_ref[0])


@COMPLEX
def test_fused_matches_reference(complex_h):
    H, specs, center, span = random_region_batch(37 + complex_h, complex_h)
    blocks = RegionBlockSource(H, specs)
    rng = np.random.default_rng(9)
    deriv = rng.normal(size=(4, ORDER + 1)) / (1.0 + np.arange(ORDER + 1))
    got = KERNEL.fused(blocks, center, span, deriv)
    want = _oracle_per_region(blocks, center, span, deriv)
    assert len(got) == len(specs)
    for (m, e, outs), (m_ref, e_ref, outs_ref, _) in zip(got, want):
        _assert_close(m, m_ref)
        _assert_close(e, e_ref)
        _assert_close(outs, outs_ref)


def test_registry_serves_the_one_kernel():
    assert available_backends() == ("numpy_loop",)
    assert get_backend("numpy_loop") is KERNEL


def test_get_backend_unknown_name_lists_available():
    with pytest.raises(ReproError, match="numpy_loop"):
        get_backend("no_such_backend")


# ---------------------------------------------------------- block sources
@pytest.fixture(scope="module")
def si_problem(gsp):
    from repro.geometry import bulk_silicon, supercell

    atoms = supercell(bulk_silicon(), 2)
    nl = neighbor_list(atoms, gsp.cutoff)
    H, _ = build_sparse_hamiltonian(atoms, gsp, nl)
    r_loc = 1.5 * gsp.cutoff
    regions = extract_regions(atoms, gsp, r_loc, neighbor_list(atoms, r_loc))
    nelec = gsp.total_electrons(atoms.symbols)
    return H, regions, nelec


def test_gather_maps_round_trip(si_problem):
    """data_pad[maps[r]] reproduces CSR slicing exactly, and a source fed
    the maps returns the same blocks as one walking the CSR rows."""
    H, regions, _ = si_problem
    maps = build_region_gather_maps(H, regions)
    specs = [(r.orbitals, r.core_local) for r in regions]
    data_pad = np.append(H.data, 0.0)
    direct = RegionBlockSource(H, specs)
    mapped = RegionBlockSource(H, specs, gather_maps=maps)
    for i, (orb, _) in enumerate(specs):
        want = H[orb][:, orb].toarray()
        np.testing.assert_array_equal(data_pad[maps[i]], want)
        np.testing.assert_array_equal(mapped.get(i), want)
        np.testing.assert_array_equal(direct.get(i), want)


@pytest.fixture()
def metrics_on():
    old_registry = metrics_mod._swap_registry(metrics_mod.MetricsRegistry())
    old_enabled = metrics_mod._ENABLED
    metrics_mod._ENABLED = True
    try:
        yield metrics_mod._REGISTRY
    finally:
        metrics_mod._swap_registry(old_registry)
        metrics_mod._ENABLED = old_enabled


def test_two_pass_densifies_each_region_once(si_problem, metrics_on):
    """The silent-densify footgun: both passes of a two-pass solve must
    share one densification per region."""
    H, regions, nelec = si_problem
    solve_density_regions(H, regions, nelec, kT=0.2, order=40)
    snap = metrics_on.snapshot()
    assert snap["counters"]["foe.densify"] == len(regions)


def test_fused_densifies_each_region_once(si_problem, metrics_on):
    H, regions, nelec = si_problem
    cold = solve_density_regions(H, regions, nelec, kT=0.2, order=40)
    before = metrics_on.snapshot()["counters"]["foe.densify"]
    solve_density_regions_fused(H, regions, nelec, kT=0.2, order=40,
                                window=cold.spectral_bounds,
                                mu_guess=cold.mu)
    after = metrics_on.snapshot()["counters"]["foe.densify"]
    assert after - before == len(regions)
