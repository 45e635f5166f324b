"""The one region kernel of the FOE-in-regions engine.

Every Chebyshev operation the solvers in :mod:`repro.linscale.foe_local`
run on a localization region — the moments pass, the density-row pass
and the fused moments + μ-Taylor pass — is one blocked recursion,
:func:`region_recursion`, run with a coefficient stack of 0, 1 or 4
rows.  The solvers hand a :class:`RegionBlockSource` (sparse H plus
region specs) to :data:`KERNEL` and get per-region results back in
region order.  All inputs are picklable, so a process-pool worker runs
the same code on the same data as the inline path.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.utils.timing import tick


class RegionBlockSource:
    """Dense region Hamiltonian blocks: the single sparse→dense chokepoint.

    Every densification increments the ``foe.densify`` obs counter;
    with ``cache=True`` each block is densified at most once for the
    lifetime of the source (both passes of a two-pass solve share one).

    Parameters
    ----------
    H :
        The sparse (CSR) Hamiltonian — real symmetric or complex
        Hermitian.
    specs :
        Per-region ``(orbitals, core_local)`` index-array pairs, as
        produced by the solvers from ``LocalizationRegion``s.
    gather_maps :
        Optional :func:`~repro.linscale.foe_local.build_region_gather_maps`
        output; densification is then one fancy gather, not a CSR walk.
    cache :
        Keep densified blocks for reuse.  Declined silently when the
        blocks would exceed :data:`CACHE_BYTES_MAX` in total — the
        source still works, each ``get`` just densifies again.
    """

    #: Cap on cached dense blocks (all regions, one H) — beyond this the
    #: cache is declined and blocks are re-densified on demand.
    CACHE_BYTES_MAX = 512 * 1024 * 1024

    def __init__(self, H: Any, specs: list,
                 gather_maps: "list[np.ndarray] | None" = None,
                 cache: bool = False) -> None:
        self._H = H if sp.issparse(H) else sp.csr_matrix(H)
        self.specs = specs
        self._maps = gather_maps
        self._data_pad = (np.append(self._H.data, 0.0)
                          if gather_maps is not None else None)
        if cache:
            nbytes = sum(len(orb) ** 2 for orb, _ in specs) \
                * self._H.dtype.itemsize
            cache = nbytes <= self.CACHE_BYTES_MAX
        self._cache: list[np.ndarray | None] | None = \
            [None] * len(specs) if cache else None

    @property
    def dtype(self) -> np.dtype:
        return self._H.dtype

    def __len__(self) -> int:
        return len(self.specs)

    def shapes(self) -> list[tuple[int, int]]:
        """Per-region (n_region, n_core)."""
        return [(len(orb), len(core)) for orb, core in self.specs]

    def core_local(self, i: int) -> np.ndarray:
        return self.specs[i][1]

    def get(self, i: int) -> np.ndarray:
        """Dense (n, n) Hamiltonian block of region *i*."""
        if self._cache is not None:
            cached = self._cache[i]
            if cached is not None:
                return cached
        obs.counter_inc("foe.densify")
        if self._maps is not None and self._data_pad is not None:
            block = self._data_pad[self._maps[i]]
        else:
            orb = self.specs[i][0]
            block = self._H[orb][:, orb].toarray()
        if self._cache is not None:
            self._cache[i] = block
        return block


def region_recursion(h_sub: np.ndarray, core_local: np.ndarray,
                     center: float, span: float, coeffs: np.ndarray,
                     block: int = 24
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Chebyshev recursion over a region's core columns.

    Runs ``v_k = T_k(H̃) v₀`` with ``H̃ = (h_sub − center)/span`` and
    ``v₀`` the core basis columns, for k = 0 … K, where K + 1 is the
    width of the (S, K+1) coefficient stack *coeffs*.  S = 0 gives the
    moments alone, S = 1 the density rows, S = 4 the fused μ-Taylor
    stack of :func:`repro.tb.chebyshev.fermi_mu_derivative_coefficients`.
    Works on real symmetric (Γ) and complex Hermitian (finite-k) blocks;
    moments are real either way.

    Iterates are buffered *block* k-steps at a time, so the moment and
    accumulant contractions run once per block instead of once per k
    (per-call numpy overhead rivals the matvec at typical region sizes).

    Returns
    -------
    ``(m, e, outs)`` — moments ``m_k = Σ_core [T_k]_μμ`` (K+1,), energy
    moments ``e_k = Σ_core [T_k H]_μμ`` (K+1,), and the accumulant stack
    (S, n_region, n_core) with ``outs[s] = Σ_k coeffs[s, k] v_k``.
    """
    n = h_sub.shape[0]
    nc = len(core_local)
    s_stack, k1 = coeffs.shape
    ar = np.arange(nc)
    v0 = np.zeros((n, nc), dtype=h_sub.dtype)
    v0[core_local, ar] = 1.0
    diag = core_local * nc + ar        # flat positions of v_k[core_i, i]
    h_cols = h_sub[:, core_local].ravel()
    if np.iscomplexobj(h_sub):
        h_cols = np.conj(h_cols)       # e_k = Re Σ conj(T_k)·H = Σ T_k·conj(H)
    h_tilde = (h_sub - center * np.eye(n)) / span

    m, e = np.empty(k1), np.empty(k1)
    outs = np.zeros((s_stack, n * nc), dtype=h_sub.dtype)
    block = max(3, min(block, k1))
    buf = np.empty((block, n, nc), dtype=h_sub.dtype)
    flat, slots = buf.reshape(block, n * nc), list(buf)
    v_prev = v_cur = v0   # v_cur is a placeholder until k = 1 exists
    kpos = 0
    while kpos < k1:
        jmax = min(block, k1 - kpos)
        for j in range(jmax):
            k, out = kpos + j, slots[j]
            if k == 0:
                out[...] = v0
            elif k == 1:
                np.matmul(h_tilde, v0, out=out)
            else:
                np.matmul(h_tilde, v_cur, out=out)
                out *= 2.0
                out -= v_prev
            if k >= 1:
                v_prev, v_cur = v_cur, out
        chunk = flat[:jmax]
        m[kpos:kpos + jmax] = chunk[:, diag].sum(axis=1).real
        e[kpos:kpos + jmax] = (chunk @ h_cols).real
        if s_stack:
            outs += coeffs[:, kpos:kpos + jmax] @ chunk
        kpos += jmax
    return m, e, outs.reshape(s_stack, n, nc)


def core_rows(cols: np.ndarray) -> np.ndarray:
    """Core density rows from core columns: ρ_loc is symmetric for real
    H and Hermitian for H(k), so rows are the (conjugate) transpose."""
    return np.conj(cols.T) if np.iscomplexobj(cols) else cols.T


class RegionKernel:
    """The three region passes: one :func:`region_recursion` per region
    of a :class:`RegionBlockSource`, results in region order.  With
    metrics on, each recursion lands one observation in the pass's
    timing histogram (pool workers' ride back through
    :mod:`repro.obs.remote`).  Holds no solve state.
    """

    def moments(self, blocks: RegionBlockSource, center: float, span: float,
                order: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-region Chebyshev moment pairs ``(m_k, e_k)``."""
        out = self._run("foe.region_moments_s", blocks, center, span,
                        np.empty((0, order + 1)))
        return [(m, e) for m, e, _ in out]

    def density_rows(self, blocks: RegionBlockSource, center: float,
                     span: float, coeffs: np.ndarray) -> list[np.ndarray]:
        """Per-region core density rows ``Σ_k c_k T_k``, (n_core, n)."""
        out = self._run("foe.region_density_s", blocks, center, span,
                        np.asarray(coeffs)[None, :])
        return [core_rows(outs[0]) for _, _, outs in out]

    def fused(self, blocks: RegionBlockSource, center: float, span: float,
              deriv_coeffs: np.ndarray
              ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-region ``(m, e, outs)`` fused moments + μ-Taylor stacks."""
        return self._run("foe.region_fused_s", blocks, center, span,
                         deriv_coeffs)

    def _run(self, metric: str, blocks: RegionBlockSource, center: float,
             span: float, coeffs: np.ndarray
             ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        if not obs.metrics_enabled():
            return [region_recursion(blocks.get(i), blocks.core_local(i),
                                     center, span, coeffs)
                    for i in range(len(blocks))]
        out: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        with obs.span(metric) as sp_:
            sp_.set(n_regions=len(blocks))
            for i in range(len(blocks)):
                h_sub, core = blocks.get(i), blocks.core_local(i)
                t0 = tick()
                out.append(region_recursion(h_sub, core, center, span,
                                            coeffs))
                obs.observe(metric, tick() - t0)
        return out


#: The one kernel instance every solve runs on.
KERNEL = RegionKernel()
