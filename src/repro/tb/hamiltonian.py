"""Tight-binding Hamiltonian (and overlap) assembly.

Γ-point supercell assembly for MD and a k-resolved complex assembly for
band structures and k sampling — one loop, real at Γ and complex with
bond phases at k.  It consumes the half neighbour list: each bond
contributes its Slater–Koster block and the block's transpose (conjugate
transpose with a phase at finite k); periodic self-image bonds fold onto
the atom's own diagonal block, which is what makes tiny supercells exact
at Γ.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.neighbors.base import NeighborList
from repro.tb.slater_koster import sk_blocks


def orbital_offsets(symbols, model) -> tuple[np.ndarray, int]:
    """Per-atom orbital offsets and total orbital count.

    Returns ``(offsets, M)`` with ``offsets[i]`` the first matrix row of
    atom *i*.
    """
    norbs = np.array([model.norb(s) for s in symbols], dtype=int)
    offsets = np.concatenate(([0], np.cumsum(norbs)[:-1]))
    return offsets, int(norbs.sum())


def pair_species_groups(symbols, nl: NeighborList) -> dict[tuple[str, str], np.ndarray]:
    """Group half-list pair indices by (species_i, species_j).

    Vectorised radial evaluation then happens once per species pair instead
    of once per bond.
    """
    syms = np.asarray(symbols)
    si = syms[nl.i]
    sj = syms[nl.j]
    groups: dict[tuple[str, str], np.ndarray] = {}
    if nl.n_pairs == 0:
        return groups
    keys = np.char.add(np.char.add(si.astype(str), "|"), sj.astype(str))
    for key in np.unique(keys):
        a, b = key.split("|")
        groups[(a, b)] = np.flatnonzero(keys == key)
    return groups


def _scatter_blocks(mat: np.ndarray, blocks: np.ndarray,
                    oi: np.ndarray, oj: np.ndarray,
                    ni: int, nj: int) -> None:
    """Accumulate (P, ni, nj) blocks and their (conjugate) transposes
    into *mat* — the Hermitian scatter of real Γ and complex H(k) blocks.

    Duplicate (i, j) pairs (multiple periodic images) must *add*, hence
    ``np.add.at``.
    """
    rows = oi[:, None, None] + np.arange(ni)[None, :, None]
    cols = oj[:, None, None] + np.arange(nj)[None, None, :]
    lower = np.swapaxes(blocks, 1, 2)
    if np.iscomplexobj(blocks):
        lower = np.conj(lower)
    np.add.at(mat, (rows, cols), blocks)
    np.add.at(mat, (np.swapaxes(cols, 1, 2), np.swapaxes(rows, 1, 2)),
              lower)


def _assemble(atoms, model, nl: NeighborList, k: np.ndarray | None,
              with_overlap: bool | None
              ) -> tuple[np.ndarray, np.ndarray | None]:
    """Dense ``(H, S)`` at Γ (``k is None``: real float64) or at
    Cartesian *k* (complex, atomic-gauge bond phases ``exp(i k·d)``)."""
    symbols = atoms.symbols
    model.check_species(symbols)
    offsets, m = orbital_offsets(symbols, model)

    if with_overlap is None:
        with_overlap = not model.orthogonal

    dtype = float if k is None else complex
    H = np.zeros((m, m), dtype=dtype)
    S = np.zeros((m, m), dtype=dtype) if with_overlap else None

    # on-site terms
    for idx, sym in enumerate(symbols):
        e = model.onsite(sym)
        o = offsets[idx]
        H[o:o + len(e), o:o + len(e)][np.diag_indices(len(e))] = e
    if S is not None:
        S[np.diag_indices(m)] = 1.0

    for (sa, sb), pidx in pair_species_groups(symbols, nl).items():
        r = nl.distances[pidx]
        vec = nl.vectors[pidx]
        u = vec / r[:, None]
        ni, nj = model.norb(sa), model.norb(sb)
        oi = offsets[nl.i[pidx]]
        oj = offsets[nl.j[pidx]]
        phases = None if k is None else np.exp(1j * (vec @ k))[:, None, None]

        V, _ = model.hopping(sa, sb, r)
        blocks = sk_blocks(u, V)[:, :ni, :nj]
        if phases is not None:
            blocks = blocks * phases
        _scatter_blocks(H, blocks, oi, oj, ni, nj)

        if S is not None:
            ov = model.overlap(sa, sb, r)
            if ov is None:
                raise ModelError(
                    f"model {model.name!r} requested with overlap but "
                    f"returns none for pair ({sa}, {sb})"
                )
            sblocks = sk_blocks(u, ov[0])[:, :ni, :nj]
            if phases is not None:
                sblocks = sblocks * phases
            _scatter_blocks(S, sblocks, oi, oj, ni, nj)

    return H, S


def build_hamiltonian(atoms, model, nl: NeighborList,
                      with_overlap: bool | None = None,
                      sparse: bool = False
                      ) -> tuple[np.ndarray, np.ndarray | None]:
    """Assemble the real symmetric Γ-point Hamiltonian (M×M, eV).

    Returns ``(H, S)``; ``S`` is ``None`` for orthogonal models, else the
    overlap matrix with unit diagonal.  With ``sparse=True`` both come
    back as scipy CSR (numerically identical entries), assembled in O(M)
    memory by :mod:`repro.linscale.sparse_hamiltonian`.
    """
    if sparse:
        from repro.linscale.sparse_hamiltonian import build_sparse_hamiltonian

        return build_sparse_hamiltonian(atoms, model, nl,
                                        with_overlap=with_overlap)
    return _assemble(atoms, model, nl, None, with_overlap)


def build_hamiltonian_k(atoms, model, nl: NeighborList, k_cart,
                        with_overlap: bool | None = None,
                        sparse: bool = False
                        ) -> tuple[np.ndarray, np.ndarray | None]:
    """Assemble the complex Hermitian Hamiltonian at Cartesian k (Å⁻¹).

    Uses the "atomic gauge" phase ``exp(i k · d)`` with ``d`` the physical
    bond vector; eigenvalues are gauge-independent.  Returns ``(H_k, S_k)``,
    complex even at k = 0 (:func:`build_hamiltonian` is the real Γ
    assembly; both run the same loop).  With ``sparse=True`` both come
    back as complex scipy CSR (numerically identical entries), assembled
    in O(M) memory by :mod:`repro.linscale.sparse_hamiltonian`.
    """
    if sparse:
        from repro.linscale.sparse_hamiltonian import build_sparse_hamiltonian_k

        return build_sparse_hamiltonian_k(atoms, model, nl, k_cart,
                                          with_overlap=with_overlap)
    return _assemble(atoms, model, nl,
                     np.asarray(k_cart, dtype=float).reshape(3), with_overlap)
