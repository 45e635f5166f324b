"""Linear-scaling electronic structure (Goedecker–Colombo O(N) TBMD).

The subsystem that removes the O(N³) eigensolve from the MD step:

* :mod:`~repro.linscale.sparse_hamiltonian` — CSR Hamiltonian assembly
  straight from the neighbour list (bit-equal to the dense builder);
* :mod:`~repro.linscale.regions` — per-atom localization regions
  (core + halo subgraphs of the neighbour graph within ``r_loc``);
* :mod:`~repro.linscale.foe_local` — the one region engine: the
  Chebyshev Fermi-operator expansion evaluated region-by-region over a
  list of Hamiltonians H(k) with sampling weights — moments → one common
  μ, core density rows → band energy, entropy, Mulliken populations,
  Hellmann–Feynman forces.  Its Γ entry points are the one-k-point,
  weight-1 case;
* :mod:`~repro.linscale.kfoe` — the k-sampled entry points of that
  engine (complex Bloch Hamiltonians, one spectral window per k) and the
  MP-weighted force contraction (small-cell metals, strain sweeps);
* :mod:`~repro.linscale.backends` — the region kernel: one blocked
  Chebyshev recursion serving the moments, density-row and fused passes;
* :mod:`~repro.linscale.calculator` — :class:`LinearScalingCalculator`
  (drop-in for :class:`~repro.tb.calculator.TBCalculator` in MD,
  relaxation and the CLI, Γ or k-sampled via ``kpts=``) and
  :class:`DensityMatrixCalculator` (dense purification / global FOE
  behind the same interface).
"""

from repro.linscale.calculator import (
    DensityMatrixCalculator,
    LinearScalingCalculator,
)
from repro.linscale.foe_local import (
    RegionFOEResult,
    solve_density_regions,
    solve_density_regions_fused,
    sparse_band_forces,
)
from repro.linscale.kfoe import (
    solve_density_regions_k,
    solve_density_regions_k_fused,
    sparse_band_forces_k,
    spectral_windows_k,
)
from repro.linscale.regions import (
    LocalizationRegion,
    extract_regions,
    region_statistics,
)
from repro.linscale.sparse_hamiltonian import (
    SparseHamiltonianBuilder,
    build_sparse_hamiltonian,
    build_sparse_hamiltonian_k,
    hamiltonian_fill_fraction,
)

__all__ = [
    "LinearScalingCalculator",
    "DensityMatrixCalculator",
    "RegionFOEResult",
    "solve_density_regions",
    "solve_density_regions_fused",
    "solve_density_regions_k",
    "solve_density_regions_k_fused",
    "sparse_band_forces",
    "sparse_band_forces_k",
    "spectral_windows_k",
    "LocalizationRegion",
    "extract_regions",
    "region_statistics",
    "SparseHamiltonianBuilder",
    "build_sparse_hamiltonian",
    "build_sparse_hamiltonian_k",
    "hamiltonian_fill_fraction",
]
