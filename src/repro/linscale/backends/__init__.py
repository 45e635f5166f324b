"""Pluggable array backends for the region FOE engine.

The solvers in :mod:`repro.linscale.foe_local` and
:mod:`repro.linscale.kfoe` evaluate every Chebyshev region operation
through a :class:`~repro.linscale.backends.base.Backend`, selected here
by name:

``numpy_loop``
    The original per-region dense recursion — the default, and the
    reference oracle the other backend is conformance-tested against.
``numpy_batched``
    Shape-bucketed stacked-GEMM evaluation
    (:mod:`~repro.linscale.backends.numpy_batched`).  It wins only for
    small regions: measured on 512-atom Si at order 150 (fused pass,
    regions densified beforehand) it took 0.36 s against the loop's
    0.76 s at r_loc 4.2 Å, but 3.66 s against 1.30 s at the default
    r_loc 6.24 Å.

Selection precedence in :func:`resolve_backend`: explicit argument
(name or instance) → ``REPRO_BACKEND`` environment variable →
:data:`DEFAULT_BACKEND`.  The env override reaches every construction
path — ``make_calculator`` specs, directly built calculators, pool
workers — which is what lets CI re-run the whole linscale tier under a
different backend without touching a single test.

The conformance suite (``tests/test_backends.py``) parametrizes over
:func:`available_backends`, so every backend is held to the whole
physics-equivalence matrix.
"""

from __future__ import annotations

import os

from repro.errors import ReproError
from repro.linscale.backends.base import Backend, RegionBlockSource
from repro.linscale.backends.bucketing import Bucket, plan_buckets
from repro.linscale.backends.numpy_batched import NumpyBatchedBackend
from repro.linscale.backends.numpy_loop import NumpyLoopBackend

__all__ = [
    "Backend",
    "Bucket",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "NumpyBatchedBackend",
    "NumpyLoopBackend",
    "RegionBlockSource",
    "available_backends",
    "get_backend",
    "plan_buckets",
    "resolve_backend",
]

#: Backend used when neither an argument nor the env var selects one.
DEFAULT_BACKEND = "numpy_loop"

#: Environment variable overriding the default backend by name.
ENV_VAR = "REPRO_BACKEND"

_FACTORIES: dict[str, type[Backend]] = {
    "numpy_loop": NumpyLoopBackend,
    "numpy_batched": NumpyBatchedBackend,
}
_INSTANCES: dict[str, Backend] = {}


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted — the conformance-suite matrix."""
    return tuple(sorted(_FACTORIES))


def get_backend(name: str) -> Backend:
    """The (shared) backend instance registered under *name*."""
    if name not in _FACTORIES:
        raise ReproError(
            f"unknown array backend {name!r}; available: "
            f"{', '.join(available_backends())}")
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]


def resolve_backend(backend: str | Backend | None = None) -> Backend:
    """Argument → ``REPRO_BACKEND`` env var → :data:`DEFAULT_BACKEND`."""
    if isinstance(backend, Backend):
        return backend
    name = backend or os.environ.get(ENV_VAR) or DEFAULT_BACKEND
    return get_backend(name)

