"""The region kernel of the FOE engine (:mod:`.base`).

:func:`get_backend` / :func:`available_backends` look the one
:data:`~repro.linscale.backends.base.KERNEL` instance up under its
historical name ``"numpy_loop"``; the per-layer tracer in
``perfbench/`` finds the kernel's pass methods this way.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.linscale.backends.base import KERNEL, RegionBlockSource, RegionKernel

__all__ = ["KERNEL", "RegionBlockSource", "RegionKernel",
           "available_backends", "get_backend"]


def available_backends() -> tuple[str, ...]:
    """The one kernel's name, ``("numpy_loop",)``."""
    return ("numpy_loop",)


def get_backend(name: str) -> RegionKernel:
    """The kernel instance, looked up by its name ``"numpy_loop"``."""
    if name not in available_backends():
        raise ReproError(
            f"unknown array backend {name!r}; available: numpy_loop")
    return KERNEL
