"""The program's layers: where the traced run wraps them, and the
per-layer metrics computed from the spans and the ``repro.obs`` counters.

Each wrapped name is patched in the namespace it is looked up from:
``repro.linscale.calculator`` imports the solver, region and force
functions into its own namespace, so those are wrapped there.
"""

from __future__ import annotations

import inspect
import os

#: Span-name prefixes that count as named layers for ``trace.coverage``
#: (``calc`` is the calculator's own glue and ``op`` the benchmark's).
NAMED_LAYERS = ("neighbors", "sparse_hamiltonian", "regions", "window",
                "foe_local", "kfoe", "backends", "forces", "tb", "md",
                "trajio")

#: A complex multiply-add is four real ones (a complex element is also
#: 16 bytes instead of 8).
_COMPLEX_FLOP_FACTOR = 4


def _kernel_hook(tracer, kind: str, fn):
    """Tally computed flops and bytes of one backend call.

    Counts come from the region block shapes and the expansion order
    only, so they repeat exactly between runs of the same code.  Per
    recursion step a region of n orbitals with n_c core columns does one
    (n×n)·(n×n_c) product (2·n²·n_c flops, reading H and two iterates
    and writing one: n² + 3·n·n_c elements) plus the step's vector work
    (axpy and one contraction: 4·n·n_c flops; the fused pass adds
    2·S·n·n_c flops and 2·S·n·n_c element moves for its S accumulants).
    """
    sig = inspect.signature(fn)

    def hook(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        blocks = bound.arguments["blocks"]
        if kind == "moments":
            order, stack = int(bound.arguments["order"]), 0
        elif kind == "density_rows":
            order, stack = len(bound.arguments["coeffs"]) - 1, 0
        else:
            coeffs = bound.arguments["deriv_coeffs"]
            order, stack = coeffs.shape[1] - 1, coeffs.shape[0]
        is_complex = blocks.dtype.kind == "c"
        itemsize = 16 if is_complex else 8
        flop = 0.0
        elems = 0.0
        for n, nc in blocks.shapes():
            flop += order * (2.0 * n * n * nc + (4 + 2 * stack) * n * nc)
            elems += order * (n * n + (3 + 2 * stack) * n * nc)
        if is_complex:
            flop *= _COMPLEX_FLOP_FACTOR
        tracer.tally("backends.flop", flop)
        tracer.tally("backends.bytes", elems * itemsize)
        tracer.tally("backends.region_solves", len(blocks))

    return hook


def _close_hook(tracer):
    def hook(args, kwargs, result):
        path = args[0].path
        if os.path.exists(path):
            tracer.tally("trajio.bytes_written", os.path.getsize(path))

    return hook


def install(tracer) -> None:
    """Wrap every layer entry point the workloads reach."""
    import repro.linscale.calculator as lcalc
    import repro.linscale.foe_local as foe_local
    import repro.linscale.kfoe as kfoe
    import repro.md.driver as driver
    import repro.neighbors.brute as brute
    import repro.neighbors.celllist as celllist
    import repro.tb.calculator as tbcalc
    from repro.linscale import backends
    from repro.linscale.sparse_hamiltonian import SparseHamiltonianBuilder
    from repro.neighbors.verlet import VerletList
    from repro.trajio.reader import TrajectoryReader
    from repro.trajio.writer import TrajectoryWriter

    w = tracer.wrap
    w(VerletList, "update", "neighbors.update")
    # neighbor_list() imports its builders at call time from these modules
    w(brute, "brute_force_neighbors", "neighbors.brute_force")
    w(celllist, "cell_list_neighbors", "neighbors.cell_list")
    w(SparseHamiltonianBuilder, "build", "sparse_hamiltonian.build")
    w(SparseHamiltonianBuilder, "build_k", "sparse_hamiltonian.build_k")
    w(lcalc, "extract_regions", "regions.extract")
    # per-region densification maps, rebuilt whenever the regions are
    w(lcalc, "build_region_gather_maps", "regions.gather_maps")
    for mod in (lcalc, foe_local, kfoe):
        w(mod, "lanczos_spectral_bounds", "window.lanczos")
    w(lcalc, "solve_density_regions", "foe_local.solve")
    w(lcalc, "solve_density_regions_fused", "foe_local.solve_fused")
    w(lcalc, "solve_density_regions_k", "kfoe.solve")
    w(lcalc, "solve_density_regions_k_fused", "kfoe.solve_fused")
    classes = {type(backends.get_backend(name))
               for name in backends.available_backends()}
    for cls in sorted(classes, key=lambda c: c.__name__):
        for kind in ("moments", "density_rows", "fused"):
            fn = getattr(cls, kind)
            w(cls, kind, f"backends.{kind}",
              hook=_kernel_hook(tracer, kind, fn))
    w(lcalc, "sparse_band_forces", "forces.band")
    w(lcalc, "sparse_band_forces_k", "forces.band_k")
    w(lcalc, "repulsive_energy_forces", "forces.repulsive")
    w(lcalc.LinearScalingCalculator, "compute", "calc.compute")
    w(tbcalc.TBCalculator, "compute", "tb.compute")
    w(driver.MDDriver, "run", "md.run")
    w(TrajectoryWriter, "write_arrays", "trajio.write")
    w(TrajectoryWriter, "close", "trajio.close", hook=_close_hook(tracer))
    w(TrajectoryReader, "read", "trajio.read")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, snapshot: dict, service: dict | None
                      ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name → (value, unit).

    *snapshot* is the ``repro.obs`` registry snapshot of the traced
    phase; *service* the client-side service tallies (``None`` when the
    workload sends no service traffic).  Layers a workload never calls
    read 0.
    """
    c = snapshot.get("counters", {})
    h = snapshot.get("histograms", {})
    selfs = tracer.self_times()
    busy, count = tracer.busy, tracer.count

    def self_of(prefix: str) -> float:
        return sum(selfs[s.sid] for s in tracer.spans
                   if s.name.startswith(prefix))

    def cnt(name: str) -> float:
        return float(c.get(name, 0.0))

    rebuilds = sum(v for k, v in c.items()
                   if k.startswith("neighbors.rebuild."))
    hits, misses = cnt("hamiltonian.pattern_hit"), cnt(
        "hamiltonian.pattern_miss")
    fused, fallback = cnt("foe.fused"), cnt("foe.fallback")
    mu_shift = h.get("foe.mu_shift", {})
    kernel_s = busy("backends.")
    gflop = tracer.tallies.get("backends.flop", 0.0) / 1e9

    m: dict[str, tuple[float, str]] = {
        "neighbors.busy_s": (busy("neighbors."), "s"),
        "neighbors.calls": (count("neighbors.update"), "count"),
        "neighbors.rebuilds": (rebuilds, "count"),
        "neighbors.brute_force_s": (busy("neighbors.brute_force"), "s"),
        "neighbors.cell_list_s": (busy("neighbors.cell_list"), "s"),
        "sparse_hamiltonian.busy_s": (busy("sparse_hamiltonian."), "s"),
        "sparse_hamiltonian.calls": (count("sparse_hamiltonian."), "count"),
        "sparse_hamiltonian.pattern_hit_ratio": (
            _ratio(hits, hits + misses), "ratio"),
        "regions.busy_s": (busy("regions."), "s"),
        "regions.rebuilds": (cnt("regions.rebuild"), "count"),
        "regions.reuse_ratio": (_ratio(
            cnt("regions.reuse"),
            cnt("regions.reuse") + cnt("regions.rebuild")), "ratio"),
        "window.busy_s": (busy("window."), "s"),
        "window.refreshes": (cnt("window.refresh"), "count"),
        "window.invalidations": (cnt("window.invalidated"), "count"),
        "foe_local.busy_s": (busy("foe_local."), "s"),
        "foe_local.self_s": (self_of("foe_local."), "s"),
        "foe_local.fused_calls": (fused, "count"),
        "foe_local.fallback_calls": (fallback, "count"),
        "foe_local.two_pass_calls": (cnt("foe.cold"), "count"),
        "foe_local.fused_hit_ratio": (_ratio(fused, fused + fallback),
                                      "ratio"),
        "foe_local.mu_shift_mev_p50": (
            1e3 * float(mu_shift.get("p50") or 0.0), "meV"),
        "kfoe.busy_s": (busy("kfoe."), "s"),
        "kfoe.calls": (count("kfoe."), "count"),
        "backends.moments_s": (busy("backends.moments"), "s"),
        "backends.density_s": (busy("backends.density_rows"), "s"),
        "backends.fused_s": (busy("backends.fused"), "s"),
        "backends.region_solves": (
            tracer.tallies.get("backends.region_solves", 0.0), "count"),
        "backends.gflop_computed": (gflop, "GFLOP"),
        "backends.gbyte_computed": (
            tracer.tallies.get("backends.bytes", 0.0) / 1e9, "GB"),
        "backends.gflops_achieved": (_ratio(gflop, kernel_s), "GFLOP/s"),
        "forces.band_s": (busy("forces.band"), "s"),
        "forces.repulsive_s": (busy("forces.repulsive"), "s"),
        "tb.busy_s": (busy("tb."), "s"),
        "md.self_s": (self_of("md."), "s"),
        "calc.self_s": (self_of("calc."), "s"),
        "trajio.write_s": (busy("trajio.write") + busy("trajio.close"), "s"),
        "trajio.frames_written": (cnt("trajio.frames_written"), "count"),
        "trajio.bytes_written": (
            tracer.tallies.get("trajio.bytes_written", 0.0), "B"),
        "trajio.read_s": (busy("trajio.read"), "s"),
        "trajio.frames_read": (cnt("trajio.frames_read"), "count"),
        "trajio.chunk_reads": (cnt("trajio.chunk_reads"), "count"),
    }
    svc = service or {}
    m.update({
        "service.server_ms_p50": (svc.get("server_ms_p50", 0.0), "ms"),
        "service.queue_wait_ms_p50": (svc.get("queue_wait_ms_p50", 0.0),
                                      "ms"),
        "service.batch_size_mean": (
            float((h.get("service.batch_size") or {}).get("mean") or 0.0),
            "count"),
        "service.warm_ratio": (_ratio(
            cnt("service.warm_evals"),
            cnt("service.warm_evals") + cnt("service.cold_evals")), "ratio"),
        "service.errors": (cnt("service.errors"), "count"),
    })
    m.update(_coverage(tracer, selfs))
    return m


def _coverage(tracer, selfs: dict[int, float]) -> dict[str, tuple]:
    """Share of operation wall time the named layers' self times cover,
    and the measured wrapper cost as a share of traced wall time.  The
    wrapper cost leaves out the ``repro.obs`` counters the traced run
    switches on; ``run.py`` prints traced minus untraced for those.

    An operation is an ``op.*`` span other than set-up.  Layer calls that
    the service dispatches to its own threads have no operation above
    them; their root span's wall time joins the operation time instead.
    """
    by_id = {s.sid: s for s in tracer.spans}

    def root(s):
        while s.parent is not None and not s.name.startswith("op."):
            s = by_id[s.parent]
        return s

    wall: dict[int, float] = {}
    covered = 0.0
    for s in tracer.spans:
        r = root(s)
        counted = (r.name.startswith("op.") and r.name != "op.setup") or \
            r.layer in NAMED_LAYERS + ("calc",)
        if not counted:
            continue
        wall[r.sid] = r.duration
        if s.layer in NAMED_LAYERS:
            covered += selfs[s.sid]
    run_wall = sum(s.duration for s in tracer.spans if s.name == "run")
    overhead = sum(s.overhead for s in tracer.spans)
    return {
        "trace.coverage": (_ratio(covered, sum(wall.values())), "ratio"),
        "trace.overhead_pct": (100.0 * _ratio(overhead, run_wall), "%"),
        "trace.spans": (float(len(tracer.spans)), "count"),
    }
