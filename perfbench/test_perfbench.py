"""Self-tests of the benchmark: seeded inputs, repeatable counts, and a
traced run that changes nothing.

    python3 -m pytest perfbench -q

Run from the repository root.  The workload tests run each workload
three times at its smallest size (about three minutes on two cores).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

#: counts that must repeat exactly between two traced runs
EXACT_COUNTS = ("neighbors.rebuilds", "neighbors.calls",
                "foe_local.fused_calls", "foe_local.fallback_calls",
                "foe_local.two_pass_calls", "regions.rebuilds",
                "trajio.frames_written", "trajio.chunk_reads",
                "backends.region_solves", "backends.gflop_computed",
                "backends.gbyte_computed")


def _input_digests(seed: int) -> dict[str, str]:
    md = workloads.md_inputs(seed)
    cold = workloads.cold_inputs(seed)
    svc = [st for c in range(2)
           for st, _ in workloads.svc_structures(seed, c).values()]
    return {
        "md": workloads.digest(md.positions, md.velocities),
        "cold": workloads.digest(*[a.positions for _, a, _ in cold]),
        "service": workloads.digest(*[a.positions for a in svc]),
    }


def test_same_seed_same_inputs_other_seed_other_inputs():
    first, again, other = (_input_digests(s) for s in (5, 5, 6))
    assert first == again
    for name in first:
        assert first[name] != other[name], name


def _traced(workload: str, seed: int, tmp_path: Path):
    tracer = Tracer(f"test-{workload}")
    layers.install(tracer)
    try:
        with tracer.active():
            out = workloads.WORKLOADS[workload](seed, 1.0, tmp_path, tracer)
    finally:
        tracer.restore()
    metrics = layers.per_layer_metrics(
        tracer, tracer.registry.snapshot(samples=False), out.service)
    return out, metrics


def _originals():
    """Every object the tracer patches, read before any patching."""
    probe = Tracer("probe")
    layers.install(probe)
    names = probe.patched
    probe.restore()
    return {(owner, attr): (attr in vars(owner), vars(owner).get(attr))
            for owner, attr in names}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_and_change_nothing(workload, tmp_path):
    before = _originals()
    plain = workloads.WORKLOADS[workload](3, 1.0, tmp_path / "plain",
                                          NullTracer())
    out1, m1 = _traced(workload, 3, tmp_path / "t1")
    out2, m2 = _traced(workload, 3, tmp_path / "t2")

    assert plain.input_digest == out1.input_digest == out2.input_digest
    # tracing leaves every output bit-identical
    assert plain.output_digest == out1.output_digest == out2.output_digest
    for ok in (plain, out1, out2):
        assert all(passed for _, passed, _ in ok.checks), ok.checks
    for name in EXACT_COUNTS:
        assert m1[name] == m2[name], name
    # and restores every wrapped name
    for (owner, attr), (had_own, obj) in before.items():
        assert (attr in vars(owner)) == had_own, (owner, attr)
        if had_own:
            assert vars(owner)[attr] is obj, (owner, attr)


def test_kernel_counts_are_computed_and_repeat():
    from repro.geometry import bulk_silicon, rattle, supercell
    from repro.linscale import LinearScalingCalculator
    from repro.tb import GSPSilicon

    def count(kpts):
        tracer = Tracer("kernel")
        layers.install(tracer)
        try:
            with tracer.active():
                atoms = rattle(supercell(bulk_silicon(), 2), 0.05, seed=1)
                LinearScalingCalculator(GSPSilicon(), kT=0.3, order=60,
                                        kpts=kpts).compute(atoms)
        finally:
            tracer.restore()
        return dict(tracer.tallies)

    gamma, gamma_again = count(None), count(None)
    assert gamma == gamma_again
    assert gamma["backends.flop"] > 0 and gamma["backends.bytes"] > 0
    k = count((2, 1, 1))
    assert k == count((2, 1, 1))
    # a 2x1x1 grid folds to one complex k point: the same regions and
    # passes as at Γ, counted at 4x the flops and 16-byte elements
    assert k["backends.region_solves"] == gamma["backends.region_solves"]
    assert k["backends.flop"] == 4 * gamma["backends.flop"]
    assert k["backends.bytes"] == 2 * gamma["backends.bytes"]


def test_cold_checks_every_batch(monkeypatch, tmp_path):
    """A wrong result in an early batch fails that evaluation, once."""
    from repro.geometry import bulk_silicon
    from repro.tb import GSPSilicon

    ref = json.loads(workloads.COLD_REFERENCE.read_text("utf-8"))["si8_k444"]
    calls = []

    class WrongFirstTime:
        model = GSPSilicon()

        def compute(self, atoms, forces=True):
            calls.append(atoms)
            return {"energy": ref["energy"] + (len(calls) == 1),
                    "forces": np.asarray(ref["forces"]),
                    "populations": np.full(len(atoms), 4.0)}

    monkeypatch.setattr(workloads, "cold_inputs", lambda seed: [
        ("si8_k444", bulk_silicon(), WrongFirstTime)])
    out = workloads.cold_singlepoints(0, 1.0, tmp_path, NullTracer())
    assert (out.attempted, out.failed) == (2, 1)
    assert [ok for _, ok, _ in out.checks] == [False, True]


def test_frames_read_before_any_sweep_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(workloads, "_op_schedule",
                        lambda rng, nops, sids: [("frames", None)])
    cl = workloads._Client(0, np.random.default_rng(0))
    workloads._client_loop(None, cl, 1, NullTracer())
    assert (cl.attempted, cl.errors) == (1, 1)
