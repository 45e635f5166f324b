"""The three benchmark workloads.

Each workload builds its inputs from the seed, sets up (timed as
``setup_s``), runs a fixed number of operations derived from the
requested seconds, then checks the program's outputs.  Only the set-up
and the operations run inside the tracer's active block; checks run
untraced.

* ``md_si512_hot`` — the production O(N) TBMD path: hot NVE MD of a
  512-atom Si cell with a PTRJ trajectory written every step.
* ``cold_singlepoints`` — fresh-calculator energy+forces evaluations on
  both sides of the cell-list width, at Γ and with k points, plus the
  dense ``tb`` path.  It bypasses the warm fused path.
* ``service_mix`` — two closed-loop client threads on an in-process
  ``BatchService(nworkers=2)`` sending evals, relax steps, sweeps that
  write PTRJ, and frame reads.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
COLD_REFERENCE = HERE / "reference_cold.json"

#: Nominal cost of one operation on the reference host (2-core x86-64,
#: OpenBLAS).  The number of operations in a run is
#: ``round(seconds / cost)``, so counts are fixed by (seed, seconds)
#: and repeat exactly between runs.
MD_STEP_NOMINAL_S = 3.4
COLD_BATCH_NOMINAL_S = 16.0
SVC_OP_NOMINAL_S = 0.1

#: The canonical hot configuration (see :func:`md_inputs`).
MD_RATTLE_SEED = 1000
MD_VELOCITY_SEED = 1001

#: The MD fast path evaluates the final configuration on the cached,
#: padded Chebyshev window; a fresh ``reuse=False`` calculator uses tight
#: Lanczos bounds.  At order 150 / kT 0.2 eV that difference is an
#: expansion error of 1.4e-4 to 3.6e-4 eV/Å (not a bug: at kT 0.35 /
#: order 220 it falls below 1e-8).  The tolerance sits about 3x above
#: it, so a fast path that drifts beyond the expansion error fails.
MD_FORCE_TOL = 1e-3
#: Cold single points are pure functions of the geometry; a rigid
#: translation changes results only by rounding (~1e-13 measured).
COLD_ENERGY_TOL = 1e-7
COLD_FORCE_TOL = 1e-7
#: Σ F and Σ populations − N_e are zero to rounding (~1e-14 measured).
SUM_TOL = 1e-8
#: PTRJ stores positions with a float32 delta bound of pos_tol = 1e-6 Å.
PTRJ_POS_TOL = 1e-6


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: the workload's own end-to-end metrics: name → (value, unit, samples)
    metrics: dict[str, tuple[float, str, int]]
    #: the same numbers under the names every workload shares (the
    #: ``end_to_end`` list of BENCHMARK.json)
    shared: dict[str, tuple[float, str, int]]
    attempted: int
    failed: int
    checks: list[tuple[str, bool, str]]
    input_digest: str
    output_digest: str
    service: dict | None = None
    info: dict = field(default_factory=dict)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _shared(own: dict, p50: str, p90: str, rate: str, setup: list[float],
            attempted: int, failed: int) -> dict:
    """Add the metrics every workload reports to *own*, and return the
    shared-name view: ``op_s_p50`` / ``op_s_p90`` are the median and
    90th percentile of one operation's time at the caller, ``work_per_s``
    the workload's throughput."""
    own["setup_s"] = (statistics.median(setup), "s", len(setup))
    own["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    # ops_failed_frac in complement form: a metric that is 0 on a
    # healthy run has no relative bound
    own["ops_ok_frac"] = ((attempted - failed) / attempted, "ratio",
                          attempted)

    def seconds(name):
        value, unit, n = own[name]
        return (value / 1e3 if unit == "ms" else value, "s", n)

    shared = {"op_s_p50": seconds(p50), "op_s_p90": seconds(p90),
              "work_per_s": (own[rate][0], "1/s", own[rate][2])}
    for name in ("setup_s", "peak_rss_mb", "ops_ok_frac"):
        shared[name] = own[name]
    return shared


# -- md_si512_hot -------------------------------------------------------------

def md_inputs(seed: int):
    """4x4x4 diamond Si (512 atoms) rattled 0.1 Å, velocities at 1500 K.

    One canonical configuration (fixed rattle and velocity seeds); the
    run seed draws a rigid translation of it.  Which warm steps hold the
    fused path depends on the velocities: between independent 1500 K
    configurations the fused share of six steps ranged from 0 to 3,
    which moved the step median by up to 25%, so independent draws
    would measure the draw rather than the code.  The canonical
    trajectory holds the fused path on 1 of its first 7 warm steps.
    """
    from repro.geometry import bulk_silicon, rattle, supercell
    from repro.md import maxwell_boltzmann_velocities

    atoms = rattle(supercell(bulk_silicon(), 4), 0.1, seed=MD_RATTLE_SEED)
    maxwell_boltzmann_velocities(atoms, 1500.0, seed=MD_VELOCITY_SEED)
    _translate(atoms, seed)
    return atoms


def _translate(atoms, seed: int) -> None:
    """Move *atoms* rigidly by a seeded vector inside the cell (10 Å box
    for open structures): new inputs, the same physics."""
    lengths = np.linalg.norm(np.asarray(atoms.cell.matrix), axis=1) \
        if atoms.cell.periodic else np.full(3, 10.0)
    atoms.positions += np.random.default_rng(seed).random(3) * lengths


def md_si512_hot(seed: int, seconds: float, workdir: Path, tracer) -> Outcome:
    from repro.linscale import LinearScalingCalculator
    from repro.md import MDDriver, VelocityVerlet
    from repro.md.observers import BinaryTrajectoryWriter
    from repro.tb import GSPSilicon
    from repro.trajio.reader import TrajectoryReader

    nsteps = max(2, round(seconds / MD_STEP_NOMINAL_S))
    traj_path = workdir / "md.ptrj"

    with tracer.span("op.setup"):
        t0 = perf_counter()
        atoms = md_inputs(seed)
        input_digest = digest(atoms.positions, atoms.velocities)
        calc = LinearScalingCalculator(GSPSilicon(), kT=0.2)
        writer = BinaryTrajectoryWriter(str(traj_path))
        md = MDDriver(atoms, calc, VelocityVerlet(dt=1.0),
                      observers=[writer])
        md.run(1)           # cold first evaluation + one warm step
        setup = perf_counter() - t0

    step_s, positions, energies = [], [], []
    try:
        for _ in range(nsteps):
            with tracer.span("op.md_step"):
                t = perf_counter()
                data = md.run(1)
                step_s.append(perf_counter() - t)
            positions.append(atoms.positions.copy())
            energies.append(data["etot"])
    finally:
        writer.close()
    forces = data["results"]["forces"].copy()

    with tracer.paused():
        failed_steps: set[int] = set()
        checks = []
        finite = [i for i, e in enumerate(energies) if not np.isfinite(e)]
        failed_steps.update(finite)
        checks.append(("md.energy_finite", not finite,
                       f"{len(finite)} non-finite steps"))
        with TrajectoryReader(str(traj_path)) as reader:
            nframes = len(reader)
            # frame 0 is the initial snapshot, frame 1 the warm-up step
            bad = [i for i in range(nsteps) if i + 2 >= nframes or
                   np.abs(reader.read(i + 2).positions
                          - positions[i]).max() > PTRJ_POS_TOL]
        if nframes != nsteps + 2:
            bad = list(range(nsteps))
        failed_steps.update(bad)
        checks.append(("md.trajectory_frames", not bad,
                       f"{nframes} frames, {len(bad)} off by > "
                       f"{PTRJ_POS_TOL} Å"))
        ref = LinearScalingCalculator(GSPSilicon(), kT=0.2, reuse=False)
        f_ref = ref.compute(atoms.copy(), forces=True)["forces"]
        dev = float(np.abs(forces - f_ref).max())
        if dev > MD_FORCE_TOL:
            failed_steps.add(nsteps - 1)
        checks.append(("md.forces_vs_reuse_false", dev <= MD_FORCE_TOL,
                       f"max |dF| {dev:.3e} eV/Å (tol {MD_FORCE_TOL})"))

    natoms = len(atoms)
    metrics = {
        "md_step_s_p50": (statistics.median(step_s), "s", nsteps),
        "md_step_s_p90": (_pct(step_s, 90), "s", nsteps),
        "md_atom_steps_per_s": (natoms * nsteps / sum(step_s), "1/s",
                                nsteps),
    }
    shared = _shared(metrics, "md_step_s_p50", "md_step_s_p90",
                     "md_atom_steps_per_s", [setup], nsteps,
                     len(failed_steps))
    return Outcome(metrics, shared, nsteps, len(failed_steps), checks,
                   input_digest, digest(forces),
                   info={"md_force_dev_ev_per_a": dev,
                         "solve_modes": calc.state_report()["foe"]})


# -- cold_singlepoints --------------------------------------------------------

def _cold_cases():
    """(name, canonical structure builder, fresh calculator factory).

    Canonical geometries use fixed rattle seeds so their energies and
    forces can be recorded once in ``reference_cold.json``; the run seed
    moves each structure by a rigid translation, which changes the
    inputs but not the physics.
    """
    from repro.geometry import bulk_silicon, nanotube, rattle, supercell
    from repro.linscale import LinearScalingCalculator
    from repro.tb import GSPSilicon, TBCalculator, XuCarbon

    def lin(**kw):
        return lambda: LinearScalingCalculator(GSPSilicon(), kT=0.2, **kw)

    return [
        # 3x3x3 cell is narrower than 3 x (r_loc + skin): brute-force
        # neighbour builds
        ("si216_gamma",
         lambda: rattle(supercell(bulk_silicon(), 3), 0.05, seed=216),
         lin()),
        # 4x4x4: cell-list neighbour builds
        ("si512_gamma",
         lambda: rattle(supercell(bulk_silicon(), 4), 0.05, seed=512),
         lin()),
        ("si8_k444", lambda: rattle(bulk_silicon(), 0.05, seed=8),
         lin(kpts=(4, 4, 4))),
        ("si64_k222",
         lambda: rattle(supercell(bulk_silicon(), 2), 0.05, seed=64),
         lin(kpts=(2, 2, 2))),
        ("cnt120_diag",
         lambda: rattle(nanotube(10, 0, cells=3, periodic=False), 0.05,
                        seed=120),
         lambda: TBCalculator(XuCarbon())),
    ]


def _electron_error(res: dict, model, atoms) -> float:
    nelec = model.total_electrons(atoms.symbols)
    pops = res.get("populations")
    total = float(np.sum(pops if pops is not None else res["occupations"]))
    return abs(total - nelec)


def record_cold_reference(path: Path = COLD_REFERENCE) -> None:
    """Evaluate the canonical cold structures and write the reference."""
    out = {}
    for name, build, make_calc in _cold_cases():
        res = make_calc().compute(build(), forces=True)
        out[name] = {"energy": res["energy"],
                     "forces": res["forces"].tolist()}
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def cold_inputs(seed: int):
    """(name, structure, calculator factory) per case; the seed draws a
    rigid translation of each canonical structure."""
    cases = _cold_cases()
    out = []
    for (name, build, make_calc), s in zip(cases, _seeds(seed, len(cases))):
        atoms = build()
        _translate(atoms, s)
        out.append((name, atoms, make_calc))
    return out


def cold_singlepoints(seed: int, seconds: float, workdir: Path,
                      tracer) -> Outcome:
    from repro.geometry import bulk_silicon
    from repro.linscale import LinearScalingCalculator
    from repro.tb import GSPSilicon

    # at least two batches: a shared host's speed changes in phases of
    # seconds to tens of seconds, and a single batch can fall in one
    nbatches = max(2, round(seconds / COLD_BATCH_NOMINAL_S))
    setups = []
    for _ in range(3):
        # inputs, reference table and a warm-up evaluation that loads the
        # lazily imported solver modules
        with tracer.span("op.setup"):
            t0 = perf_counter()
            inputs = cold_inputs(seed)
            reference = json.loads(COLD_REFERENCE.read_text("utf-8"))
            LinearScalingCalculator(GSPSilicon(), kT=0.2).compute(
                bulk_silicon(), forces=True)
            setups.append(perf_counter() - t0)
    input_digest = digest(*[a.positions for _, a, _ in inputs])

    # every evaluation of every batch is checked: a defect that shows
    # only on some fresh calculator (stale module state, say) must count
    eval_s, batch_s, results = [], [], []
    for b in range(nbatches):
        t_batch = perf_counter()
        for name, atoms, make_calc in inputs:
            with tracer.span("op.cold_eval"):
                t = perf_counter()
                calc = make_calc()
                res = calc.compute(atoms, forces=True)
                eval_s.append(perf_counter() - t)
            results.append((b, name, atoms, calc.model, res))
        batch_s.append(perf_counter() - t_batch)

    checks, failed = [], 0
    with tracer.paused():
        for b, name, atoms, model, res in results:
            ref = reference[name]
            de = abs(res["energy"] - ref["energy"])
            df = float(np.abs(res["forces"] - np.asarray(ref["forces"])).max())
            fsum = float(np.abs(res["forces"].sum(axis=0)).max())
            nerr = _electron_error(res, model, atoms)
            ok = (de <= COLD_ENERGY_TOL and df <= COLD_FORCE_TOL
                  and fsum <= SUM_TOL and nerr <= SUM_TOL)
            failed += not ok
            checks.append((f"cold.{name}.batch{b}", ok,
                           f"|dE| {de:.1e} eV, max|dF| {df:.1e} eV/Å, "
                           f"|ΣF| {fsum:.1e}, |ΣN-Ne| {nerr:.1e}"))

    attempted = len(eval_s)
    natoms = sum(len(a) for _, a, _ in inputs)
    metrics = {
        "cold_eval_s_p50": (statistics.median(eval_s), "s", attempted),
        "cold_eval_s_p90": (_pct(eval_s, 90), "s", attempted),
        "cold_batch_s": (statistics.median(batch_s), "s", nbatches),
        "cold_atoms_per_s": (natoms * nbatches / sum(batch_s), "1/s",
                             nbatches),
    }
    shared = _shared(metrics, "cold_eval_s_p50", "cold_eval_s_p90",
                     "cold_atoms_per_s", setups, attempted, failed)
    return Outcome(metrics, shared, attempted, failed, checks, input_digest,
                   digest(*[r["forces"] for *_, r in results]))


# -- service_mix --------------------------------------------------------------

#: as in the A9 service benchmark
SVC_LIN_SPEC = {"model": "gsp-si", "solver": "linscale", "kT": 0.3,
                "order": 80, "r_loc": 5.0}
#: as in the campaign example, with a 4x4x4 k grid
SVC_DIAG_SPEC = {"model": "gsp-si", "solver": "diag", "kT": 0.1,
                 "kgrid": [4, 4, 4]}
SVC_JIGGLE = 0.004          # Å per eval — an MD step's displacement
SVC_SWEEP_AMPLITUDES = [-0.01, -0.005, 0.0, 0.005, 0.01]
#: Op mix per client, as request counts scaled to the client's ops.
#: eval / relax_step / sweep are counted, not chosen: the campaign
#: example ``examples/campaign_si.toml`` (eos, vacancy, phonons, elastic)
#: sends 166 ``eval``, 10 ``relax_step`` and 4 ``sweep`` requests through
#: ``BatchService``, besides its loads, unloads and one ``stats``.  The
#: campaign reads no frames back; one ``frames`` read per stored sweep is
#: an assumption, not a measurement.
SVC_MIX = (("eval", 166), ("relax_step", 10), ("sweep", 4), ("frames", 4))


def _deck(rng, items, n: int) -> list:
    """*n* picks that use each item equally often, in seeded order.

    Each client's mix has the same composition for every seed; the seed
    draws the order, the structures and the jiggles.  (Independent draws
    would let the share of slow operations, and with it the medians,
    vary from seed to seed.)
    """
    reps = -(-n // len(items))
    out = [items[i % len(items)] for i in range(reps * len(items))][:n]
    return [out[i] for i in rng.permutation(n)]


def _op_schedule(rng, nops: int, sids: list[str]) -> list[tuple]:
    """(op, structures) per operation: eval → a 1–2 structure subset,
    relax_step → one structure, sweep → one diag cell, frames → None."""
    total = sum(n for _, n in SVC_MIX)
    # at least one of each, so every kind of operation occurs
    counts = {op: max(1, round(n * nops / total)) for op, n in SVC_MIX}
    counts["eval"] = nops - sum(v for k, v in counts.items() if k != "eval")
    ops = _deck(rng, [op for op, n in counts.items() for _ in range(n)],
                nops)
    if "frames" in ops and "sweep" in ops:
        # a read needs a stored sweep before it
        i, j = ops.index("frames"), ops.index("sweep")
        if i < j:
            ops[i], ops[j] = ops[j], ops[i]
    subsets = [(s,) for s in sids] + [
        (a, b) for k, a in enumerate(sids) for b in sids[k + 1:]]
    picks = {"eval": iter(_deck(rng, subsets, counts["eval"])),
             "relax_step": iter(_deck(rng, [(s,) for s in sids],
                                      counts["relax_step"])),
             "sweep": iter(_deck(rng, [(s,) for s in sids[:2]],
                                 counts["sweep"]))}
    return [(op, next(picks[op]) if op in picks else None) for op in ops]


@dataclass
class _Client:
    """One closed-loop client: its structures and what it saw."""

    index: int
    rng: np.random.Generator
    structures: dict[str, dict] = field(default_factory=dict)
    #: per operation: (op, client latency ms, server time ms or None)
    samples: list[tuple[str, float, float | None]] = field(
        default_factory=list)
    attempted: int = 0
    #: operations answered with an error envelope
    errors: int = 0
    sweeps: list[tuple[str, np.ndarray]] = field(default_factory=list)
    frame_errors: list[str] = field(default_factory=list)
    #: per structure: the calculator calls made, for the replay check
    history: dict[str, list] = field(default_factory=dict)


def svc_structures(seed: int, client: int):
    """A client's structures: id → (atoms, calculator spec)."""
    from repro.geometry import bulk_silicon, rattle, supercell

    s = _seeds(seed * 2 + client, 4)
    return {
        f"c{client}-lin0": (rattle(supercell(bulk_silicon(), 2), 0.03,
                                   seed=s[0]), SVC_LIN_SPEC),
        f"c{client}-lin1": (rattle(supercell(bulk_silicon(), 2), 0.03,
                                   seed=s[1]), SVC_LIN_SPEC),
        f"c{client}-diag0": (rattle(bulk_silicon(), 0.02, seed=s[2]),
                             SVC_DIAG_SPEC),
        f"c{client}-diag1": (rattle(bulk_silicon(), 0.02, seed=s[3]),
                             SVC_DIAG_SPEC),
    }


def _svc_setup(seed: int, workdir: Path, rep: int):
    from repro.service import BatchClient, BatchService

    service = BatchService(nworkers=2, traj_dir=str(workdir / f"svc{rep}"))
    client = BatchClient(service, raise_on_error=False)
    clients = []
    for c, client_seed in enumerate(_seeds(seed, 2)):
        cl = _Client(c, np.random.default_rng(client_seed))
        for sid, (atoms, spec) in svc_structures(seed, c).items():
            client.load(sid, atoms, calc=spec)
            cl.structures[sid] = {"positions": atoms.positions.copy(),
                                  "atoms": atoms, "spec": spec}
            cl.history[sid] = [("eval", atoms.positions.copy())]
        clients.append(cl)
    first = client.evaluate_many([{"structure_id": sid}
                                  for cl in clients for sid in cl.structures])
    if not all(r.ok for r in first):
        raise RuntimeError("service set-up evaluation failed")
    return service, clients


def _server_ms(responses) -> float:
    """Server time of one client call: per-worker batches run
    concurrently, requests on one worker one after another."""
    per_worker: dict = {}
    for r in responses:
        sec = (r.timings or {}).get("seconds")
        if sec is not None:
            wid = r.value.get("worker")
            per_worker[wid] = per_worker.get(wid, 0.0) + 1e3 * sec
    return max(per_worker.values()) if per_worker else None


def _client_loop(service, cl: _Client, nops: int, tracer) -> None:
    from repro.errors import ReproError
    from repro.service import BatchClient

    client = BatchClient(service, raise_on_error=False)
    sids = sorted(cl.structures)          # diag0, diag1, lin0, lin1
    for op, subset in _op_schedule(cl.rng, nops, sids):
        sid = subset[0] if subset else None
        jig = {s: cl.rng.normal(0.0, SVC_JIGGLE, cl.structures[s]
                                ["positions"].shape) for s in sids}
        sweep_pick = cl.rng.integers(1 << 30)

        with tracer.span(f"op.{op}"):
            t0 = perf_counter()
            if op == "eval":
                reqs = [{"structure_id": s, "positions":
                         cl.structures[s]["positions"] + jig[s]}
                        for s in subset]
                responses = client.evaluate_many(reqs)
            elif op == "relax_step":
                sent = cl.structures[sid]["positions"] + jig[sid]
                responses = [client.request(
                    "relax_step", structure_id=sid, positions=sent,
                    step_size=0.01, max_step=0.02)]
            elif op == "sweep":
                responses = [client.request(
                    "sweep", structure_id=sid, amplitudes=list(
                        SVC_SWEEP_AMPLITUDES), fit=None, traj=True)]
            else:
                frames = None
                if cl.sweeps:       # else no sweep stored: a failed read
                    ref, _ = cl.sweeps[sweep_pick % len(cl.sweeps)]
                    try:
                        if sweep_pick % 2:
                            frames = list(client.iter_frames(ref, batch=2))
                        else:
                            frames = client.frames(ref)["frames"]
                    except (KeyError, ReproError):
                        frames = None
                responses = []
            latency = 1e3 * (perf_counter() - t0)
        cl.attempted += 1
        cl.samples.append((op, latency, _server_ms(responses)
                           if responses else None))
        if not all(r.ok for r in responses) or \
                (op == "frames" and frames is None):
            cl.errors += 1
            continue
        if op == "eval":
            for s, req, r in zip(subset, reqs, responses):
                cl.structures[s]["positions"] = req["positions"]
                cl.history[s].append(("eval", req["positions"].copy(),
                                      r["forces"]))
        elif op == "relax_step":
            r = responses[0]
            cl.history[sid].append(("relax", sent, r["energy"]))
            cl.structures[sid]["positions"] = np.asarray(r["positions"])
        elif op == "sweep":
            pos = cl.structures[sid]["positions"]
            expected = np.stack([pos * (1.0 + a)
                                 for a in SVC_SWEEP_AMPLITUDES])
            cl.sweeps.append((responses[0]["traj_ref"], expected))
            cl.history[sid].append(("sweep", pos.copy()))
        else:
            _, expected = cl.sweeps[sweep_pick % len(cl.sweeps)]
            got = [np.asarray(f["positions"]) for f in frames]
            if len(got) != len(expected) or any(
                    np.abs(g - e).max() > PTRJ_POS_TOL
                    for g, e in zip(got, expected)):
                cl.frame_errors.append(ref)


def _replay(cl: _Client, sid: str) -> tuple[bool, str]:
    """Drive a standalone calculator through the calls the service made
    for *sid*; every result must be bit-equal to what the client got."""
    from repro.analysis.strain_sweep import strain_sweep
    from repro.calculators import make_calculator

    st = cl.structures[sid]
    atoms = st["atoms"].copy()
    calc = make_calculator(st["spec"])
    mismatches = 0
    for entry in cl.history[sid]:
        atoms.positions[:] = entry[1]
        if entry[0] == "sweep":
            strain_sweep(atoms, calc, np.asarray(SVC_SWEEP_AMPLITUDES),
                         fit=None)
            continue
        res = calc.compute(atoms, forces=True)
        if entry[0] == "eval" and len(entry) > 2:
            mismatches += not np.array_equal(res["forces"], entry[2])
        elif entry[0] == "relax":
            mismatches += res["energy"] != entry[2]
    return mismatches == 0, f"{len(cl.history[sid])} calls, " \
                            f"{mismatches} not bit-equal"


def service_mix(seed: int, seconds: float, workdir: Path, tracer) -> Outcome:
    nops = max(20, round(seconds / SVC_OP_NOMINAL_S / 2))

    setups = []
    service = clients = None
    for rep in range(2):
        if service is not None:
            service.close()
        with tracer.span("op.setup"):
            t0 = perf_counter()
            service, clients = _svc_setup(seed, workdir, rep)
            setups.append(perf_counter() - t0)
    input_digest = digest(*[st["positions"] for cl in clients
                            for st in cl.structures.values()])

    errors: list[BaseException] = []

    def body(cl):
        try:
            _client_loop(service, cl, nops, tracer)
        except Exception as exc:        # re-raised in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(cl,)) for cl in clients]
    t0 = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = perf_counter() - t0
    service.close()
    if errors:
        raise errors[0]

    checks = []
    n_errors = sum(cl.errors for cl in clients)
    failed = n_errors + sum(len(cl.frame_errors) for cl in clients)
    with tracer.paused():
        checks.append(("service.responses_ok", n_errors == 0,
                       f"{n_errors} error responses"))
        for cl in clients:
            checks.append((f"service.c{cl.index}.frames_match",
                           not cl.frame_errors,
                           f"{len(cl.sweeps)} sweeps, "
                           f"{len(cl.frame_errors)} mismatched reads"))
            sid = f"c{cl.index}-lin0"
            ok, detail = _replay(cl, sid)
            if not ok:
                failed += 1
            checks.append((f"service.{sid}.replay_bit_equal", ok, detail))

    samples = [x for cl in clients for x in cl.samples]
    lat = [lt for _, lt, _ in samples]
    server = [sv for _, _, sv in samples if sv is not None]
    queue = [lt - sv for _, lt, sv in samples if sv is not None]
    attempted = sum(cl.attempted for cl in clients)
    metrics = {
        "svc_latency_ms_p50": (_pct(lat, 50), "ms", len(lat)),
        "svc_latency_ms_p90": (_pct(lat, 90), "ms", len(lat)),
        "svc_requests_per_s": (attempted / wall, "1/s", attempted),
    }
    shared = _shared(metrics, "svc_latency_ms_p50", "svc_latency_ms_p90",
                     "svc_requests_per_s", setups, attempted, failed)
    tallies = {"server_ms_p50": _pct(server, 50) if server else 0.0,
               "queue_wait_ms_p50": _pct(queue, 50) if queue else 0.0}
    outputs = [h[2] for cl in clients for h in cl.history[f"c{cl.index}-lin0"]
               if h[0] == "eval" and len(h) > 2]
    return Outcome(metrics, shared, attempted, failed, checks, input_digest,
                   digest(*outputs), service=tallies)


WORKLOADS = {
    "md_si512_hot": md_si512_hot,
    "cold_singlepoints": cold_singlepoints,
    "service_mix": service_mix,
}

