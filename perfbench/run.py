"""The repository benchmark: hot O(N) MD, cold single points and mixed
service traffic.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it wraps each layer's entry
points, keeps spans in memory, writes them to ``.perfbench_out/`` at the
end and prints the per-layer metrics, and the tracing overhead as traced
minus untraced end-to-end numbers when a ``--trace 0`` run of the same
workload and seed ran before it in this checkout.  Both print the host
record, every metric with its unit and sample count, and every output
check; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-reference`` re-evaluates the canonical cold single points and
rewrites ``perfbench/reference_cold.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"


def host_record() -> dict:
    """Where the numbers were taken; results from different hosts are
    never compared."""
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas_cfg = cfg["Build Dependencies"]["blas"]
        blas = f"{blas_cfg.get('name')} {blas_cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "commit": _commit(),
    }


def _blas_threads() -> int | str:
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _commit() -> str:
    """HEAD of the checkout, read without running git (a checkout made
    from an archive has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def print_overhead(traced: dict, untraced_path: Path) -> None:
    """Print the tracing overhead as the traced minus the untraced
    end-to-end numbers of the same workload and seed, when an untraced
    run has left them in this checkout.  The difference includes the
    ``repro.obs`` counters the traced run switches on; on a noisy host
    one pair of runs also carries the host's run-to-run spread."""
    try:
        base = json.loads(untraced_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        print("overhead: no untraced run of this workload and seed here; "
              "run it with --trace 0 first to compare")
        return
    for name, (value, unit, _) in traced.items():
        ref = base.get(name, {}).get("value")
        if ref:
            print(f"overhead {name} = {value - ref:+.6g} {unit} "
                  f"({100.0 * (value - ref) / ref:+.1f}% traced vs untraced)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro — run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import layers
    import workloads
    from tracing import NullTracer, Tracer

    if args.record_reference:
        workloads.record_cold_reference()
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    print("host " + json.dumps(host_record()))
    tracer = Tracer(run_id) if args.trace else NullTracer()
    workdir = WORK_DIR / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            layers.install(tracer)
        try:
            with tracer.active():
                outcome = workloads.WORKLOADS[args.workload](
                    args.seed, args.seconds, workdir, tracer)
        finally:
            if args.trace:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"inputs {outcome.input_digest} outputs {outcome.output_digest}")
    for key, val in outcome.info.items():
        print(f"info {key} = {val}")
    label = "traced " if args.trace else ""
    for name, (value, unit, n) in outcome.metrics.items():
        print(f"{label}metric {name} = {value:.6g} {unit} (n={n})")
    for name, (value, unit, n) in outcome.shared.items():
        print(f"{label}shared {name} = {value:.6g} {unit} (n={n})")
    for name, ok, detail in outcome.checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} — {detail}")

    OUT_DIR.mkdir(exist_ok=True)
    # the untraced numbers of this workload, seed and size, kept for the
    # traced run's overhead comparison
    untraced = OUT_DIR / (f"{args.workload}-{args.seed}-{args.seconds:g}"
                          ".untraced.json")
    if args.trace:
        per_layer = layers.per_layer_metrics(
            tracer, tracer.registry.snapshot(samples=False), outcome.service)
        for name, (value, unit) in per_layer.items():
            print(f"layer {name} = {value:.6g} {unit}")
        print_overhead(outcome.shared, untraced)
        tracer.dump(OUT_DIR / f"{run_id}.spans.json")
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u, _) in outcome.shared.items()}
        untraced.write_text(json.dumps(metrics), encoding="utf-8")
    print(json.dumps({"correct": all(ok for _, ok, _ in outcome.checks),
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
