"""One process of one benchmark run: set up a workload, time its rounds,
check its outputs, and print one JSON report line. ``run.py`` starts it;
run that instead.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

With ``--setup-only`` it stops after set-up and reports when set-up ended.
With ``--trace 1`` the first half of the rounds each run twice on the same
inputs: first with all layers wrapped (the spans the per-layer metrics
come from), then unwrapped, which gives the tracing overhead. A traced run
so takes as long as an untraced one.
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checkout import OUT  # noqa: E402  (puts the program's src/ on sys.path)
import hostspeed  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import sscirl  # noqa: E402

from layers import install, layer_metrics  # noqa: E402
from tracer import Spans, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def timed_round(wl, k: int, tracer: Tracer | None) -> dict:
    if tracer is not None:
        install(tracer)
        wl.server_trace(True)
    srv0 = wl.server_usage()["cpu_s"]
    cpu0 = time.process_time()
    jiffies0 = hostspeed.cpu_jiffies()
    t0 = time.monotonic()
    error = None
    try:
        ops = wl.run_round(k)
    except Exception:  # a failed round counts its operations as failed
        ops, error = 0, traceback.format_exc(limit=3)
    t1 = time.monotonic()
    jiffies1 = hostspeed.cpu_jiffies()
    cpu1 = time.process_time()
    srv1 = wl.server_usage()["cpu_s"]
    if tracer is not None:
        tracer.remove()
        wl.server_trace(False)
    return {"round": k, "ops": ops, "t0": t0, "t1": t1, "wall_s": t1 - t0,
            "cpu_s": (cpu1 - cpu0) + (srv1 - srv0), "error": error,
            "running": hostspeed.running_share(jiffies0, jiffies1)}


PROBE_EVERY_S = 1.5


def measure(wl, trace: bool, first_probe: tuple[float, float]) -> dict:
    """Run the rounds, probing the host speed between them at least every
    ``PROBE_EVERY_S``. Each round gets ``ref_s``, the mean of the probes
    just before and just after it."""
    tracer = Tracer() if trace else None
    rounds, repeats, failures = [], [], []
    probes = [first_probe]

    def run(k, tr):
        rec = timed_round(wl, k, tr)
        if rec["t1"] - probes[-1][0] >= PROBE_EVERY_S:
            probes.append((time.monotonic(), hostspeed.probe()))
        return rec

    for k in range((wl.rounds + 1) // 2 if trace else wl.rounds):
        rec = run(k, tracer)
        rounds.append(rec)
        if rec["error"] is None:
            try:
                failures += wl.check_round(k)
            except Exception:
                failures.append(f"round {k}: check raised {traceback.format_exc(limit=3)}")
        if trace:
            repeats.append(run(k, None))
    try:
        failures += wl.check_run()
    except Exception:
        failures.append(f"run: check raised {traceback.format_exc(limit=3)}")
    if probes[-1][0] < max(r["t1"] for r in rounds + repeats):
        probes.append((time.monotonic(), hostspeed.probe()))
    for rec in rounds + repeats:
        before = [ref for t, ref in probes if t <= rec["t0"]][-1]
        after = next(ref for t, ref in probes if t >= rec["t1"])
        rec["ref_s"] = (before + after) / 2
    return {"rounds": rounds, "repeats": repeats, "failures": failures,
            "tracer": tracer, "probes": probes}


def _totals(recs, at_reference: bool) -> tuple[int, float, float]:
    """Operations, wall seconds and CPU seconds of the rounds that did not
    fail; with ``at_reference``, seconds at the reference host speed, and
    wall seconds without the time the hypervisor withheld."""
    done = [r for r in recs if r["error"] is None]
    f = [hostspeed.scale(r["ref_s"]) if at_reference else 1.0 for r in done]
    g = [r["running"] if at_reference else 1.0 for r in done]
    return (sum(r["ops"] for r in done),
            sum(r["wall_s"] * x * y for r, x, y in zip(done, f, g)),
            sum(r["cpu_s"] * x for r, x in zip(done, f)))


def _rate(recs, at_reference: bool = True) -> float:
    ops, wall, _ = _totals(recs, at_reference)
    return ops / wall if wall > 0 else 0.0


def end_to_end(rounds, at_reference: bool, client_rss_kb: int, server_rss_kb: int) -> dict:
    ops, wall, cpu = _totals(rounds, at_reference)
    return {
        "ops_per_s": {"value": ops / wall if wall > 0 else 0.0, "unit": "1/s"},
        "cpu_ms_per_op": {"value": cpu * 1e3 / ops if ops else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": (client_rss_kb + server_rss_kb) * 1024 / 1e6,
                        "unit": "MB"},
    }


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def environment() -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sscirl_using_compiled": sscirl.USING_COMPILED,
        "sscirl_path": str(Path(sscirl.__file__).parent),
        "blas": blas,
        "blas_threads": _openblas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    trace = bool(args.trace) and not args.setup_only
    spans = {side: OUT / f"trace-{args.workload}-{side}.npz" for side in ("client", "server")}
    if trace:
        for path in spans.values():
            path.unlink(missing_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.seconds, workdir,
                                  spans["server"] if trace else None)
    report = {"seeds": wl.seeds}
    try:
        wl.setup()
        report["t_ready"] = time.monotonic()
        report["jiffies_ready"] = hostspeed.cpu_jiffies()
        report["ref_after_setup_s"] = hostspeed.probe()
        if not args.setup_only:
            run = measure(wl, trace, (time.monotonic(), report["ref_after_setup_s"]))
            server_rss = wl.server_usage()["maxrss_kb"]
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.setup_only:
        rounds = run["rounds"]
        errors = [r["error"] for r in rounds + run["repeats"] if r["error"] is not None]
        client_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report.update({
            "attempted": (len(rounds) + len(run["repeats"])) * wl.ops_per_round,
            "failed": len(errors) * wl.ops_per_round,
            "errors": errors,
            "failures": run["failures"],
            "notes": wl.notes,
            "rounds": [{k: r[k] for k in ("round", "ops", "wall_s", "cpu_s", "ref_s", "running")}
                       for r in rounds],
            "host_probes_s": [ref for _, ref in run["probes"]],
            "end_to_end": end_to_end(rounds, True, client_rss, server_rss),
            "end_to_end_wall_clock": end_to_end(rounds, False, client_rss, server_rss),
            "environment": environment(),
        })
        if trace:
            run["tracer"].save(spans["client"])
            server = Spans.load(spans["server"]) if spans["server"].exists() else None
            traced, untraced = _rate(rounds), _rate(run["repeats"])
            overhead = 100.0 * (1.0 - traced / untraced) if untraced else 0.0
            report["untraced_rounds"] = [{k: r[k] for k in ("round", "ops", "wall_s", "cpu_s",
                                                            "ref_s", "running")}
                                         for r in run["repeats"]]
            report["per_layer"] = layer_metrics(Spans(run["tracer"].arrays()), server,
                                                overhead)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
