"""sscirl benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ``src/``
with nothing installed, as the tier-1 tests run it. Workloads:
train_cached, train_uncached, remote_train, remote_stepping (see
perfbench/README.md). ``--seconds`` sets how many rounds of fixed work a run
does; the seed sets every input.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (setup_s, ops_per_s, cpu_ms_per_op,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones. The line
before it is a JSON diagnostic (environment, host-speed loop and probes,
rounds, the end-to-end figures in plain wall-clock seconds), also written
to ``perfbench/out/``. Times in the metrics are at the reference host
speed (see hostspeed.py).

Set-up time is the median over ``SETUP_PROBES`` extra processes that only
set up, plus the measuring process itself; each is timed from just before
the process is started to just before its first timed round.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout  # exits when there is no program to measure
import hostspeed

HERE = Path(__file__).resolve().parent
ROOT, OUT = checkout.ROOT, checkout.OUT
WORKLOADS = [w["name"] for w in checkout.BENCHMARK["workloads"]]
SETUP_PROBES = 2
# the whole run, all processes: a fixed part for the set-ups and checks,
# and a multiple of --seconds (a 10 s run takes 21-29 s on 2 vCPUs)
DEADLINE_FIXED_S = 50.0
DEADLINE_PER_S = 12.0
HOST_LOOP_N = 2_000_000  # diagnostic before and after the run: about 0.2 s


def spawn(args, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    ref_before = hostspeed.probe()
    jiffies_before = hostspeed.cpu_jiffies()
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: worker did not end within the run's deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_wall_s"] = report["t_ready"] - started
    report["setup_running"] = hostspeed.running_share(jiffies_before, report["jiffies_ready"])
    report["setup_s"] = report["setup_wall_s"] * report["setup_running"] * hostspeed.scale(
        (ref_before + report["ref_after_setup_s"]) / 2)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_FIXED_S + DEADLINE_PER_S * args.seconds

    loop_before = hostspeed.loop(HOST_LOOP_N)
    setups = [spawn(args, True, deadline) for _ in range(SETUP_PROBES)]
    report = spawn(args, False, deadline)
    setups.append(report)
    loop_after = hostspeed.loop(HOST_LOOP_N)

    failures = report["failures"] + report["errors"]
    if args.trace:
        metrics = report["per_layer"]
    else:
        metrics = {"setup_s": {"value": statistics.median(s["setup_s"] for s in setups),
                               "unit": "s"},
                   **report["end_to_end"]}
    result = {"correct": not failures, "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}

    diagnostic = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "round_seeds": report["seeds"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_running": [s["setup_running"] for s in setups],
        "rounds": report["rounds"], "host_probes_s": report["host_probes_s"],
        "untraced_rounds": report.get("untraced_rounds"),
        "host_loop_s": {"before": loop_before, "after": loop_after},
        "environment": report["environment"], "failures": failures,
        "notes": report["notes"], "end_to_end": report["end_to_end"],
        "end_to_end_wall_clock": {
            "setup_s": statistics.median(s["setup_wall_s"] for s in setups),
            **{k: v["value"] for k, v in report["end_to_end_wall_clock"].items()}},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**diagnostic, "result": result}, indent=1) + "\n")
    print(json.dumps(diagnostic))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
