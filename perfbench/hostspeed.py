"""Host-speed reference: how fast the host runs the benchmark's processes
while it runs them, and how much of the time it runs them at all.

The shared 2-vCPU host the benchmark was built on has slow phases of
seconds to minutes, of two kinds:

- The vCPUs run code more slowly, at up to 1.8x the time of the fast phase,
  and process CPU time grows with wall time. A fixed pure-Python loop, timed
  in the CPU time of its thread between rounds, measures this: a round's
  wall and CPU seconds are multiplied by ``NOMINAL_S / t``, where ``t`` is
  the loop's time just before and just after the round.
- The hypervisor withholds the vCPUs for a while (steal time). That time is
  in a round's wall time but in no CPU time, the loop's included. The wall
  seconds of a round are multiplied by the share of the vCPU time wanted
  during the round that was given (``running_share``), from the kernel's
  CPU accounting.

In plain wall-clock seconds, two sets of ten runs of identical work had
medians 22 % apart. The scaled figure is the round's time on a host that
withholds nothing and where the loop takes ``NOMINAL_S``, the fast phase of
the host the benchmark was built on.
"""

import time

# the loop's time in the fast phase of the host the benchmark was built on;
# fixed, so that figures stay comparable between commits
NOMINAL_S = 0.0085
ITERATIONS = 100_000
CHUNKS = 3
# OpenBLAS worker threads busy-wait for a while after each call; with the
# two pools numpy and scipy load, that leaves three runnable threads on two
# vCPUs and slows the loop by 40 %. Waiting first measures the host alone.
QUIET_S = 0.25


def loop(iterations: int = ITERATIONS, clock=time.perf_counter) -> float:
    """Seconds one pass of the fixed loop takes on ``clock``."""
    t0 = clock()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return clock() - t0


def probe() -> float:
    """The loop's CPU time at the host's current speed: the fastest of a few
    short passes, after the program's threads have gone idle."""
    time.sleep(QUIET_S)
    return min(loop(clock=time.thread_time) for _ in range(CHUNKS))


def scale(ref_s: float) -> float:
    """Factor taking seconds measured while the loop took ``ref_s`` to
    seconds at the reference speed."""
    return NOMINAL_S / ref_s


def cpu_jiffies() -> tuple[int, int]:
    """Busy and stolen time of all the VM's vCPUs since boot, in clock
    ticks, from the first line of /proc/stat; (0, 0) where it cannot be
    read."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
        user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


def running_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the vCPU time wanted between two ``cpu_jiffies`` readings
    that the hypervisor gave; 1.0 when none was withheld or none is known."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return busy / (busy + stolen) if busy > 0 and stolen > 0 else 1.0
