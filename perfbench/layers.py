"""Which program functions the traced run wraps, and the per-layer metrics
computed from the spans they record.

Layers are the program's modules: plant (with the episode kernel it
imports), sigproc, policy, trainer and envproto. Every public function of
a module is wrapped. Three layers call into a library module the benchmark
counts separately; for those the module is replaced by a proxy:
``plant.linalg`` (``expm``, one call per discretization-cache miss),
``sigproc.signal`` (``butter``, one call per filter design) and
``envproto.json`` (``dumps`` and ``loads``, the wire encoding).
"""

from __future__ import annotations

import weakref

import numpy as np

from sscirl import envproto, plant, policy, sigproc, trainer

from checkout import BENCHMARK
from tracer import Spans, Tracer


def _new_bucket_bytes():
    """Value of an ``EvalCache.store`` span: the bytes of trace the cache
    keeps, which is the stored trace when the bucket was still empty."""
    seen = weakref.WeakKeyDictionary()

    def value(args, kwargs, result):
        cache, kp = args[0], args[1]
        trace = args[3] if len(args) > 3 else kwargs.get("trace")
        buckets = seen.setdefault(cache, set())
        bucket = cache.bucket(kp)
        if bucket in buckets or trace is None:
            return 0.0
        buckets.add(bucket)
        return float(trace.samples.nbytes)

    return value


def _wire_bytes(args, kwargs, result):
    # one line on the wire: the JSON text plus its newline
    text = result if isinstance(result, str) else args[0]
    return float(len(text) + (not text.endswith("\n")))


def install(tracer: Tracer) -> None:
    """Wrap every layer of this process."""
    tracer.wrap_module(plant, "plant", values={
        "run_episode": lambda a, k, r: float(len(r.trace) - 1),
        "step": lambda a, k, r: 1.0})
    # the kernel module's one function, by the name plant imported it under
    tracer.wrap(plant, "simulate_segments", "kernel.simulate_segments")
    tracer.proxy(plant, "linalg", "plant", {"expm": None})

    tracer.wrap_module(sigproc, "sigproc")
    tracer.proxy(sigproc, "signal", "sigproc", {"butter": None})

    tracer.wrap_module(policy, "policy")

    tracer.wrap_module(trainer, "trainer")
    tracer.wrap(trainer.EvalCache, "lookup", "trainer.EvalCache.lookup",
                value=lambda a, k, r: float(r is not None))
    tracer.wrap(trainer.EvalCache, "store", "trainer.EvalCache.store",
                value=_new_bucket_bytes())
    tracer.wrap(trainer.LocalPlantEnv, "run_episode",
                "trainer.LocalPlantEnv.run_episode")

    tracer.wrap(envproto._Session, "handle", "envproto.handle")
    tracer.wrap(envproto.RemoteEnv, "request", "envproto.request",
                name_of=lambda a, k: f"envproto.request.{a[1]}")
    tracer.wrap(envproto.RemoteEnv, "run_episode", "envproto.RemoteEnv.run_episode")
    tracer.proxy(envproto, "json", "envproto", {"dumps": _wire_bytes,
                                                "loads": _wire_bytes})


REQUEST_KINDS = ("reset", "step", "measure", "set_gain", "run_episode")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(client: Spans, server: Spans | None,
                  overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of the traced rounds. Work done in either process
    is summed; the wire metrics are taken on the side the name says."""
    procs = [client] + ([server] if server is not None else [])
    srv = server if server is not None else Spans.empty()

    def total(fn):
        return sum(fn(p) for p in procs)

    rtt_ms = client.dur[client.prefixed("envproto.request.")] * 1e3
    trainings = total(lambda p: p.calls("trainer.train"))
    downsamples = total(lambda p: p.calls("sigproc.downsample"))
    lookups = total(lambda p: p.calls("trainer.EvalCache.lookup"))
    values = {
        "plant.episodes": total(lambda p: p.calls("plant.run_episode")),
        "plant.sim_steps": total(lambda p: p.total_value("plant.run_episode")
                                 + p.total_value("plant.step")),
        "plant.run_episode.self_s": total(
            lambda p: p.self_seconds("plant.run_episode")),
        "plant.kernel.s": total(lambda p: p.seconds("kernel.simulate_segments")),
        "plant.step.calls": total(lambda p: p.calls("plant.step")),
        "plant.step.s": total(lambda p: p.seconds("plant.step")),
        "plant.discretize.misses": total(lambda p: p.calls("plant.expm")),
        "sigproc.pipeline.calls": total(lambda p: p.calls("sigproc.pipeline")),
        "sigproc.bandpass.s": total(lambda p: p.seconds("sigproc.bandpass")),
        "sigproc.downsample.s": total(lambda p: p.seconds("sigproc.downsample")),
        "sigproc.filter_designs": total(lambda p: p.calls("sigproc.butter")),
        "sigproc.downsample.useful_ratio": _ratio(
            total(lambda p: p.under("sigproc.downsample", "trainer.observation_trace")),
            downsamples),
        "policy.forward.calls": total(lambda p: p.calls("policy.forward")),
        "policy.forward.s": total(lambda p: p.seconds("policy.forward")),
        "policy.grad.s": total(lambda p: p.seconds("policy.grad_weighted_logprob")),
        "policy.adam.s": total(lambda p: p.seconds("policy.adam_step")),
        "policy.checkpoint.calls": total(lambda p: p.calls("policy.save_checkpoint")),
        "policy.checkpoint.s": total(lambda p: p.seconds("policy.save_checkpoint")),
        "trainer.self_s": total(lambda p: p.self_seconds("trainer.")),
        "trainer.reward.calls": total(lambda p: p.calls("trainer.episode_reward")),
        "trainer.reward.s": total(lambda p: p.seconds("trainer.episode_reward")),
        "trainer.cache.lookups": lookups,
        "trainer.cache.hit_ratio": _ratio(
            total(lambda p: p.total_value("trainer.EvalCache.lookup")), lookups),
        "trainer.cache.retained_mb": _ratio(
            total(lambda p: p.total_value("trainer.EvalCache.store")) / 1e6,
            trainings),
        **{f"envproto.requests.{kind}": client.calls(f"envproto.request.{kind}")
           for kind in REQUEST_KINDS},
        "envproto.bytes_tx": client.total_value("envproto.dumps"),
        "envproto.bytes_rx": client.total_value("envproto.loads"),
        "envproto.encode.s": srv.seconds("envproto.dumps"),
        "envproto.decode.s": client.seconds("envproto.loads"),
        "envproto.rtt_ms.p50": float(np.percentile(rtt_ms, 50)) if rtt_ms.size else 0.0,
        "envproto.rtt_ms.p99": float(np.percentile(rtt_ms, 99)) if rtt_ms.size else 0.0,
        "envproto.handle.s": srv.seconds("envproto.handle"),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()}
