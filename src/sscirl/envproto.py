"""Line-oriented environment protocol.

Exposes the plant boundary over a stream socket so an external simulator
can stand in for the built-in surrogate. One JSON object per line; every
request carries a monotonically increasing integer `id` echoed in the
response. An "f64le" trace reply is the one exception: its line is a
header, and the trace follows it as raw bytes. Grammar:

    request  := {"id": N, "kind": KIND, ...}
    KIND     := "reset" {scenario?: {field: value}, seed?: N}
              | "step" {n_steps: N}          1 <= N <= horizon / sim_dt
              | "set_gain" {kp: X}
              | "measure" {}
              | "run_episode" {kp: X, seed?: N, until?: X, encoding?: ENC}
    ENC      := "json" (default) | "f64le"
    response := {"id": N, "kind": "ok", "payload": {...}}
              | {"id": N, "kind": "trace", SAMPLES, "rate": X,
                 "t0": X, "diverged": B}
              | {"id": N, "kind": "error", "code": S, "message": S}
    SAMPLES  := "samples": [X, ...]       encoding "json", and "measure"
              | "nbytes": N               encoding "f64le": the line's newline
                                          is followed by exactly N raw bytes,
                                          the trace's little-endian float64s

A client may send further requests before the earlier replies arrive;
the server answers one request at a time, so replies come in request
order. `RemoteEnv` keeps at most two `run_episode` requests in flight,
and after an `error` reply reads and drops the reply still in flight, so
the connection stays in step.

A reset's scenario values are typed by `config.coerce`, as in a config
file (so "48" is 48.0); an unknown field or a value its field does not
take gets code "args" naming the field. A `kp` must be a JSON number and
an `n_steps` an integral one (7 or 7.0); a bool, a string or 5.9 gets
"args" naming the field. A `seed` (reset, run_episode) is absent, for
fresh entropy, or a non-negative JSON integer; anything else, null
included, gets "args" naming it. The episode a reset asks for may hold
at most as many samples, round(horizon / sim_dt), as the served
scenario's; a longer one gets "args" and the session keeps its scenario.

A `run_episode` with `until` (seconds) ends the episode there: it runs the
session's scenario at horizon min(until, horizon). Episode noise is
prefix-stable, so the trace is the prefix of the full one. The plant
memoises one history per scenario, horizon included, and seed, so
episodes at one seed and one `until` but different gains share it: the
trainer sends every request of a run, its pre-activation trace's
included, with the end of its reward window. `until` must be a finite
JSON number greater than act_time; anything else gets "args" naming it.
A `run_episode` trace starts at t = 0: the trainer counts its reward
window in samples from there, and `RemoteEnv` refuses another t0.

Floats in JSON are serialized with full round-trip precision (Python repr),
and "f64le" carries the bits themselves, so a remote episode is
bit-identical to a local one at the same seed either way. A request line
may hold at most MAX_REQUEST_BYTES (64 KiB) including its newline; a
longer one gets code "parse" and the connection is closed. A shorter line
that does not parse (bad JSON, an integer past Python's digit limit, or
nesting past its recursion limit) gets "parse" with id -1, and the session
reads on. A server holds at most MAX_SESSIONS connections at once; one
more gets a single error line with code "busy" and is closed.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
from dataclasses import asdict, replace

import numpy as np

from . import plant
from .config import coerce
from .sigproc import SignalTrace


class ProtocolError(RuntimeError):
    pass


class ServerError(ProtocolError):
    """The server answered with an `error` reply; `code` names the cause."""

    def __init__(self, code, message):
        super().__init__(f"server error [{code}]: {message}")
        self.code = code


DEFAULT_KP_BOUNDS = (0.5, 4.0)
MAX_REQUEST_BYTES = 64 * 1024
MAX_SESSIONS = 32
TRACE_ENCODINGS = ("json", "f64le")


class _Session:
    """Per-connection plant instance: scenario, integrator state, noise rng."""

    def __init__(self, scenario: plant.PlantScenario, kp_bounds=DEFAULT_KP_BOUNDS):
        self.base_scenario = scenario
        self.kp_bounds = kp_bounds
        self.last_id = None
        self._reset(scenario, seed=None)

    def _reset(self, scenario, seed):
        self.scenario = scenario
        self.state = plant.initial_state(scenario)
        self.rng = np.random.default_rng(seed)

    def _in_bounds(self, kp: float) -> bool:
        lo, hi = self.kp_bounds
        return lo <= kp <= hi  # false for NaN

    def _bounds_error(self, rid, kp):
        lo, hi = self.kp_bounds
        return _error(rid, "bounds", f"kp {kp} outside [{lo}, {hi}]")

    def handle(self, msg: dict) -> tuple[dict, bytes]:
        """The reply line to one request, and the raw bytes that follow it
        (empty but for an "f64le" trace)."""
        reply = self._answer(msg)
        return reply if isinstance(reply, tuple) else (reply, b"")

    def _answer(self, msg: dict) -> dict | tuple[dict, bytes]:
        if not isinstance(msg, dict) or "kind" not in msg or "id" not in msg:
            return _error(msg.get("id", -1) if isinstance(msg, dict) else -1,
                          "parse", "message must carry id and kind")
        rid = msg["id"]
        if isinstance(rid, bool) or not isinstance(rid, int):
            return _error(-1, "parse", "id must be an integer")
        if self.last_id is not None and rid <= self.last_id:
            return _error(rid, "sequence",
                          f"id {rid} not greater than previous {self.last_id}")
        self.last_id = rid
        kind = msg["kind"]
        try:
            if kind == "reset":
                seed = _seed(msg)
                overrides = msg.get("scenario") or {}
                if not isinstance(overrides, dict):
                    raise TypeError("scenario must be an object of field: value")
                scenario = replace(self.base_scenario,
                                   **coerce(plant.PlantScenario, overrides))
                cap = self.base_scenario.n_samples
                if scenario.n_samples > cap:
                    return _error(rid, "args", f"episode of {scenario.n_samples} "
                                               f"samples exceeds the served {cap}")
                self._reset(scenario, seed)
                return _ok(rid, {"t": self.state.t})
            if kind == "set_gain":
                kp = _number(msg, "kp")
                if not self._in_bounds(kp):
                    return self._bounds_error(rid, kp)
                self.state = plant.apply_gain(self.state, plant.GainAction(kp))
                return _ok(rid, {"active_kp": kp})
            if kind == "step":
                n = _integer(msg, "n_steps")
                cap = self.scenario.n_samples
                if not 1 <= n <= cap:
                    return _error(rid, "args",
                                  f"n_steps must be in [1, {cap}] (one horizon)")
                try:
                    self.state = plant.step(self.state, self.scenario, self.rng, n)
                except plant.DivergedError as exc:
                    # keep the last finite state, at the time the error names
                    self.state = exc.state
                    raise
                return _ok(rid, {"t": self.state.t,
                                 "mode_state": list(self.state.mode_state)})
            if kind == "measure":
                value = plant.measure(self.state, self.scenario, self.rng)
                return {"id": rid, "kind": "trace", "samples": [value],
                        "rate": self.scenario.sample_rate, "t0": self.state.t,
                        "diverged": False}
            if kind == "run_episode":
                seed = _seed(msg)
                kp = _number(msg, "kp")
                encoding = msg.get("encoding", "json")
                if encoding not in TRACE_ENCODINGS:
                    return _error(rid, "args", f"encoding must be one of "
                                               f"{TRACE_ENCODINGS}, got {encoding!r}")
                # the trainer asks for its pre-activation trace at kp_unstable
                if not (self._in_bounds(kp) or kp == self.scenario.kp_unstable):
                    return self._bounds_error(rid, kp)
                scenario = self.scenario
                if "until" in msg:
                    until = _number(msg, "until")
                    if not scenario.act_time < until < math.inf:
                        return _error(rid, "args", f"until must be a finite time after "
                                                   f"act_time {scenario.act_time}, got {until}")
                    scenario = replace(scenario, horizon=min(until, scenario.horizon))
                result = plant.run_episode(scenario, plant.GainAction(kp), seed)
                trace = result.trace
                reply = {"id": rid, "kind": "trace", "rate": trace.sample_rate,
                         "t0": trace.t0, "diverged": result.diverged}
                if encoding == "json":
                    return {**reply, "samples": trace.samples.tolist()}
                payload = trace.samples.astype("<f8", copy=False).tobytes()
                return {**reply, "nbytes": len(payload)}, payload
            return _error(rid, "unknown_kind", f"unknown kind {kind!r}")
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            return _error(rid, "args", str(exc))
        except plant.DivergedError as exc:
            return _error(rid, "diverged", str(exc))


def _number(msg: dict, name: str) -> float:
    """A request's JSON-number field as a float; a bool is not a number."""
    value = msg[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(msg: dict, name: str) -> int:
    """A request's integral JSON-number field (7 or 7.0) as an int."""
    value = msg[name]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _seed(msg: dict) -> int | None:
    """A request's seed: None when absent, else a non-negative JSON integer
    (not a bool, not 7.0)."""
    if "seed" not in msg:
        return None
    value = msg["seed"]
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise TypeError(f"seed must be a non-negative integer, got {value!r}")
    return value


def _ok(rid, payload):
    return {"id": rid, "kind": "ok", "payload": payload}


def _error(rid, code, message):
    return {"id": rid, "kind": "error", "code": code, "message": message}


class _Handler(socketserver.StreamRequestHandler):
    # a trace reply is two writes, header then bytes; with Nagle's algorithm
    # the last segment of the bytes could wait for the client's delayed ACK
    disable_nagle_algorithm = True

    def handle(self):
        try:
            if not self.server.slots.acquire(blocking=False):
                self._reply(_error(-1, "busy", f"server already holds its "
                                               f"{MAX_SESSIONS} sessions"))
                return
            try:
                self._serve()
            finally:
                self.server.slots.release()
        except ConnectionError:
            pass  # the client has gone, maybe with a reply in flight: end quietly

    def _serve(self):
        session = _Session(self.server.scenario, self.server.kp_bounds)
        while raw := self.rfile.readline(MAX_REQUEST_BYTES + 1):
            if len(raw) > MAX_REQUEST_BYTES:
                self._reply(_error(-1, "parse", f"request line exceeds "
                                                f"{MAX_REQUEST_BYTES} bytes"))
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                msg = json.loads(line)
            except (ValueError, RecursionError) as exc:  # too long a number, too deep
                self._reply(_error(-1, "parse", f"bad JSON: {exc}"))
            else:
                self._reply(*session.handle(msg))

    def _reply(self, reply, payload=b""):
        self.wfile.write((json.dumps(reply) + "\n").encode())
        if payload:
            self.wfile.write(payload)
        self.wfile.flush()


class EnvServer(socketserver.ThreadingTCPServer):
    """Serves independent plant sessions, one per connection, at most
    MAX_SESSIONS at once."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, scenario: plant.PlantScenario, host: str = "127.0.0.1",
                 port: int = 0, kp_bounds=DEFAULT_KP_BOUNDS):
        super().__init__((host, port), _Handler)
        self.scenario = scenario
        self.kp_bounds = kp_bounds
        self.slots = threading.BoundedSemaphore(MAX_SESSIONS)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def serve_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class RemoteEnv:
    """Client adapter presenting the trainer's environment interface.

    Speaks the line protocol against a served plant (or any external
    simulator implementing it). `run_episodes` pipelines a batch of episode
    requests on one connection, keeping at most two in flight, and
    `run_episode` is a batch of one. An episode request that fails in
    transport (connection lost, malformed reply, bad trace payload) is
    retried once on a fresh connection, and a second failure raises. An
    `error` reply raises `ServerError` at once. With a scenario, a trace
    longer than one horizon is a bad payload; an "f64le" header announcing
    one is refused before its bytes are read.
    """

    def __init__(self, host: str, port: int,
                 scenario: plant.PlantScenario | None = None,
                 timeout: float = 30.0):
        self.host, self.port, self.timeout = host, port, timeout
        self.scenario = scenario
        self.episode_count = 0
        self._seq = 0
        self._sock = None
        self._fh = None
        self._connect()

    def _connect(self):
        try:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=self.timeout)
        except OSError as exc:
            raise ProtocolError(
                f"cannot connect to environment server at "
                f"{self.host}:{self.port}: {exc}") from exc
        # a pipelined request must not wait for the ACK of the one before it
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._fh = self._sock.makefile("rwb")
        self._seq = 0
        if self.scenario is not None:
            self.request("reset", scenario=asdict(self.scenario))

    def request(self, kind: str, **payload) -> dict:
        """Send one request and return its reply. A trace that arrives as
        raw bytes after its header is returned as a float64 array under
        `samples`, as a JSON trace's list is. Not to be called while a
        `run_episodes` batch is unfinished."""
        return self._receive(self._send(kind, **payload))

    def _send(self, kind: str, **payload) -> int:
        """Write one request line; return its id."""
        self._seq += 1
        msg = {"id": self._seq, "kind": kind, **payload}
        self._fh.write((json.dumps(msg) + "\n").encode())
        self._fh.flush()
        return self._seq

    def _receive(self, rid: int) -> dict:
        """Read the reply to request `rid`, the next one on the connection."""
        line = self._fh.readline()
        if not line:
            raise ProtocolError("connection closed by server")
        try:
            reply = json.loads(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
            raise ProtocolError(f"malformed reply line: {exc}") from exc
        if not isinstance(reply, dict):
            raise ProtocolError(f"reply is not a JSON object: {line[:40]!r}")
        if reply.get("kind") == "error":
            raise ServerError(reply.get("code"), reply.get("message"))
        if reply.get("id") != rid:
            raise ProtocolError(f"response id {reply.get('id')} != request {rid}")
        if "nbytes" in reply:
            reply["samples"] = self._read_samples(reply)
        return reply

    def _read_samples(self, reply: dict) -> np.ndarray:
        """The raw little-endian float64 trace that follows a header line,
        its announced size checked before anything is allocated."""
        nbytes = reply["nbytes"]
        if isinstance(nbytes, bool) or not isinstance(nbytes, int) \
                or nbytes < 0 or nbytes % 8:
            raise ProtocolError(f"bad trace payload: nbytes {nbytes!r} is not "
                                f"a whole number of float64 values")
        self._check_length(nbytes // 8, reply)
        buf = bytearray(nbytes)
        if self._fh.readinto(buf) != nbytes:
            raise ProtocolError("connection closed in the middle of a trace payload")
        return np.frombuffer(buf, dtype="<f8")

    def _check_length(self, n_samples: int, reply: dict):
        """With a scenario, a trace may hold at most one horizon of samples
        at the reply's rate."""
        if self.scenario is None:
            return
        rate = _rate(reply)
        cap = round(self.scenario.horizon * rate) + 1
        if n_samples > cap:
            raise ProtocolError(f"trace of {n_samples} samples exceeds "
                                f"{cap} (one horizon at {rate} Hz)")

    def run_episode(self, kp: float, seed: int | None) -> plant.EpisodeResult:
        [result] = self.run_episodes([(kp, seed)])
        return result

    def run_episodes(self, jobs, until: float | None = None):
        """Yield the episode of each (kp, seed) job, in job order, each
        asked to end at `until` seconds when given.

        The request for job j+1 is sent before the reply to job j is read,
        so the server simulates the next episode while the caller scores
        this one; at most two requests are in flight. A transport failure
        resumes the batch from the failed job on a fresh connection, once
        per job. After an `error` reply, and when the caller stops early,
        the reply still in flight is read and dropped, so the connection
        stays in step (or is closed, if that read fails)."""
        jobs = list(jobs)
        extra = {"until": float(until)} if until is not None else {}
        in_flight: list[int] = []  # request ids, oldest first
        try:
            for j in range(len(jobs)):
                yield self._deliver(jobs, j, in_flight, extra)
        finally:
            self._drain(in_flight)

    def _deliver(self, jobs, j, in_flight, extra) -> plant.EpisodeResult:
        """Job j's episode: its request and the next job's on the wire, each
        with the fields of extra, then its reply read and decoded, retried
        once on a fresh connection."""
        last_exc = None
        for _ in range(2):
            try:
                if self._fh is None:
                    self._connect()
                while len(in_flight) < 2 and j + len(in_flight) < len(jobs):
                    kp, seed = jobs[j + len(in_flight)]
                    in_flight.append(self._send(
                        "run_episode", kp=float(kp), encoding="f64le", **extra,
                        **({"seed": int(seed)} if seed is not None else {})))
                reply = self._receive(in_flight.pop(0))
                trace = self._decode_trace(reply)
                break
            except ServerError:
                raise  # a refusal is deterministic; asking again cannot help
            except (ProtocolError, OSError) as exc:
                last_exc = exc
                in_flight.clear()
                self.close()  # the framing is lost
        else:
            raise ProtocolError(f"episode failed after retry: {last_exc}")
        self.episode_count += 1
        diverged = bool(reply.get("diverged"))
        diverged_at = len(trace) * trace.dt if diverged else None
        return plant.EpisodeResult(trace=trace, diverged=diverged,
                                   diverged_at=diverged_at)

    def _drain(self, in_flight: list[int]):
        """Read and drop the replies still in flight; close the connection
        if one cannot be read. A closed connection has none left."""
        if self._fh is None:
            in_flight.clear()
        while in_flight:
            try:
                self._receive(in_flight.pop(0))
            except ServerError:
                pass
            except (ProtocolError, OSError):
                in_flight.clear()
                self.close()

    def _decode_trace(self, reply: dict) -> SignalTrace:
        """The reply's trace: the raw bytes after an "f64le" header, or a
        `samples` list (which external simulators that ignore `encoding`
        send)."""
        rate = _rate(reply)
        try:
            samples = np.asarray(reply["samples"], dtype=np.float64)
            if reply["t0"] != 0:
                raise ValueError(f"t0 {reply['t0']!r}, an episode starts at 0")
            self._check_length(samples.size, reply)
            return SignalTrace(samples, rate)  # 1-D and finite, or TraceError
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad trace payload: {exc}") from exc

    def close(self):
        for obj in (self._fh, self._sock):
            try:
                if obj is not None:
                    obj.close()
            except OSError:
                pass
        self._fh = self._sock = None


def _rate(reply: dict) -> float:
    """A trace reply's sample rate, a positive finite number."""
    rate = reply.get("rate")
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) \
            or not 0 < rate < math.inf:
        raise ProtocolError(f"bad trace payload: rate {rate!r}")
    return float(rate)
