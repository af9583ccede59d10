import json
import socket
import socketserver
import struct
import sys
import threading
import time
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from sscirl import cli, config, envproto, plant, policy, sigproc, trainer
from sscirl.envproto import (MAX_REQUEST_BYTES, EnvServer, ProtocolError,
                             RemoteEnv, ServerError, _Session)

SCN = plant.PlantScenario()
N_TOTAL = round(SCN.horizon / SCN.sim_dt)
# reaches the divergence bound soon after the gain is mistuned
DIVERGING = {"zeta_stable": 0.05, "diverge_threshold": 20.0}
# mistuned late and unstable above kp 1.0: at kp 2 an episode diverges
# before its reward window ends, at kp 1.5 only after it
MIXED = replace(SCN, kp_stable=0.5, kp_crit=1.0, mistune_time=4.5,
                diverge_threshold=10.0)


# ---------------------------------------------------------------------------
# CLI

def run_cli(argv):
    return cli.main(argv)


def read_csv(path) -> sigproc.SignalTrace:
    """The trace write_trace_csv wrote to path, its rate from the first
    two times."""
    assert path.read_text().startswith(sigproc.CSV_HEADER + "\n")
    times, values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
    return sigproc.SignalTrace(values, 1.0 / (times[1] - times[0]), times[0])


class TestTrainCommand:
    def test_writes_log_and_overrides_snapshot(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(["train", "--out", str(out), "--n_epoch", "10",
                        "--n_iter", "2", "--kp_max", "3.5"])
        assert code == 0
        lines = (out / "training_log.csv").read_text().splitlines()
        assert lines[0] == trainer.LOG_HEADER
        assert len(lines) == 11
        scen, cfg = config.resolve(out / "config.cfg")
        assert cfg.kp_max == 3.5
        assert scen == SCN
        assert "trained 10 epochs" in capsys.readouterr().out
        assert (out / "best.ckpt").exists()
        assert (out / "last.ckpt").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--out", str(tmp_path / "r"),
                     "--config", str(tmp_path / "nope.cfg")])
        assert exc.value.code == cli.EXIT_BAD_CONFIG
        assert "config not found" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["not_utf8", "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"f_osc = 48\n# \xff\xfe\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--out", str(tmp_path / "r"), "--config", str(path)])
        assert exc.value.code == cli.EXIT_BAD_CONFIG
        assert f"bad config: cannot read config {path}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_bad_value_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--out", str(tmp_path / "r"),
                     "--kp_min", "5.0", "--kp_max", "4.0"])
        assert exc.value.code == cli.EXIT_BAD_CONFIG
        assert "bad config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--cache_enabled", "ture"), ("--n_epoch", "1e3"), ("--seed", "-1"),
        ("--hidden_size", "0"), ("--lr", "nan"), ("--d_obs", "50"),
        ("--target_rate", "300"), ("--bandpass_high", "3000"), ("--t_reward", "9")])
    def test_unusable_value_exits_2_naming_field(self, tmp_path, capsys, flag, value):
        out = tmp_path / "r"
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", "--out", str(out), "--n_epoch", "1", "--n_iter", "1",
                     flag, value])
        assert exc.value.code == cli.EXIT_BAD_CONFIG
        field = "obs_window" if flag == "--d_obs" else flag[2:]
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["remote:a:b:c", "remote:h:notaport", "remote:h:\u00b2"])
    def test_bad_env_names_the_flag(self, tmp_path, capsys, spec):
        out = tmp_path / "r"
        code = run_cli(["train", "--out", str(out), "--n_epoch", "1", "--env", spec])
        assert code == cli.EXIT_ERROR
        assert f"bad --env {spec!r}" in capsys.readouterr().err
        assert not (out / "training_log.csv").exists()

    def test_pretrace_diverged_before_act_time_exits_1_in_one_line(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = run_cli(["train", "--out", str(out), "--n_epoch", "1",
                        "--diverge_threshold", "0.05"])
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("train failed: pre-activation trace holds")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_server_refusal_exits_1_in_one_line(self, tmp_path, capsys):
        # the server admits the pre-trace at kp_unstable, then refuses the
        # first epoch's gains, all above its kp_max
        srv = EnvServer(SCN, port=0, kp_bounds=(0.5, 2.0))
        serve(srv)
        out = tmp_path / "r"
        try:
            host, port = srv.address
            code = run_cli(["train", "--out", str(out), "--n_epoch", "3",
                            "--kp_min", "2.5", "--env", f"remote:{host}:{port}"])
        finally:
            srv.shutdown()
            srv.server_close()
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("train failed: server error [bounds]: kp ")
        assert err.count("\n") == 1
        assert (out / "training_log.csv").read_text() == trainer.LOG_HEADER + "\n"
        assert not (out / "best.ckpt").exists()

    def test_unreachable_server_exits_1_in_one_line(self, tmp_path, capsys):
        with socket.socket() as unserved:  # bound, not listening: refused
            unserved.bind(("127.0.0.1", 0))
            port = unserved.getsockname()[1]
            code = run_cli(["train", "--out", str(tmp_path / "r"), "--n_epoch", "1",
                            "--env", f"remote:127.0.0.1:{port}"])
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("train failed: cannot connect to environment server at "
                              f"127.0.0.1:{port}")
        assert err.count("\n") == 1

    def test_config_file_reproduces_run(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(["train", "--out", str(first), "--seed", "7",
                        "--n_epoch", "5", "--n_iter", "4"]) == 0
        assert run_cli(["train", "--out", str(second),
                        "--config", str(first / "config.cfg")]) == 0
        for name in ("training_log.csv", "config.cfg"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_local_run_is_trainer_train(self, tmp_path, monkeypatch):
        # `--env local` leaves the env to trainer.train, whose own plant
        # ends every episode at the reward window
        lengths = []
        real = plant.run_episode

        def recording(scenario, action, seed=None):
            lengths.append(scenario.n_samples)
            return real(scenario, action, seed)

        monkeypatch.setattr(plant, "run_episode", recording)
        cfg = trainer.TrainConfig(n_epoch=3, n_iter=4, cache_enabled=False)
        assert run_cli(["train", "--out", str(tmp_path / "cli"), "--n_epoch", "3",
                        "--n_iter", "4", "--cache_enabled", "false"]) == 0
        trainer.train(SCN, cfg, run_dir=tmp_path / "api")
        log = "training_log.csv"
        assert (tmp_path / "cli" / log).read_bytes() == (tmp_path / "api" / log).read_bytes()
        assert set(lengths) == {trainer.reward_scenario(SCN, cfg).n_samples}


class TestSimulateCommand:
    def test_writes_three_csvs(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli(["simulate", "--kp", "4.0", "--out", str(out)]) == 0
        raw = read_csv(out / "raw.csv")
        filtered = read_csv(out / "filtered.csv")
        decimated = read_csv(out / "decimated.csv")
        assert len(raw) == round(SCN.horizon / SCN.sim_dt)
        assert len(raw) == len(filtered)
        assert decimated.sample_rate == pytest.approx(100.0)
        # band-pass strips the operating point; mean sits near zero
        assert abs(np.mean(filtered.samples)) < 0.01 * np.max(np.abs(filtered.samples))
        assert not (out / "diverged.txt").exists()

    def test_gain_ordering_visible_in_output(self, tmp_path):
        outs = {}
        for kp in (2.0, 4.0):
            out = tmp_path / f"kp{kp}"
            run_cli(["simulate", "--kp", str(kp), "--out", str(out)])
            trace = read_csv(out / "filtered.csv")
            # from act_time = 5.0 s, sample 25,000 at 5 kHz, to the end
            outs[kp] = sigproc.energy(trace.samples[25000:], trace.sample_rate)
        assert outs[2.0] < outs[4.0]

    @pytest.mark.parametrize("stage", sigproc.FILTER_STAGES)
    @pytest.mark.parametrize("overrides", [{}, {"zeta_stable": "50", "noise_std": "0"}],
                             ids=["stable", "explosive"])
    def test_csvs_are_the_stage_traces(self, tmp_path, stage, overrides):
        # filtered.csv is the stage's filtered trace and decimated.csv what
        # it observes, bit for bit; the explosive mode diverges just after
        # mistune_time, past which its kernel runs to inf, and warns of none
        out = tmp_path / "sim"
        overrides = {**overrides, "filter_stage": stage}
        flags = [arg for key, value in overrides.items() for arg in (f"--{key}", value)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)  # post_decimation clamps f_max
            assert run_cli(["simulate", "--kp", "2.0", "--out", str(out)] + flags) == 0
            scn, cfg = config.resolve(None, overrides)
            result = plant.run_episode(scn, plant.GainAction(2.0), seed=0)
            filtered = sigproc.filter_head(result.trace, cfg.bandpass_spec,
                                           cfg.target_rate, stage)[1]
        observed = sigproc.observed(filtered, cfg.target_rate, stage)
        assert (out / "diverged.txt").exists() == result.diverged == (len(overrides) > 1)
        assert read_csv(out / "raw.csv").samples.tobytes() == result.trace.samples.tobytes()
        for name, trace in (("filtered.csv", filtered), ("decimated.csv", observed)):
            assert read_csv(out / name).samples.tobytes() == trace.samples.tobytes()

    @pytest.mark.parametrize("command", [["simulate", "--kp", "2.0"],
                                         ["evaluate", "--checkpoint", "none.ckpt"]])
    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(command + ["--seed", "-1", "--out", str(out)])
        assert exc.value.code == cli.EXIT_BAD_CONFIG
        assert "bad config: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kp", ["nan", "1e300", "inf"])
    def test_gain_with_no_finite_transition_exits_2_naming_the_flag(self, tmp_path,
                                                                    capsys, kp):
        # validate's rule for the configured gains
        out = tmp_path / "sim"
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--kp", kp, "--out", str(out)])
        assert exc.value.code == cli.EXIT_BAD_CONFIG
        assert f"bad config: --kp: the plant's one-step transition at gain {float(kp)} " \
            "is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_sidecar(self, tmp_path, capsys):
        out = tmp_path / "boom"
        code = run_cli(["simulate", "--kp", "4.0", "--out", str(out),
                        "--zeta_stable", "0.05", "--diverge_threshold", "1000.0"])
        assert code == 0
        assert (out / "diverged.txt").exists()
        assert "diverged" in capsys.readouterr().out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    run_cli(["train", "--out", str(out), "--n_epoch", "5", "--n_iter", "2"])
    return out


class TestEvaluateAndOracle:
    def test_evaluate_report(self, run_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli(["evaluate", "--checkpoint", str(run_dir / "best.ckpt"),
                        "--out", str(out)])
        assert code == 0
        text = (out / "report.txt").read_text()
        assert "applied_gain" in text and "energy_ratio" in text
        assert (out / "episode.csv").exists()
        assert "energy_ratio" in capsys.readouterr().out

    def test_evaluate_no_mitigation(self, run_dir, tmp_path):
        out = tmp_path / "eval"
        run_cli(["evaluate", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--out", str(out), "--no-mitigation"])
        report = dict(line.split(" = ") for line in
                      (out / "report.txt").read_text().splitlines())
        assert float(report["applied_gain"]) == SCN.kp_unstable
        assert float(report["energy_ratio"]) == pytest.approx(1.0)

    def test_evaluate_history_diverged_before_act_time_exits_1_in_one_line(
            self, run_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli(["evaluate", "--checkpoint", str(run_dir / "best.ckpt"),
                        "--out", str(out), "--diverge_threshold", "0.05"])
        assert code == cli.EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("evaluate failed: pre-activation trace holds")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_evaluate_checkpoint_with_nan_step_count(self, run_dir, tmp_path, capsys,
                                                     monkeypatch):
        # a file with a valid checksum is still refused, in one line
        real = policy._checkpoint_tensors
        monkeypatch.setattr(policy, "_checkpoint_tensors", lambda params: [
            (name, np.array(np.nan) if name == "step_count" else arr)
            for name, arr in real(params)])
        path = tmp_path / "nan.ckpt"
        policy.save_checkpoint(policy.load_checkpoint(run_dir / "best.ckpt"), path)
        code = run_cli(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "e")])
        assert code == cli.EXIT_ERROR
        assert capsys.readouterr().err == (f"cannot load checkpoint: corrupt checkpoint "
                                           f"{path}: step_count nan is not a non-negative "
                                           f"integer\n")

    def test_evaluate_missing_checkpoint(self, tmp_path, capsys):
        code = run_cli(["evaluate", "--checkpoint", str(tmp_path / "no.ckpt"),
                        "--out", str(tmp_path / "e")])
        assert code == cli.EXIT_ERROR
        assert "cannot load checkpoint" in capsys.readouterr().err

    def test_evaluate_checkpoint_name_not_utf8(self, run_dir, tmp_path, capsys):
        blob = bytearray((run_dir / "best.ckpt").read_bytes())
        blob[12] = 0xFF  # the first byte of the first tensor's name
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bytes(blob))
        code = run_cli(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "e")])
        assert code == cli.EXIT_ERROR
        assert "not UTF-8" in capsys.readouterr().err

    def test_evaluate_checkpoint_dims_overflowing_int64(self, tmp_path, capsys):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(b"SSCIPG01" + struct.pack("<I", 2) + b"w1"
                         + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1) + b"\0" * 64)
        code = run_cli(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "e")])
        assert code == cli.EXIT_ERROR
        assert "cannot load checkpoint" in capsys.readouterr().err

    def test_oracle_csv(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        code = run_cli(["oracle", "--out", str(out), "--kp_max", "1.0"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "gain,reward"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 11  # 0.5 .. 1.0 at 0.05
        assert float(rows[0][0]) == 0.5
        assert "oracle optimum gain: 0.5" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# line protocol

def serve(srv):
    """Serve srv from a daemon thread that checks for shutdown every 50 ms,
    so a teardown does not wait out serve_forever's default half second."""
    threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05},
                     daemon=True).start()


@pytest.fixture(scope="module")
def server():
    srv = EnvServer(SCN, port=0)
    serve(srv)
    yield srv
    srv.shutdown()
    srv.server_close()


class Conn:
    """Raw line-protocol client for exercising the wire format directly.
    A reply whose header announces `nbytes` gets the raw bytes that follow
    it under "bytes"."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.fh = self.sock.makefile("rwb")

    def send_raw(self, text):
        self.fh.write(text.encode() + b"\n")
        self.fh.flush()
        return self.read_reply()

    def read_reply(self):
        reply = json.loads(self.fh.readline())
        if "nbytes" in reply:
            reply["bytes"] = self.fh.read(reply["nbytes"])
        return reply

    def send(self, **msg):
        return self.send_raw(json.dumps(msg))

    def close(self):
        self.fh.close()
        self.sock.close()


def watched_server(monkeypatch):
    """A served EnvServer, the exceptions its handle_error is given, and an
    event set when it has closed a connection."""
    srv = EnvServer(SCN, port=0)
    errors, ended = [], threading.Event()
    monkeypatch.setattr(srv, "handle_error",
                        lambda request, address: errors.append(sys.exc_info()))
    shutdown_request = srv.shutdown_request
    monkeypatch.setattr(srv, "shutdown_request",
                        lambda request: (shutdown_request(request), ended.set()))
    serve(srv)
    return srv, errors, ended


@pytest.fixture
def conn(server):
    c = Conn(server.address)
    yield c
    c.close()


class TestProtocol:
    def test_session_walk(self, conn):
        reply = conn.send(id=1, kind="reset", seed=0)
        assert reply["kind"] == "ok" and reply["payload"]["t"] == 0.0
        reply = conn.send(id=2, kind="set_gain", kp=2.0)
        assert reply["payload"]["active_kp"] == 2.0
        reply = conn.send(id=3, kind="step", n_steps=5000)
        assert reply["payload"]["t"] == pytest.approx(5000 * SCN.sim_dt)
        reply = conn.send(id=4, kind="measure")
        assert reply["kind"] == "trace"
        assert len(reply["samples"]) == 1
        assert reply["rate"] == SCN.sample_rate

    def test_set_gain_out_of_bounds(self, conn):
        reply = conn.send(id=1, kind="set_gain", kp=10.0)
        assert reply["kind"] == "error" and reply["code"] == "bounds"

    @pytest.mark.parametrize("kind", ["reset", "run_episode"])
    @pytest.mark.parametrize("seed", [-1, 7.0, True, None, "7", [1, 2], {"a": 1}])
    def test_seed_must_be_a_non_negative_integer(self, conn, kind, seed):
        reply = conn.send(id=1, kind=kind, kp=2.0, seed=seed)
        assert reply["kind"] == "error" and reply["code"] == "args"
        assert "seed" in reply["message"]
        # absent, or any non-negative integer, is served
        assert conn.send(id=2, kind=kind, kp=2.0, until=5.001)["kind"] != "error"
        assert conn.send(id=3, kind=kind, kp=2.0, until=5.001, seed=2**70)["kind"] != "error"

    def test_client_gone_with_a_reply_in_flight_ends_quietly(self, monkeypatch):
        # the client asks for four full episodes and resets the connection:
        # writing the replies (or reading the rest) fails, and the session
        # ends without reaching the server's handle_error
        srv, errors, ended = watched_server(monkeypatch)
        try:
            sock = socket.create_connection(srv.address, timeout=10)
            sock.sendall(b"".join(json.dumps({"id": i, "kind": "run_episode", "kp": 2.0,
                                              "seed": i}).encode() + b"\n"
                                  for i in range(1, 5)))
            sock.recv(1)  # the first reply is on its way
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
            assert ended.wait(timeout=30)
            assert errors == []
        finally:
            srv.shutdown()
            srv.server_close()

    @pytest.mark.parametrize("line", ["1" * 5000, "[" * 30000],
                             ids=["long_integer", "deep_nesting"])
    def test_unparsable_line_keeps_connection(self, monkeypatch, line):
        # json.loads raises ValueError past Python's 4,300-digit limit and
        # RecursionError on deep nesting, neither a JSONDecodeError
        assert len(line) < MAX_REQUEST_BYTES
        srv, errors, ended = watched_server(monkeypatch)
        c = Conn(srv.address)
        try:
            reply = c.send_raw(line)
            assert reply["id"] == -1 and reply["code"] == "parse"
            assert c.send(id=1, kind="reset")["kind"] == "ok"
            c.close()
            assert ended.wait(timeout=30)
            assert errors == []
        finally:
            c.close()
            srv.shutdown()
            srv.server_close()

    def test_run_episode_out_of_bounds(self, conn):
        reply = conn.send(id=1, kind="run_episode", kp=-50.0, seed=0)
        assert reply["kind"] == "error" and reply["code"] == "bounds"

    def test_run_episode_nan_gain(self, conn):
        reply = conn.send_raw('{"id": 1, "kind": "run_episode", "kp": NaN}')
        assert reply["kind"] == "error" and reply["code"] == "bounds"
        reply = conn.send(id=2, kind="set_gain", kp=float("nan"))
        assert reply["kind"] == "error" and reply["code"] == "bounds"

    def test_run_episode_admits_kp_unstable(self):
        # the trainer's pre-activation trace runs at kp_unstable, which may
        # lie outside the server's bounds
        srv = EnvServer(SCN, port=0, kp_bounds=(0.5, 3.5))
        serve(srv)
        c = Conn(srv.address)
        try:
            reply = c.send(id=1, kind="run_episode", kp=SCN.kp_unstable, seed=0)
            assert reply["kind"] == "trace" and SCN.kp_unstable > 3.5
            reply = c.send(id=2, kind="run_episode", kp=3.9, seed=0)
            assert reply["kind"] == "error" and reply["code"] == "bounds"
            reply = c.send(id=3, kind="set_gain", kp=SCN.kp_unstable)
            assert reply["kind"] == "error" and reply["code"] == "bounds"
        finally:
            c.close()
            srv.shutdown()
            srv.server_close()

    def test_run_episode_matches_local(self, conn):
        reply = conn.send(id=1, kind="run_episode", kp=2.0, seed=5)
        local = plant.run_episode(SCN, plant.GainAction(2.0), seed=5)
        assert reply["kind"] == "trace"
        assert np.array_equal(np.array(reply["samples"]), local.trace.samples)
        assert reply["diverged"] == local.diverged

    @pytest.mark.parametrize("kp, overrides", [
        (2.0, {}), (SCN.kp_unstable, {}), (SCN.kp_unstable, DIVERGING)],
        ids=["normal", "kp_unstable", "diverged"])
    def test_run_episode_f64le_matches_local(self, conn, kp, overrides):
        scn = replace(SCN, **overrides)
        local = plant.run_episode(scn, plant.GainAction(kp), seed=5)
        assert conn.send(id=1, kind="reset", scenario=overrides)["kind"] == "ok"
        reply = conn.send(id=2, kind="run_episode", kp=kp, seed=5, encoding="f64le")
        assert reply["kind"] == "trace" and "samples" not in reply
        assert reply["nbytes"] == len(reply["bytes"])
        remote = np.frombuffer(reply["bytes"], dtype="<f8")
        assert remote.tobytes() == local.trace.samples.astype("<f8").tobytes()
        assert reply["diverged"] == local.diverged == (overrides == DIVERGING)
        # a diverged trace is truncated, the others span the horizon
        assert (len(remote) < round(scn.horizon / scn.sim_dt)) == local.diverged

    @pytest.mark.parametrize("until, n", [
        (7.0002, 35001), (SCN.act_time + SCN.sim_dt, 25001), (SCN.horizon, N_TOTAL),
        (20.0, N_TOTAL), (1e308, N_TOTAL)],
        ids=["reward_window", "one_past_act", "horizon", "past_horizon", "huge"])
    def test_run_episode_until_cuts_the_episode(self, conn, until, n):
        reply = conn.send(id=1, kind="run_episode", kp=2.0, seed=5, until=until,
                          encoding="f64le")
        assert reply["kind"] == "trace" and reply["nbytes"] == 8 * n
        local = plant.run_episode(SCN, plant.GainAction(2.0), seed=5).trace.samples
        assert reply["bytes"] == local[:n].astype("<f8").tobytes()

    def test_run_episode_until_capped_at_the_reset_horizon(self, conn):
        assert conn.send(id=1, kind="reset", scenario={"horizon": 6.0})["kind"] == "ok"
        reply = conn.send(id=2, kind="run_episode", kp=2.0, seed=5, until=8.0)
        assert len(reply["samples"]) == 30000
        reply = conn.send(id=3, kind="run_episode", kp=2.0, seed=5, until=5.5)
        assert len(reply["samples"]) == 27500

    @pytest.mark.parametrize("raw", ["true", '"7"', "null", "[7.0]", "NaN", "Infinity",
                                     "-Infinity", "5.0", "4.9", "-1"])
    def test_run_episode_bad_until_names_it(self, conn, raw):
        reply = conn.send_raw('{"id": 1, "kind": "run_episode", "kp": 2.0, '
                              f'"until": {raw}}}')
        assert reply["kind"] == "error" and reply["code"] == "args"
        assert "until" in reply["message"]

    def test_run_episode_unknown_encoding(self, conn):
        reply = conn.send(id=1, kind="run_episode", kp=2.0, seed=0, encoding="bogus")
        assert reply["kind"] == "error" and reply["code"] == "args"
        assert "bogus" in reply["message"]

    def test_request_line_at_cap_is_served(self, conn):
        line = json.dumps({"id": 1, "kind": "reset"})
        reply = conn.send_raw(line + " " * (MAX_REQUEST_BYTES - 1 - len(line)))
        assert reply["kind"] == "ok"

    def test_request_line_over_cap_closes_connection(self, conn):
        # one byte over the cap, and no newline: the server stops reading
        conn.sock.sendall(b"x" * (MAX_REQUEST_BYTES + 1))
        reply = conn.read_reply()
        assert reply["kind"] == "error" and reply["code"] == "parse"
        assert f"exceeds {MAX_REQUEST_BYTES} bytes" in reply["message"]
        assert conn.fh.readline() == b""

    def test_unknown_kind_keeps_connection(self, conn):
        reply = conn.send(id=1, kind="bogus")
        assert reply["kind"] == "error" and reply["code"] == "unknown_kind"
        reply = conn.send(id=2, kind="reset")
        assert reply["kind"] == "ok"

    def test_malformed_json_keeps_connection(self, conn):
        reply = conn.send_raw("{not json")
        assert reply["kind"] == "error" and reply["code"] == "parse"
        reply = conn.send(id=1, kind="reset")
        assert reply["kind"] == "ok"

    @pytest.mark.parametrize("rid", [True, False, 1.0, "1", None])
    def test_non_integer_id_answered_with_parse(self, conn, rid):
        # JSON true and false are not integer ids, though Python's bool is an int
        reply = conn.send(id=rid, kind="measure")
        assert reply == {"id": -1, "kind": "error", "code": "parse",
                         "message": "id must be an integer"}
        assert conn.send(id=1, kind="reset")["kind"] == "ok"

    def test_sequence_ids_enforced(self, conn):
        assert conn.send(id=5, kind="reset")["kind"] == "ok"
        reply = conn.send(id=5, kind="measure")
        assert reply["kind"] == "error" and reply["code"] == "sequence"
        assert conn.send(id=6, kind="measure")["kind"] == "trace"

    def test_sessions_are_isolated(self, server):
        c1, c2 = Conn(server.address), Conn(server.address)
        try:
            c1.send(id=1, kind="reset", seed=0)
            c1.send(id=2, kind="set_gain", kp=3.0)
            c1.send(id=3, kind="step", n_steps=100)
            # fresh connection: own id sequence, pristine state at t = 0
            reply = c2.send(id=1, kind="reset")
            assert reply["kind"] == "ok" and reply["payload"]["t"] == 0.0
        finally:
            c1.close()
            c2.close()

    def test_step_capped_at_one_horizon(self, conn):
        cap = round(SCN.horizon / SCN.sim_dt)
        assert conn.send(id=1, kind="reset", seed=0)["kind"] == "ok"
        for rid, n in enumerate((0, cap + 1, 10**9), start=2):
            reply = conn.send(id=rid, kind="step", n_steps=n)
            assert reply["kind"] == "error" and reply["code"] == "args"
        reply = conn.send_raw('{"id": 5, "kind": "step", "n_steps": Infinity}')
        assert reply["kind"] == "error" and reply["code"] == "args"
        # the rejected requests left the session where it was
        reply = conn.send(id=6, kind="step", n_steps=cap)
        assert reply["kind"] == "ok"
        assert reply["payload"]["t"] == pytest.approx(SCN.horizon)

    @pytest.mark.parametrize("n_steps", [True, "7", 5.9],
                             ids=["bool", "string", "non_integral"])
    def test_step_rejects_non_integer_n_steps(self, conn, n_steps):
        assert conn.send(id=1, kind="reset", seed=0)["kind"] == "ok"
        reply = conn.send(id=2, kind="step", n_steps=n_steps)
        assert reply["kind"] == "error" and reply["code"] == "args"
        assert "n_steps" in reply["message"]
        assert conn.send(id=3, kind="measure")["t0"] == 0.0  # nothing stepped

    @pytest.mark.parametrize("kind", ["set_gain", "run_episode"])
    @pytest.mark.parametrize("kp", ["2.5", True], ids=["string", "bool"])
    def test_kp_must_be_a_number(self, conn, kind, kp):
        reply = conn.send(id=1, kind=kind, kp=kp, seed=0)
        assert reply["kind"] == "error" and reply["code"] == "args"
        assert "kp" in reply["message"]

    def test_integral_numbers_are_served(self, conn):
        assert conn.send(id=1, kind="reset", seed=0)["kind"] == "ok"
        assert conn.send(id=2, kind="set_gain", kp=2)["payload"]["active_kp"] == 2.0
        reply = conn.send(id=3, kind="step", n_steps=50.0)
        assert reply["kind"] == "ok"
        assert reply["payload"]["t"] == pytest.approx(50 * SCN.sim_dt)
        reply = conn.send(id=4, kind="run_episode", kp=2, seed=5, encoding="f64le")
        local = plant.run_episode(SCN, plant.GainAction(2.0), seed=5)
        assert reply["bytes"] == local.trace.samples.tobytes()

    def test_benchmark_cosimulation_requests_are_served(self, conn):
        # the request sequence of the benchmark's remote_stepping workload
        cfg = trainer.TrainConfig()
        steps = round(1.0 / (cfg.target_rate * SCN.sim_dt))
        replies = [conn.send(id=1, kind="reset", scenario={"noise_std": 0.0}, seed=7),
                   conn.send(id=2, kind="step", n_steps=steps),
                   conn.send(id=3, kind="measure"),
                   conn.send(id=4, kind="set_gain", kp=SCN.kp_unstable),
                   conn.send(id=5, kind="step", n_steps=steps),
                   conn.send(id=6, kind="measure"),
                   conn.send(id=7, kind="set_gain", kp=2.375)]
        assert [r["kind"] for r in replies] == ["ok", "ok", "trace", "ok", "ok", "trace", "ok"]
        assert replies[5]["t0"] == pytest.approx(2 * steps * SCN.sim_dt)

    def test_state_after_divergence_is_last_finite(self, conn):
        overrides = {"zeta_stable": 0.05, "diverge_threshold": 20.0, "noise_std": 0.0}
        scn = replace(SCN, **overrides)
        start = plant.apply_gain(plant.initial_state(scn),
                                 plant.GainAction(scn.kp_unstable))
        with pytest.raises(plant.DivergedError) as err:
            plant.step(start, scn, n_steps=5000)
        last = err.value.state
        conn.send(id=1, kind="reset", scenario=overrides, seed=0)
        conn.send(id=2, kind="set_gain", kp=scn.kp_unstable)
        reply = conn.send(id=3, kind="step", n_steps=5000)
        assert reply["kind"] == "error" and reply["code"] == "diverged"
        assert f"t = {last.t:.6f} s" in reply["message"]
        reply = conn.send(id=4, kind="measure")
        assert reply["t0"] == last.t
        assert reply["samples"] == [scn.p_nom + last.mode_state[0]]

    def test_reset_scenario_overrides(self, conn):
        reply = conn.send(id=1, kind="reset", scenario={"f_osc": 30.0}, seed=0)
        assert reply["kind"] == "ok"
        # bad field name surfaces as an args error
        reply = conn.send(id=2, kind="reset", scenario={"nope": 1.0})
        assert reply["kind"] == "error" and reply["code"] == "args"

    def test_reset_coerces_overrides(self, conn):
        reply = conn.send(id=1, kind="reset", scenario={"f_osc": "47.5"}, seed=0)
        assert reply["kind"] == "ok"
        reply = conn.send(id=2, kind="run_episode", kp=2.0, seed=5)
        local = plant.run_episode(replace(SCN, f_osc=47.5), plant.GainAction(2.0), seed=5)
        assert reply["samples"] == local.trace.samples.tolist()

    @pytest.mark.parametrize("overrides, field", [
        ({"f_osc": "fast"}, "f_osc"), ({"noise_std": True}, "noise_std"),
        ({"horizon": [10.0]}, "horizon"), ({"p_nom": float("nan")}, "p_nom"),
        ({"nope": 1.0}, "nope"), ({"cache_enabled": "1"}, "cache_enabled")])
    def test_reset_bad_override_names_field(self, conn, overrides, field):
        reply = conn.send(id=1, kind="reset", scenario=overrides)
        assert reply["kind"] == "error" and reply["code"] == "args"
        assert field in reply["message"]

    @pytest.mark.parametrize("overrides", [
        {"horizon": 20.0}, {"sim_dt": 1e-5}, {"horizon": 1e300},
        {"act_time": 5.0, "horizon": 10.0 + 2 * SCN.sim_dt}])
    def test_reset_refuses_longer_episode(self, conn, overrides):
        reply = conn.send(id=1, kind="reset", scenario=overrides)
        assert reply["kind"] == "error" and reply["code"] == "args"
        # the session kept its scenario: one served horizon still steps
        cap = SCN.n_samples
        assert conn.send(id=2, kind="step", n_steps=cap + 1)["code"] == "args"
        assert conn.send(id=3, kind="step", n_steps=cap)["kind"] == "ok"

    def test_reset_admits_shorter_episode(self, conn):
        reply = conn.send(id=1, kind="reset", scenario={"horizon": 8.0, "sim_dt": 4e-4})
        assert reply["kind"] == "ok"
        reply = conn.send(id=2, kind="run_episode", kp=2.0, seed=5, encoding="f64le")
        assert reply["nbytes"] == len(reply["bytes"]) == 8 * 20000

    def test_sessions_capped(self, monkeypatch):
        # at the cap every session is served; one more gets `busy` and is
        # closed, and the sessions already open keep going
        monkeypatch.setattr(envproto, "MAX_SESSIONS", 2)
        srv = EnvServer(SCN, port=0)
        serve(srv)
        conns = [Conn(srv.address) for _ in range(2)]
        try:
            for c in conns:  # a reply means the session holds its slot
                assert c.send(id=1, kind="reset", seed=0)["kind"] == "ok"
            extra = Conn(srv.address)
            conns.append(extra)
            reply = extra.read_reply()
            assert reply == {"id": -1, "kind": "error", "code": "busy",
                             "message": "server already holds its 2 sessions"}
            assert extra.fh.readline() == b""
            for c in conns[:2]:
                assert c.send(id=2, kind="measure")["kind"] == "trace"
            with pytest.raises(ServerError, match=r"\[busy\]"):
                RemoteEnv(*srv.address, scenario=SCN)
            # a closed session frees its slot, once the server sees the close
            conns.pop(0).close()
            deadline = time.monotonic() + 10
            while True:
                again = Conn(srv.address)
                conns.append(again)
                reply = again.send(id=1, kind="reset")
                if reply["kind"] == "ok":
                    break
                assert reply["code"] == "busy" and time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            for c in conns:
                c.close()
            srv.shutdown()
            srv.server_close()

    def test_session_cap_holds_under_concurrent_connects(self, monkeypatch):
        # many clients connect at once, with frequent thread switches: the
        # server admits exactly the cap, and refuses the rest
        monkeypatch.setattr(envproto, "MAX_SESSIONS", 3)
        srv = EnvServer(SCN, port=0)
        serve(srv)
        n = 12
        start, kinds, conns = threading.Barrier(n), [], []

        def client():
            start.wait(timeout=10)
            c = Conn(srv.address)
            conns.append(c)
            kinds.append(c.send(id=1, kind="reset")["kind"])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert sorted(kinds) == ["error"] * (n - 3) + ["ok"] * 3
        finally:
            sys.setswitchinterval(switch)
            for c in conns:
                c.close()
            srv.shutdown()
            srv.server_close()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)
FIELD_VALUES = (st.floats() | st.integers() | st.booleans() | st.none()
                | st.sampled_from(["48", "1e-5", "nan", "x", ""]))
REQUEST = st.fixed_dictionaries(
    {"kind": st.sampled_from(["reset", "step", "set_gain", "measure",
                              "run_episode"]) | JSON},
    optional={
        "kp": st.floats(0.0, 5.0) | JSON,
        "n_steps": st.integers(-5, 60000) | JSON,
        "seed": st.integers(0, 2**64) | JSON,
        "encoding": st.sampled_from(["json", "f64le"]) | JSON,
        "until": st.floats(4.9, 5.001) | st.floats() | JSON,
        "scenario": st.dictionaries(
            st.sampled_from([f.name for f in fields(plant.PlantScenario)])
            | st.text(max_size=8), FIELD_VALUES, max_size=4) | JSON})


@settings(max_examples=150, deadline=None)
@given(requests=st.lists(st.tuples(st.booleans(), REQUEST | JSON.filter(
    lambda v: isinstance(v, dict))), min_size=1, max_size=5))
def test_session_handle_never_raises(requests):
    session = _Session(SCN)
    for rid, (numbered, req) in enumerate(requests, start=1):
        msg = {**req, "id": rid} if numbered else req
        reply, payload = session.handle(msg)
        assert isinstance(reply, dict) and isinstance(payload, bytes)
        assert reply["kind"] in ("ok", "trace", "error")
        assert reply.get("nbytes", 0) == len(payload)
        json.dumps(reply)
        # a seed is absent or a non-negative integer; anything else is
        # refused by name (unless the id already was)
        seed_ok = type(msg.get("seed", 0)) is int and msg.get("seed", 0) >= 0
        if msg.get("kind") in ("reset", "run_episode") and not seed_ok \
                and reply.get("code") not in ("parse", "sequence"):
            assert reply["kind"] == "error" and reply["code"] == "args"
            assert "seed" in reply["message"]


# a short served scenario, unstable at every gain above 1.0: the mode grows
# by e every 15 ms at kp 4. Its velocity amplitude, omega * disturbance_amp,
# starts at 6.0, just under the bound of 6.5, and a reset to a
# disturbance_amp above 0.0216 starts it over
SHORT = replace(SCN, kp_stable=0.3, kp_crit=1.0, zeta_stable=0.05, mistune_time=0.18,
                act_time=0.2, horizon=0.5, diverge_threshold=6.5)
GAPS = st.integers(1, 3)  # from one request id to the next
GAINS = st.floats(0.0, 5.0)  # the served bounds are [0.5, 4.0]
SEEDS = st.integers(0, 2**32)


def same(reply, expected):
    """Equal replies, float bits included: repr round-trips every float."""
    return json.dumps(reply) == json.dumps(expected)


class SessionModel(RuleBasedStateMachine):
    """_Session.handle against the plant functions it serves, run on a
    scenario, a state and an rng of the model's own, seeded as the
    session's. Every reply must equal the model's bit for bit."""

    def __init__(self):
        super().__init__()
        self.session = _Session(SHORT)
        self.last_id = 0

    def handle(self, gap, kind, **fields):
        self.last_id += gap
        return self.session.handle({"id": self.last_id, "kind": kind, **fields})

    def refused_for_bounds(self, reply, kp):
        return reply["kind"] == "error" and reply["code"] == "bounds" \
            and not 0.5 <= kp <= 4.0

    @initialize(seed=SEEDS)
    def first_reset(self, seed):
        self.reset(1, seed, SHORT.disturbance_amp)

    @rule(gap=GAPS, seed=SEEDS, amp=st.floats(0.0, 0.05))
    def reset(self, gap, seed, amp):
        reply, _ = self.handle(gap, "reset", seed=seed, scenario={"disturbance_amp": amp})
        self.scenario = replace(SHORT, disturbance_amp=amp)
        self.state = plant.initial_state(self.scenario)
        self.rng = np.random.default_rng(seed)
        assert same(reply, {"id": self.last_id, "kind": "ok", "payload": {"t": 0.0}})

    @rule(gap=GAPS, kp=GAINS)
    def set_gain(self, gap, kp):
        reply, _ = self.handle(gap, "set_gain", kp=kp)
        if self.refused_for_bounds(reply, kp):
            return
        self.state = plant.apply_gain(self.state, plant.GainAction(kp))
        assert same(reply, {"id": self.last_id, "kind": "ok",
                            "payload": {"active_kp": kp}})

    @rule(gap=GAPS, n_steps=st.integers(1, SHORT.n_samples))
    def step(self, gap, n_steps):
        reply, _ = self.handle(gap, "step", n_steps=n_steps)
        try:
            self.state = plant.step(self.state, self.scenario, self.rng, n_steps)
        except plant.DivergedError as exc:
            # the session keeps the last finite state
            self.state = exc.state
            expected = {"id": self.last_id, "kind": "error", "code": "diverged",
                        "message": str(exc)}
        else:
            expected = {"id": self.last_id, "kind": "ok",
                        "payload": {"t": self.state.t,
                                    "mode_state": self.state.mode_state.tolist()}}
        assert same(reply, expected)

    @rule(gap=GAPS)
    def measure(self, gap):
        reply, _ = self.handle(gap, "measure")
        value = plant.measure(self.state, self.scenario, self.rng)
        assert same(reply, {"id": self.last_id, "kind": "trace", "samples": [value],
                            "rate": SHORT.sample_rate, "t0": self.state.t,
                            "diverged": False})

    @rule(gap=GAPS, kp=GAINS, seed=SEEDS, encoding=st.sampled_from(["json", "f64le"]),
          until=st.none() | st.floats(SHORT.act_time, 1.0, exclude_min=True))
    def run_episode(self, gap, kp, seed, encoding, until):
        extra = {} if until is None else {"until": until}
        reply, payload = self.handle(gap, "run_episode", kp=kp, seed=seed,
                                     encoding=encoding, **extra)
        if self.refused_for_bounds(reply, kp):
            return
        horizon = SHORT.horizon if until is None else min(until, SHORT.horizon)
        result = plant.run_episode(replace(self.scenario, horizon=horizon),
                                   plant.GainAction(kp), seed)
        expected = {"id": self.last_id, "kind": "trace", "rate": SHORT.sample_rate,
                    "t0": 0.0, "diverged": result.diverged}
        if encoding == "json":
            assert payload == b""
            assert same(reply, {**expected, "samples": result.trace.samples.tolist()})
        else:
            raw = result.trace.samples.astype("<f8").tobytes()
            assert payload == raw and same(reply, {**expected, "nbytes": len(raw)})

    @rule(back=st.integers(0, 2), kind=st.sampled_from(
        ["reset", "step", "set_gain", "measure", "run_episode"]))
    def stale_id(self, back, kind):
        # an id that does not increase is refused before the request is read
        rid = self.last_id - back
        reply, _ = self.session.handle({"id": rid, "kind": kind, "n_steps": 1,
                                        "kp": 2.0, "seed": 0})
        assert same(reply, {"id": rid, "kind": "error", "code": "sequence",
                            "message": f"id {rid} not greater than previous "
                                       f"{self.last_id}"})

    @invariant()
    def same_state(self):
        got = self.session.state
        assert got.t == self.state.t and got.active_kp == self.state.active_kp
        assert got.mode_state.tobytes() == self.state.mode_state.tobytes()
        assert self.session.rng.bit_generator.state == self.rng.bit_generator.state


TestSessionModel = SessionModel.TestCase
TestSessionModel.settings = settings(max_examples=50, stateful_step_count=20,
                                     deadline=None)


class TestRemoteEnv:
    def test_episode_bit_identical(self, server):
        env = RemoteEnv(*server.address, scenario=SCN)
        try:
            remote = env.run_episode(2.0, 5)
        finally:
            env.close()
        local = plant.run_episode(SCN, plant.GainAction(2.0), seed=5)
        assert np.array_equal(remote.trace.samples, local.trace.samples)
        assert remote.trace.sample_rate == local.trace.sample_rate
        assert env.episode_count == 1

    def test_diverged_episode_matches_local(self, server):
        scn = replace(SCN, **DIVERGING)
        env = RemoteEnv(*server.address, scenario=scn)
        try:
            remote = env.run_episode(scn.kp_unstable, 5)
        finally:
            env.close()
        local = plant.run_episode(scn, plant.GainAction(scn.kp_unstable), seed=5)
        assert remote.diverged and local.diverged
        assert np.array_equal(remote.trace.samples, local.trace.samples)
        assert remote.diverged_at == local.diverged_at

    def test_server_down_raises(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            free_port = s.getsockname()[1]
        with pytest.raises(ProtocolError, match="cannot connect"):
            RemoteEnv("127.0.0.1", free_port, scenario=SCN)

    def test_retry_recovers_from_dropped_connection(self, server):
        env = RemoteEnv(*server.address, scenario=SCN)
        try:
            env._sock.close()  # sever the transport under the adapter
            result = env.run_episode(2.0, 5)
        finally:
            env.close()
        local = plant.run_episode(SCN, plant.GainAction(2.0), seed=5)
        assert np.array_equal(result.trace.samples, local.trace.samples)

    def test_remote_training_log_matches_local(self, server, tmp_path):
        cfg = trainer.TrainConfig(n_epoch=5, n_iter=2, seed=11)
        d_local, d_remote = tmp_path / "local", tmp_path / "remote"
        trainer.train(SCN, cfg, run_dir=d_local)
        env = RemoteEnv(*server.address, scenario=SCN)
        trainer.train(SCN, cfg, run_dir=d_remote, env=env)
        env.close()
        assert (d_local / "training_log.csv").read_bytes() == \
               (d_remote / "training_log.csv").read_bytes()

    @pytest.mark.parametrize("scn, seed", [(SCN, 11), (MIXED, 0)],
                             ids=["cache_off", "diverging_in_batch"])
    def test_remote_cache_off_log_matches_local(self, server, tmp_path, scn, seed):
        # every iteration is a remote episode; with MIXED an epoch's batch
        # holds episodes that diverge before the reward window between
        # finite ones, so its penalties depend on the order of assembly
        cfg = trainer.TrainConfig(n_epoch=3, n_iter=8, seed=seed, cache_enabled=False)
        unscored = []

        class Scoring(trainer.LocalPlantEnv):
            def run_episode(self, kp, seed):
                result = super().run_episode(kp, seed)
                unscored.append(trainer.episode_reward(result, scn, cfg) is None)
                return result

        d_local, d_remote = tmp_path / "local", tmp_path / "remote"
        trainer.train(scn, cfg, run_dir=d_local, env=Scoring(scn))
        env = RemoteEnv(*server.address, scenario=scn)
        try:
            trainer.train(scn, cfg, run_dir=d_remote, env=env)
        finally:
            env.close()
        assert env.episode_count == 1 + cfg.n_epoch * cfg.n_iter
        assert (d_local / "training_log.csv").read_bytes() == \
               (d_remote / "training_log.csv").read_bytes()
        if scn is MIXED:
            batches = [unscored[1 + e * cfg.n_iter:1 + (e + 1) * cfg.n_iter]
                       for e in range(cfg.n_epoch)]
            assert any(True in b and not b[0] and not b[-1] for b in batches)

    def test_every_episode_request_carries_until(self, server, tmp_path, monkeypatch):
        # the served session drops `until`, as a simulator that ignores it
        # would, and runs every episode to its horizon: the log is the
        # local one all the same
        real = _Session.handle
        untils = []

        def ignoring(self, msg):
            if msg.get("kind") == "run_episode":
                untils.append(msg.pop("until", None))
            return real(self, msg)

        monkeypatch.setattr(_Session, "handle", ignoring)
        cfg = trainer.TrainConfig(n_epoch=3, n_iter=4, seed=11, cache_enabled=False)
        d_local, d_remote = tmp_path / "local", tmp_path / "remote"
        trainer.train(SCN, cfg, run_dir=d_local)
        env = RemoteEnv(*server.address, scenario=SCN)
        try:
            trainer.train(SCN, cfg, run_dir=d_remote, env=env)
        finally:
            env.close()
        # the pre-trace, then one request per iteration, each to the end of
        # the reward window
        assert untils == [trainer.reward_scenario(SCN, cfg).horizon] * 13
        assert (d_local / "training_log.csv").read_bytes() == \
               (d_remote / "training_log.csv").read_bytes()

    @pytest.mark.parametrize("where", ["local", "remote"])
    def test_default_training_simulates_one_history(self, server, where):
        # the pre-trace and every training episode ask for one history at
        # one horizon; the in-process server's sessions share this memo
        plant._history.cache_clear()
        env = RemoteEnv(*server.address, scenario=SCN) if where == "remote" else None
        try:
            result = trainer.train(SCN, trainer.TrainConfig(), env=env)
        finally:
            if env is not None:
                env.close()
        assert plant._history.cache_info()[:2] == (result.plant_episodes - 1, 1)

    def test_error_reply_drains_the_reply_in_flight(self, server):
        # the second request is on the wire when the first is refused; its
        # reply is read and dropped, so the next episode keeps the connection
        env = RemoteEnv(*server.address, scenario=SCN)
        try:
            sock = env._sock
            with pytest.raises(ServerError, match=r"\[bounds\]"):
                list(env.run_episodes([(9.0, 1), (2.0, 5)]))
            assert env.episode_count == 0
            result = env.run_episode(2.0, 6)
            assert env._sock is sock
        finally:
            env.close()
        local = plant.run_episode(SCN, plant.GainAction(2.0), seed=6)
        assert np.array_equal(result.trace.samples, local.trace.samples)
        assert env.episode_count == 1

    def test_batch_dropped_after_close_is_drained_quietly(self, server, monkeypatch):
        # the batch's finally finds the connection closed: nothing to drain
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        env = RemoteEnv(*server.address, scenario=SCN)
        results = env.run_episodes([(2.0, 1), (2.0, 2), (2.0, 3)])
        next(results)
        env.close()
        del results
        assert unraisable == []
        assert env.episode_count == 1

    def test_consumer_stopping_early_leaves_env_usable(self, server):
        env = RemoteEnv(*server.address, scenario=SCN)
        try:
            sock = env._sock
            results = env.run_episodes([(2.0, 1), (2.0, 2), (2.0, 3)])
            first = next(results)
            results.close()
            assert env.episode_count == 1
            again = env.run_episode(2.5, 4)
            assert env._sock is sock
        finally:
            env.close()
        for result, kp, seed in ((first, 2.0, 1), (again, 2.5, 4)):
            local = plant.run_episode(SCN, plant.GainAction(kp), seed=seed)
            assert np.array_equal(result.trace.samples, local.trace.samples)
        assert env.episode_count == 2


# ---------------------------------------------------------------------------
# the client against canned replies

class _StubHandler(socketserver.StreamRequestHandler):
    def handle(self):
        srv = self.server
        srv.connections += 1
        held = b""  # a reply written only once the next request has arrived
        for raw in self.rfile:
            self.wfile.write(held)
            held = b""
            msg = json.loads(raw)
            srv.requests.append(msg)
            if msg["kind"] != "run_episode":
                line = json.dumps({"id": msg["id"], "kind": "ok", "payload": {}})
                self.wfile.write((line + "\n").encode())
                continue
            line = srv.canned if isinstance(srv.canned, str) \
                else json.dumps({"id": msg["id"], **srv.canned})
            reply = (line + "\n").encode() + srv.tail
            if srv.cut is not None and msg.get("seed") == srv.cut[0]:
                self.wfile.write(reply[:srv.cut[1](len(line) + 1)])
                return
            if srv.hold:
                srv.hold -= 1
                held = reply
            else:
                self.wfile.write(reply)
            if srv.hangup:
                return


class StubSimulator(socketserver.ThreadingTCPServer):
    """An external simulator that acknowledges every request and answers
    each `run_episode` with one canned reply (fields, or a raw line) and
    the raw bytes `tail` after it, then hangs up if told to, recording
    what it receives. It holds back its first `hold` episode replies until
    the next request arrives. `cut` = (seed, offset) answers an episode
    request with that seed by the first offset(header line length) bytes
    of its reply, then hangs up."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, canned, tail=b"", hangup=False, hold=0, cut=None):
        super().__init__(("127.0.0.1", 0), _StubHandler)
        self.canned = canned
        self.tail = tail
        self.hangup = hangup
        self.hold = hold
        self.cut = cut
        self.connections = 0
        self.requests = []
        serve(self)


@pytest.fixture
def stub():
    servers = []

    def start(line=None, tail=b"", hangup=False, hold=0, cut=None, **canned):
        servers.append(StubSimulator(canned if line is None else line, tail, hangup,
                                     hold, cut))
        return servers[-1]

    yield start
    for srv in servers:
        srv.shutdown()
        srv.server_close()


def f64le(samples):
    """The header field and trailing bytes of an "f64le" trace reply."""
    raw = np.asarray(samples, dtype="<f8").tobytes()
    return {"nbytes": len(raw), "tail": raw}


TRACE = {"kind": "trace", "rate": SCN.sample_rate, "t0": 0.0, "diverged": False}


class TestRemoteEnvPayloads:
    def test_decodes_json_list_from_external_simulator(self, stub):
        # a simulator that ignores `encoding` and sends a float list
        local = plant.run_episode(SCN, plant.GainAction(2.0), seed=5)
        srv = stub(**TRACE, samples=local.trace.samples.tolist())
        env = RemoteEnv(*srv.server_address, scenario=SCN)
        try:
            result = env.run_episode(2.0, 5)
        finally:
            env.close()
        assert np.array_equal(result.trace.samples, local.trace.samples)
        assert srv.requests[-1]["encoding"] == "f64le"
        assert srv.connections == 1

    def test_decoded_samples_are_writable_float64(self, stub):
        srv = stub(**TRACE, **f64le([1.0, 2.0, 3.0]))
        env = RemoteEnv(*srv.server_address, scenario=SCN)
        try:
            samples = env.run_episode(2.0, 5).trace.samples
        finally:
            env.close()
        assert samples.dtype == np.float64 and samples.flags.writeable
        assert samples.tolist() == [1.0, 2.0, 3.0]

    def test_frames_stay_aligned_across_episodes(self, stub):
        srv = stub(**TRACE, **f64le([1.0, 2.0, 3.0]))
        env = RemoteEnv(*srv.server_address, scenario=SCN)
        try:
            for _ in range(3):
                assert env.run_episode(2.0, 5).trace.samples.tolist() == [1.0, 2.0, 3.0]
        finally:
            env.close()
        assert srv.connections == 1

    # A header whose nbytes is refused is answered before its bytes are
    # read, so these stubs send none: the match proves the refusal.
    @pytest.mark.parametrize("payload, match", [
        ({"id": 99}, "response id 99"),
        ({"nbytes": "24", "tail": bytes(24)}, "nbytes '24'"),
        ({"nbytes": True}, "nbytes True"),
        ({"nbytes": 24.0}, "nbytes 24.0"),
        ({"nbytes": -8}, "nbytes -8"),
        ({"nbytes": 12}, "nbytes 12"),
        ({"nbytes": 8 * (N_TOTAL + 2)}, f"{N_TOTAL + 2} samples exceeds"),
        ({"nbytes": 2**62}, "exceeds"),
        ({"nbytes": 80, "tail": bytes(40), "hangup": True}, "middle of a trace"),
        ({**f64le([1.0, float("nan"), 1.0])}, "non-finite"),
        ({**f64le([1.0, 2.0]), "rate": "5000"}, "rate '5000'"),
        ({"samples": [1.0, float("inf"), 1.0]}, "non-finite"),
        ({"samples": [1.0, "x"]}, "bad trace payload"),
        ({}, "bad trace payload"),
        # the trainer counts the reward window in samples from t = 0
        ({**f64le([1.0, 2.0]), "t0": 0.5}, "t0 0.5"),
    ], ids=["id_mismatch", "nbytes_string", "nbytes_bool", "nbytes_float",
            "nbytes_negative", "partial_float", "over_horizon", "huge_nbytes",
            "short_read", "nan_f64le", "rate_string", "inf_json", "not_numbers",
            "no_samples", "t0_not_zero"])
    def test_bad_payload_retried_then_raises(self, stub, payload, match):
        srv = stub(**{**TRACE, **payload})
        env = RemoteEnv(*srv.server_address, scenario=SCN, timeout=10)
        try:
            with pytest.raises(ProtocolError, match="after retry") as err:
                env.run_episode(2.0, 5)
        finally:
            env.close()
        assert not isinstance(err.value, ServerError)
        assert match in str(err.value)
        # a bad payload is a transport failure: the framing is lost, so the
        # one retry runs on a new connection
        assert srv.connections == 2
        assert env.episode_count == 0

    def test_non_object_reply_retried_then_raises(self, stub):
        srv = stub("[1.0, 2.0]")
        env = RemoteEnv(*srv.server_address, scenario=SCN)
        try:
            with pytest.raises(ProtocolError, match="not a JSON object"):
                env.run_episode(2.0, 5)
        finally:
            env.close()
        assert srv.connections == 2

    def test_too_deep_reply_retried_then_raises(self, stub):
        srv = stub("[" * 30000)
        env = RemoteEnv(*srv.server_address, scenario=SCN)
        try:
            with pytest.raises(ProtocolError, match="malformed reply line") as err:
                env.run_episode(2.0, 5)
        finally:
            env.close()
        assert "after retry" in str(err.value)
        assert srv.connections == 2

    def test_one_horizon_accepted(self, stub):
        srv = stub(**TRACE, **f64le(np.zeros(N_TOTAL + 1)))
        env = RemoteEnv(*srv.server_address, scenario=SCN)
        try:
            assert len(env.run_episode(2.0, 5).trace) == N_TOTAL + 1
        finally:
            env.close()

    def test_error_reply_not_retried(self, stub):
        srv = stub(kind="error", code="bounds", message="kp 9.0 outside [0.5, 4.0]")
        env = RemoteEnv(*srv.server_address, scenario=SCN)
        try:
            with pytest.raises(ServerError, match=r"\[bounds\]") as err:
                env.run_episode(9.0, 5)
        finally:
            env.close()
        assert err.value.code == "bounds"
        assert srv.connections == 1
        assert [m["kind"] for m in srv.requests] == ["reset", "run_episode"]

    def test_next_request_sent_before_reply_read(self, stub):
        # the stub writes each of its first two episode replies only once
        # the next request has arrived: a client that waited for a reply
        # before sending on would time out
        srv = stub(**TRACE, **f64le([1.0, 2.0]), hold=2)
        env = RemoteEnv(*srv.server_address, scenario=SCN, timeout=5)
        in_flight, most = set(), []
        send, receive = env._send, env._receive

        def counting_send(kind, **payload):
            rid = send(kind, **payload)
            in_flight.add(rid)
            most.append(len(in_flight))
            return rid

        def counting_receive(rid):
            in_flight.discard(rid)
            return receive(rid)

        env._send, env._receive = counting_send, counting_receive
        try:
            results = list(env.run_episodes([(2.0, 1), (2.0, 2), (2.0, 3)]))
        finally:
            env.close()
        assert [r.trace.samples.tolist() for r in results] == [[1.0, 2.0]] * 3
        assert [m.get("seed") for m in srv.requests] == [None, 1, 2, 3]
        assert srv.connections == 1 and env.episode_count == 3
        assert max(most) == 2

    @pytest.mark.parametrize("cut", [
        lambda n: n // 2, lambda n: n - 1, lambda n: n,
        lambda n: n + 16, lambda n: n + 21],
        ids=["in_header", "before_newline", "after_newline", "payload_aligned",
             "payload_unaligned"])
    @pytest.mark.parametrize("which", [0, 1], ids=["first_reply", "second_reply"])
    def test_cut_reply_resumes_then_raises(self, stub, cut, which):
        # every reply to the job with the cut seed stops at the offset and
        # the stub hangs up: the batch resumes from that job on a fresh
        # connection, which is cut again
        seeds = (1, 2)
        srv = stub(**TRACE, **f64le(np.arange(8.0)), cut=(seeds[which], cut))
        timeout = 5.0
        env = RemoteEnv(*srv.server_address, scenario=SCN, timeout=timeout)
        start = time.monotonic()
        try:
            results = env.run_episodes([(2.0, seed) for seed in seeds])
            if which:
                assert next(results).trace.samples.tolist() == list(range(8))
            with pytest.raises(ProtocolError, match="after retry") as err:
                next(results)
        finally:
            env.close()
        assert time.monotonic() - start < timeout
        assert not isinstance(err.value, ServerError)
        assert srv.connections == 2
        served = [m["seed"] for m in srv.requests if m["kind"] == "run_episode"]
        assert served.count(seeds[which]) == 2
        assert env.episode_count == which
