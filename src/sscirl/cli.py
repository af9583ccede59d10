"""Command-line surface: train, evaluate, simulate, serve, oracle.

Configuration is flat `key = value` text covering both the plant scenario
and the training settings; any key can be overridden on the command line
with `--<key> <value>`. `main` resolves it once and hands it to the
command.

`main` alone turns a refusal into one line on stderr and an exit code: a
config that cannot be used (ConfigError) exits 2 as `bad config: ...`, a
checkpoint that cannot be read exits 1 as `cannot load checkpoint: ...`,
and a run that cannot go on (TraceError, ProtocolError, PolicyError,
OSError) exits 1 as `<command> failed: ...`.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

from . import plant, policy, sigproc, trainer
from .config import KEYS, ConfigError, check_gain, filter_band, resolve, write
from .envproto import EnvServer, RemoteEnv, ProtocolError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_CONFIG = 2


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key = value config file")
    for key in KEYS:
        try:
            parser.add_argument(f"--{key}", dest=f"ov_{key}", metavar="V",
                                help=argparse.SUPPRESS)
        except argparse.ArgumentError:
            # subcommand claims this flag for itself (e.g. --seed)
            pass


def load_run_config(args) -> tuple[plant.PlantScenario, trainer.TrainConfig]:
    """Resolve config file plus CLI overrides into the two config objects.
    ConfigError names the field or flag of a bad config, a negative episode
    --seed, a serve --port outside [0, 65535] or a simulate --kp at which
    the plant's transition is not finite (validate's rule for the gains)."""
    overrides = {key: value for key in KEYS
                 if (value := getattr(args, f"ov_{key}", None)) is not None}
    scenario, config = resolve(args.config, overrides)
    if vars(args).get("seed", 0) < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not 0 <= vars(args).get("port", 0) <= 65535:
        raise ConfigError(f"--port must be in [0, 65535], got {args.port}")
    if "kp" in vars(args):
        check_gain(scenario, "--kp", args.kp)
    return scenario, config


def _make_env(spec: str, scenario: plant.PlantScenario):
    """The env `trainer.train` is given: None for "local", so the trainer
    runs its own plant on the reward window, else a RemoteEnv."""
    if spec == "local":
        return None
    kind, *address = spec.split(":")
    if kind == "remote" and len(address) == 2 and address[1].isdecimal() \
            and int(address[1]) <= 65535:
        return RemoteEnv(address[0], int(address[1]), scenario=scenario)
    raise ProtocolError(f"bad --env {spec!r}; use 'local' or 'remote:HOST:PORT'")


def cmd_train(args, scenario, config) -> None:
    env = _make_env(args.env, scenario)
    try:
        result = trainer.train(scenario, config, run_dir=args.out, env=env)
    finally:
        if env is not None:
            env.close()
    last = result.stats[-1]
    print(f"trained {len(result.stats)} epochs; best mean reward "
          f"{result.best_reward:.6g}; final mean action {last.mean_action:.4f}; "
          f"plant episodes {result.plant_episodes}")
    print(f"run directory: {result.run_dir}")


def cmd_evaluate(args, scenario, config) -> None:
    params = policy.load_checkpoint(args.checkpoint, config.d_obs, config.hidden_size)
    report = trainer.evaluate(params, scenario, config, seed=args.seed,
                              mitigate=not args.no_mitigation)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write(out / "report.txt", report.as_dict())
    sigproc.write_trace_csv(report.trace, out / "episode.csv")
    for key, value in report.as_dict().items():
        print(f"{key} = {value!r}")


def cmd_simulate(args, scenario, config) -> None:
    result = plant.run_episode(scenario, args.kp, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sigproc.write_trace_csv(result.trace, out / "raw.csv")
    filtered = sigproc.filter_head(result.trace,
                                   *filter_band(result.trace.sample_rate, config))[1]
    observed = sigproc.downsample(filtered, config.target_rate)
    sigproc.write_trace_csv(filtered, out / "filtered.csv")
    sigproc.write_trace_csv(observed, out / "decimated.csv")
    if result.diverged:
        write(out / "diverged.txt", {"diverged_at": result.diverged_at})
        print(f"warning: trace truncated, state diverged at "
              f"{result.diverged_at:.4f} s")
    print(f"wrote raw/filtered/decimated CSVs to {out}")


def cmd_serve(args, scenario, config) -> None:
    server = EnvServer(scenario, args.host, args.port,
                       kp_bounds=(config.kp_min, config.kp_max))
    host, port = server.address
    print(f"serving plant environment on {host}:{port}")
    with server, contextlib.suppress(KeyboardInterrupt):
        server.serve_forever()


def cmd_oracle(args, scenario, config) -> None:
    best, sweep = trainer.grid_oracle(scenario, config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        fh.write("gain,reward\n")
        for kp, reward in sweep:
            fh.write(f"{kp!r},{reward!r}\n")
    print(f"oracle optimum gain: {best}")
    print(f"sweep written to {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sscirl",
        description="policy-gradient gain tuning against sub-synchronous "
                    "control interactions on a surrogate grid plant")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run policy-gradient training")
    p.add_argument("--out", default="runs/train", help="run directory")
    p.add_argument("--env", default="local",
                   help="'local' or 'remote:HOST:PORT'")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="mitigation report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default="runs/evaluate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-mitigation", action="store_true",
                   help="emit the unmitigated baseline episode instead")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate",
                       help="single open-loop episode + raw, filtered and observed CSVs")
    p.add_argument("--kp", type=float, required=True)
    p.add_argument("--out", default="runs/simulate")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("serve", help="serve the plant over the line protocol")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7351)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("oracle", help="grid-search reward sweep over gains")
    p.add_argument("--out", default="runs/oracle.csv")
    p.set_defaults(func=cmd_oracle)
    for p in sub.choices.values():  # after each command's own flags
        _add_common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args, *load_run_config(args))
        return EXIT_OK
    except ConfigError as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_CONFIG)
    except policy.CheckpointError as exc:
        print(f"cannot load checkpoint: {exc}", file=sys.stderr)
    except (sigproc.TraceError, ProtocolError, policy.PolicyError, OSError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
    return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
