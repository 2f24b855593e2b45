"""Command-line entry point.

Subcommands: gen-data, pretrain, adapt, eval, verify. All outputs are
deterministic for fixed arguments, configuration, and seed; files carry no
timestamps, so reruns are byte-identical. Exit codes: 0 success, 1 usage
or validation error, 2 verification failure.

Seed precedence: --seed flag, then config file, then the SFDA2_SEED
environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .adapt import AdaptConfig, adapt, evaluate, pretrain_source, validate_config
from .data import (
    ShiftSpec,
    default_shift_spec,
    dumps_json,
    gen_synthetic,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    validate_shift_spec,
)
from .errors import InvalidInputError, NumericalError
from .verify import (
    verify_gradients,
    verify_ifa_bound,
    verify_oracles,
    verify_snc_factorization,
)

import numpy as np


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits the process with status 2 on bad flags; the contract
    # here is exit 1 for usage errors, so surface them as exceptions.
    def error(self, message):
        raise _UsageError(message)


def _resolve_seed(flag_value: int | None, config_value: int | None = None, default: int | None = 0) -> int | None:
    if flag_value is not None:
        return flag_value
    if config_value is not None:
        return config_value
    env = os.environ.get("SFDA2_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidInputError("SFDA2_SEED must be an integer") from None
    return default


# Every AdaptConfig field, typed by its default, plus the model shape: the
# keys of a config file and, with dashes, the run-config flags.
_CONFIG_SCHEMA: dict[str, type] = {
    **{f.name: type(f.default) for f in fields(AdaptConfig)},
    "hidden_dims": list,
    "feature_dim": int,
}


def _check_config_value(key: str, value):
    expected = _CONFIG_SCHEMA[key]
    if isinstance(value, bool):
        raise InvalidInputError(f"config field {key!r} must be a number, got a boolean")
    if expected is float:
        if not isinstance(value, (int, float)):
            raise InvalidInputError(f"config field {key!r} must be a number")
        return float(value)
    if expected is int:
        if not isinstance(value, int):
            raise InvalidInputError(f"config field {key!r} must be an integer")
        return value
    if key == "hidden_dims":
        if not isinstance(value, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in value
        ):
            raise InvalidInputError("config field 'hidden_dims' must be a list of integers >= 1")
        return tuple(value)
    raise InvalidInputError(f"unsupported config field {key!r}")


def _read_json_object(path: str, kind: str, known) -> dict:
    """The JSON object in `path`; every key must be one of `known`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"unreadable {kind} {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidInputError(f"{kind} root must be a JSON object")
    for key in raw:
        if key not in known:
            raise InvalidInputError(f"unknown {kind} field {key!r}")
    return raw


def _load_run_config(path: str | None, args) -> tuple[AdaptConfig, dict]:
    """Config file merged with flag overrides, and the model-shape values
    given (`pretrain_source` owns their defaults); every field is validated."""
    raw = {} if path is None else _read_json_object(path, "config", _CONFIG_SCHEMA)
    values = {key: _check_config_value(key, value) for key, value in raw.items()}
    for key in _CONFIG_SCHEMA:
        if key != "seed" and (flag_value := getattr(args, key, None)) is not None:
            values[key] = flag_value

    shape = {key: values.pop(key) for key in ("hidden_dims", "feature_dim") if key in values}
    seed = _resolve_seed(getattr(args, "seed", None), values.pop("seed", None))
    config = AdaptConfig(seed=seed, **values)
    validate_config(config)
    return config, shape


def _load_shift_spec(path: str) -> ShiftSpec:
    base = vars(default_shift_spec())
    raw = _read_json_object(path, "spec", base)
    try:
        spec = ShiftSpec(**{
            name: np.asarray(raw.get(name, value), dtype=value.dtype)
            if isinstance(value, np.ndarray) else float(raw.get(name, value))
            for name, value in base.items()
        })
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed spec value: {exc}") from exc
    validate_shift_spec(spec)
    return spec


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_losses_csv(path: str, trace) -> None:
    lines = ["iteration,snc,ifa,fd,total,decay,lambda"]
    for i, row in enumerate(trace.iterations):
        cells = [str(i)] + [
            repr(float(v)) for v in (row.snc, row.ifa, row.fd, row.total, row.decay, row.lam)
        ]
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


def _cmd_gen_data(args) -> int:
    spec = _load_shift_spec(args.spec) if args.spec else default_shift_spec()
    seed = _resolve_seed(args.seed)
    source, target = gen_synthetic(spec, seed)
    os.makedirs(args.out, exist_ok=True)
    source_path = os.path.join(args.out, "source.csv")
    target_path = os.path.join(args.out, "target.csv")
    save_dataset(source, source_path)
    save_dataset(target, target_path)
    print(f"wrote {source_path} ({source.size} rows) and {target_path} ({target.size} rows)")
    return 0


def _cmd_pretrain(args) -> int:
    config, shape = _load_run_config(args.config, args)
    source = load_dataset(args.source)
    model = pretrain_source(config, source, **shape)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "source.ckpt")
    save_checkpoint(model, ckpt_path)
    metrics = evaluate(model, source)
    _write_text(
        os.path.join(args.out, "metrics.json"),
        dumps_json({"source_eval": metrics.to_dict()}) + "\n",
    )
    print(f"wrote {ckpt_path}; source accuracy {metrics.accuracy:.4f}")
    return 0


def _cmd_adapt(args) -> int:
    config, _ = _load_run_config(args.config, args)
    model = load_checkpoint(args.model)
    target = load_dataset(args.target, n_classes=model.n_classes)
    eval_data = None
    if args.eval_data:
        # One parse when the eval file is the target; a missing file fails in load_dataset.
        same = os.path.exists(args.eval_data) and os.path.samefile(args.eval_data, args.target)
        eval_data = target if same else load_dataset(args.eval_data, n_classes=model.n_classes)
    adapted, trace = adapt(config, model, target.unlabeled(), eval_data)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "adapted.ckpt")
    save_checkpoint(adapted, ckpt_path)
    _write_losses_csv(os.path.join(args.out, "losses.csv"), trace)
    epoch_eval = [m.to_dict() for m in trace.epoch_metrics]
    _write_text(os.path.join(args.out, "metrics.json"), dumps_json({"epoch_eval": epoch_eval}) + "\n")
    print(f"wrote {ckpt_path} after {len(trace.iterations)} iterations")
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    dataset = load_dataset(args.data, n_classes=model.n_classes)
    metrics = evaluate(model, dataset)
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "metrics.json"), dumps_json(metrics.to_dict()) + "\n")
    print(
        f"accuracy {metrics.accuracy:.4f}, per-class mean {metrics.per_class_mean:.4f}, "
        f"harmonic {metrics.harmonic_mean:.4f}, macro-F1 {metrics.macro_f1:.4f}"
    )
    return 0


# Suites in `--suite all` order: the name of each suite's function in this
# module, looked up at call time so that a rebinding of it is seen, and the
# keywords its flags set.
_SUITES = {
    "ifa-bound": ("verify_ifa_bound", {"trials": "trials", "pairs": "n_pairs"}),
    "snc-factorization": ("verify_snc_factorization", {"trials": "trials"}),
    "gradients": ("verify_gradients", {"trials": "n_instances"}),
    "oracles": ("verify_oracles", {}),
}


def _run_suite(name: str, args) -> "object":
    """Run one suite with only the flags the user gave; everything else,
    the seed included when neither --seed nor SFDA2_SEED sets it, keeps the
    suite's own default."""
    function, keywords = _SUITES[name]
    suite = globals()[function]
    kwargs = {"negative_control": args.negative_control, "seed": _resolve_seed(args.seed, default=None)}
    kwargs.update((keyword, getattr(args, flag)) for flag, keyword in keywords.items())
    return suite(**{key: value for key, value in kwargs.items() if value is not None})


def _cmd_verify(args) -> int:
    for flag in ("trials", "pairs"):
        if args.suite != "all" and getattr(args, flag) is not None and flag not in _SUITES[args.suite][1]:
            raise _UsageError(f"--{flag} does not apply to --suite {args.suite}")
    names = tuple(_SUITES) if args.suite == "all" else (args.suite,)
    reports = [_run_suite(name, args) for name in names]
    payload = {"suites": [r.to_dict() for r in reports], "passed": all(r.passed for r in reports)}
    text = dumps_json(payload) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "report.json"), text)
    sys.stdout.write(text)
    return 0 if payload["passed"] else 2


def _add_run_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    for key, kind in _CONFIG_SCHEMA.items():
        flag = "--" + key.replace("_", "-")
        if key == "hidden_dims":
            parser.add_argument(
                flag,
                dest=key,
                type=lambda s: tuple(int(v) for v in s.split(",") if v),
                help="comma-separated hidden layer widths",
            )
        else:
            parser.add_argument(flag, dest=key, type=kind)


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="sfda2", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic source/target datasets")
    p.add_argument("--spec", help="JSON shift-spec file (defaults to the built-in benchmark)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen_data)

    p = sub.add_parser("pretrain", help="train a source model on a labeled CSV")
    _add_run_config_flags(p)
    p.add_argument("--source", required=True, help="labeled source CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_pretrain)

    p = sub.add_parser("adapt", help="adapt a pretrained model to an unlabeled target CSV")
    _add_run_config_flags(p)
    p.add_argument("--model", required=True, help="source checkpoint")
    p.add_argument("--target", required=True, help="target CSV (labels, if any, are ignored)")
    p.add_argument("--eval-data", dest="eval_data", help="labeled CSV for per-epoch diagnostics")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_adapt)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a labeled CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("verify", help="run the property-verification suites")
    p.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    p.add_argument("--trials", type=int)
    p.add_argument("--pairs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--negative-control", dest="negative_control", action="store_true")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
