"""Command line entry points.

Exit codes: 0 on success, 1 when inputs or flags fail validation, 2 when a
file cannot be read or written.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

from .core import SignificanceLevel
from .data import SyntheticSpec, generate_synthetic, write_dataset
from .nonconformity import MeasureSpec
from .icp import SplitConfig
from .pipeline import RunConfig, _validate_config, run_pipeline, simulate_online
from .report import (
    REPORT_FORMATS,
    emit_report,
    parse_report,
    regions_csv_chunks,
    trajectory_csv,
)


# The flag that sets each field named by `MeasureSpec`, `SplitConfig` and
# `pipeline._validate_config` messages.
_FLAGS = {"k": "--k", "proper_fraction": "--split-fraction", "seed": "--split-seed",
          "train_path": "--train", "calibration_path": "--calibration", "proper_path": "--proper"}


@contextmanager
def _config_stage():
    """Fail as the pipeline's `config` stage does, naming flags, not fields."""
    try:
        yield
    except ValueError as err:
        words = (_FLAGS.get(word, word) for word in str(err).split(" "))
        raise ValueError(f"config: {' '.join(words)}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); validation is exit 1
        raise ValueError(message)


def _add_level_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags `predict`, `evaluate` and `simulate-online` read alike."""
    parser.add_argument(
        "--positive-class", required=True, help="class name mapped to positive"
    )
    parser.add_argument("--k", type=int, default=1, help="neighbour count (default: 1)")
    parser.add_argument(
        "--epsilon",
        type=float,
        action="append",
        default=None,
        metavar="E",
        help="significance level (default: 0.2); simulate-online takes one",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        action="append",
        default=None,
        metavar="C",
        help="confidence percent, converted to epsilon; mixes with --epsilon",
    )


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    _add_level_arguments(parser)
    parser.add_argument("--train", type=Path, help="labelled dataset to split")
    parser.add_argument("--calibration", type=Path, help="ready calibration dataset")
    parser.add_argument(
        "--proper", type=Path, help="proper training set for neighbour measures"
    )
    parser.add_argument("--test", type=Path, help="dataset to predict on")
    parser.add_argument(
        "--measure",
        choices=("passthrough", "knn-ratio", "knn-prob"),
        default="passthrough",
        help="score source (default: passthrough)",
    )
    parser.add_argument(
        "--no-mondrian",
        action="store_true",
        help="pool calibration scores instead of keeping classes apart",
    )
    parser.add_argument("--split-fraction", type=float, default=None)
    parser.add_argument("--split-seed", type=int, default=None)
    parser.add_argument("--no-stratify", action="store_true")
    parser.add_argument("--smoothed", action="store_true", help="randomize tie mass")
    parser.add_argument("--smoothing-seed", type=int, default=None)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="forced-choice threshold on s_pos (default: 0.5)",
    )


def _epsilons(args: argparse.Namespace) -> tuple[float, ...]:
    values: list[float] = []
    if args.epsilon:
        values.extend(args.epsilon)
    if args.confidence:
        values.extend(
            SignificanceLevel.from_confidence(c).epsilon for c in args.confidence
        )
    return tuple(values) if values else (0.2,)


def _split_config(args: argparse.Namespace) -> SplitConfig | None:
    wants_split = (
        args.split_fraction is not None
        or args.split_seed is not None
        or args.no_stratify
    )
    if args.train is None:
        if wants_split:
            raise ValueError("split options require --train")
        return None
    fraction = 0.7 if args.split_fraction is None else args.split_fraction
    seed = 0 if args.split_seed is None else args.split_seed
    with _config_stage():
        return SplitConfig(fraction, seed, not args.no_stratify)


def _run_config(args: argparse.Namespace) -> RunConfig:
    if args.smoothed != (args.smoothing_seed is not None):
        raise ValueError("--smoothed and --smoothing-seed must be given together")
    with _config_stage():
        measure = MeasureSpec(args.measure.replace("-", "_"), args.k)
    config = RunConfig(
        positive_class=args.positive_class,
        epsilons=_epsilons(args),
        measure=measure,
        mondrian=not args.no_mondrian,
        threshold=args.threshold,
        train_path=args.train,
        calibration_path=args.calibration,
        proper_path=args.proper,
        test_path=args.test,
        split=_split_config(args),
        smoothing_seed=args.smoothing_seed,
    )
    with _config_stage():
        _validate_config(config)
    return config


def _write_output(out: Path | None, chunks: Iterable[bytes]) -> None:
    """Write encoded chunks to `out`, or decode them to stdout, one at a time.

    Each chunk is whole UTF-8 text, so each decodes on its own.
    """
    if out is None:
        sys.stdout.writelines(chunk.decode("utf-8") for chunk in chunks)
    else:
        with open(out, "wb") as handle:
            handle.writelines(chunks)


def _cmd_predict(args: argparse.Namespace) -> int:
    if args.test is None:
        raise ValueError("predict requires --test")
    result = run_pipeline(_run_config(args))
    _write_output(args.out, regions_csv_chunks(result))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.regions_out is not None and args.test is None:
        raise ValueError("--regions-out requires --test")
    result = run_pipeline(_run_config(args))
    if args.test is not None and not result.document["results"]:
        raise ValueError("evaluate requires labels on every --test row")
    _write_output(args.out, [emit_report(result.document, args.format)])
    if args.regions_out is not None:
        _write_output(args.regions_out, regions_csv_chunks(result))
    return 0


def _cmd_simulate_online(args: argparse.Namespace) -> int:
    # On-line validity holds at the one level a run is at.
    epsilons = _epsilons(args)
    if len(epsilons) != 1:
        raise ValueError(f"simulate-online takes one --epsilon or --confidence, got {len(epsilons)}")
    with _config_stage():
        MeasureSpec("knn_ratio", args.k)  # the run's own k rule, checked under its flag
    rounds = simulate_online(args.data, args.positive_class, epsilons[0], args.initial_size, args.k)
    _write_output(args.out, [trajectory_csv(rounds)])
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    dataset = generate_synthetic(
        SyntheticSpec(
            n_per_class=args.n_per_class,
            dim=args.dim,
            separation=args.separation,
            noise=args.noise,
            seed=args.seed,
        )
    )
    write_dataset(dataset, args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    document = parse_report(Path(args.input).read_bytes())
    _write_output(args.out, [emit_report(document, args.format)])
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bincp",
        description="Set-valued binary classification with calibrated error rates.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    predict = commands.add_parser(
        "predict", help="emit per-sample p-values and regions as CSV"
    )
    _add_data_arguments(predict)
    predict.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    predict.set_defaults(handler=_cmd_predict)

    evaluate = commands.add_parser(
        "evaluate", help="run the pipeline and emit an evaluation report"
    )
    _add_data_arguments(evaluate)
    evaluate.add_argument("--format", choices=REPORT_FORMATS, default="text")
    evaluate.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    evaluate.add_argument(
        "--regions-out", type=Path, default=None, help="also write per-sample regions"
    )
    evaluate.set_defaults(handler=_cmd_evaluate)

    simulate = commands.add_parser(
        "simulate-online", help="stream a dataset through the on-line protocol"
    )
    simulate.add_argument("--data", type=Path, required=True, help="feature dataset; first rows seed the bag")
    _add_level_arguments(simulate)
    simulate.add_argument("--initial-size", type=int, default=10)
    simulate.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    simulate.set_defaults(handler=_cmd_simulate_online)

    synth = commands.add_parser("synth", help="generate a synthetic dataset CSV")
    synth.add_argument("--out", type=Path, required=True)
    synth.add_argument("--n-per-class", type=int, required=True)
    synth.add_argument("--dim", type=int, default=2)
    synth.add_argument("--separation", type=float, default=1.0)
    synth.add_argument("--noise", type=float, default=1.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(handler=_cmd_synth)

    report = commands.add_parser(
        "report", help="re-render a saved JSON report in another format"
    )
    report.add_argument("--in", dest="input", type=Path, required=True)
    report.add_argument("--format", choices=REPORT_FORMATS, default="text")
    report.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
