"""Command line entry points.

Exit codes: 0 on success, 1 when inputs or flags fail validation, 2 when a
file cannot be read or written.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Sequence

from .core import SignificanceLevel
from .data import SyntheticSpec, generate_synthetic, write_dataset
from .icp import SplitConfig
from .nonconformity import MEASURE_KINDS, MeasureSpec
from .pipeline import RunConfig, run_pipeline, simulate_online
from .report import (
    REPORT_FORMATS,
    emit_report,
    parse_report,
    regions_csv_chunks,
    trajectory_csv,
)


# The level a run is at when neither --epsilon nor --confidence is given.
_EPSILON = 0.2
# `simulate_online` owns the default of --initial-size.
_INITIAL_SIZE = inspect.signature(simulate_online).parameters["initial_size"].default
# Help that shows a flag's default; argparse expands it when it prints help.
_DEFAULT = "(default: %(default)s)"
# Each measure kind as --measure spells it.
_MEASURES = {kind.replace("_", "-"): kind for kind in MEASURE_KINDS}

# The flag that sets each field the library's messages name.
_FLAGS = {
    "proper_fraction": "--split-fraction", "seed": "--split-seed",
    "train_path": "--train", "calibration_path": "--calibration", "proper_path": "--proper",
    **{field: "--" + field.replace("_", "-") for field in
       "k epsilon threshold smoothing_seed initial_size n_per_class dim separation noise".split()},
}
_CONFIG_NAMES = _FLAGS | {repr(kind): repr(cli) for cli, kind in _MEASURES.items()}


def _name_flags(message: str) -> str:
    """`message` with the flag that sets each field it names in place of the field.

    A `config:` message quotes no input, so each of its words is looked up,
    and a quoted measure kind takes its --measure spelling.  Other messages
    quote ids, class names and paths, which may hold a field's words; there
    only the subject of the last clause, after the last ": ", is looked up.
    """
    if message.startswith("config: "):
        return " ".join(_CONFIG_NAMES.get(word, word) for word in message.split(" "))
    head, colon, clause = message.rpartition(": ")
    subject, space, rest = clause.partition(" ")
    return head + colon + _FLAGS.get(subject, subject) + space + rest


def _config(make, *args):
    """`make(*args)`, failing as the pipeline's `config` stage does."""
    try:
        return make(*args)
    except ValueError as err:
        raise ValueError(f"config: {err}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); validation is exit 1
        raise ValueError(message)


def _add_level_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags `predict`, `evaluate` and `simulate-online` read alike."""
    parser.add_argument(
        "--positive-class", required=True, help="class name mapped to positive"
    )
    parser.add_argument("--k", type=int, default=MeasureSpec.k, help="neighbour count " + _DEFAULT)
    parser.add_argument(
        "--epsilon",
        type=float,
        action="append",
        default=[],
        metavar="E",
        help=f"significance level (default: {_EPSILON}); simulate-online takes one",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        action="append",
        default=[],
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
        choices=_MEASURES,
        default=RunConfig.measure.kind.replace("_", "-"),
        help="score source " + _DEFAULT,
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
        default=RunConfig.threshold,
        help="forced-choice threshold on s_pos " + _DEFAULT,
    )


def _epsilons(args: argparse.Namespace) -> tuple[float, ...]:
    confidences = (SignificanceLevel.from_confidence(c).epsilon for c in args.confidence)
    return (*args.epsilon, *confidences) or (_EPSILON,)


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
    return _config(SplitConfig, fraction, seed, not args.no_stratify)


def _run_config(args: argparse.Namespace) -> RunConfig:
    if args.smoothed != (args.smoothing_seed is not None):
        raise ValueError("--smoothed and --smoothing-seed must be given together")
    measure = _config(MeasureSpec, _MEASURES[args.measure], args.k)
    return RunConfig(
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
    rounds = simulate_online(args.data, args.positive_class, epsilons[0], args.initial_size, args.k)
    _write_output(args.out, [trajectory_csv(rounds)])
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    # Each field of the spec is set by the flag of its name.
    spec = SyntheticSpec(**{f.name: getattr(args, f.name) for f in fields(SyntheticSpec)})
    write_dataset(generate_synthetic(spec), args.out)
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
    simulate.add_argument("--initial-size", type=int, default=_INITIAL_SIZE, help=_DEFAULT)
    simulate.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    simulate.set_defaults(handler=_cmd_simulate_online)

    synth = commands.add_parser("synth", help="generate a synthetic dataset CSV")
    synth.add_argument("--out", type=Path, required=True)
    synth.add_argument("--n-per-class", type=int, required=True)
    synth.add_argument("--dim", type=int, default=SyntheticSpec.dim, help=_DEFAULT)
    synth.add_argument("--separation", type=float, default=SyntheticSpec.separation, help=_DEFAULT)
    synth.add_argument("--noise", type=float, default=SyntheticSpec.noise, help=_DEFAULT)
    synth.add_argument("--seed", type=int, default=SyntheticSpec.seed, help=_DEFAULT)
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
    try:
        args = _build_parser().parse_args(argv)
        try:
            return args.handler(args)
        except ValueError as err:
            # A saved report's messages name its own fields, not flags.
            if args.handler is _cmd_report:
                raise
            raise ValueError(_name_flags(str(err))) from None
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
