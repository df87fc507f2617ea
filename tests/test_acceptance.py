"""End-to-end acceptance checks.

Each test prints one `acceptance criterion N: PASS/FAIL (name)` line; run
with `pytest tests/test_acceptance.py -v -s` to see them live.  Identities
over IEEE fractions are checked to 1e-12 plus exact integer count
reconstruction, since (a + b)/n and a/n + b/n differ in the last ulp.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from bincp.cli import main
from bincp.core import REGIONS, Label, PredictionRegion, SignificanceLevel
from bincp.data import SyntheticSpec, figure1_path, generate_synthetic
from bincp.evaluate import (
    auroc,
    efficiency,
    region_distribution,
    scored_accuracy,
    validity,
)
from bincp.icp import (
    CalibrationTable,
    build_calibration_table,
    p_values,
    predict_set,
    region,
)
from bincp.nonconformity import MeasureSpec, TrainingBag, score_dataset
from bincp.online import run_online


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"acceptance criterion {number}: FAIL ({name})")
        raise
    print(f"acceptance criterion {number}: PASS ({name})")


def code(kind):
    return REGIONS.index(kind)


def mixture(correct_single, false_single, both, empty):
    """Region codes and a positive mask with the requested four-way counts."""
    regions = (
        [code(PredictionRegion.SINGLE_POSITIVE)] * (correct_single + false_single)
        + [code(PredictionRegion.BOTH)] * both
        + [code(PredictionRegion.EMPTY)] * empty
    )
    positive = (
        [True] * correct_single + [False] * false_single + [True] * both + [False] * empty
    )
    return regions, positive


def test_criterion_1_figure1_golden_fixture(capsys, tmp_path):
    with capsys.disabled(), criterion(1, "figure1 golden fixture"):
        out = tmp_path / "report.json"
        start = time.perf_counter()
        code = main(
            [
                "evaluate",
                "--calibration", str(figure1_path()),
                "--positive-class", "B",
                "--threshold", "0.5",
                "--format", "json",
                "--out", str(out),
            ]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        calibration = json.loads(out.read_text(encoding="utf-8"))["calibration"]
        assert abs(calibration["auroc"] - 0.527) <= 0.0005
        assert abs(calibration["accuracy"] - 0.524) <= 0.0005
        assert calibration["n"] == 21
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget is 1s"


def test_criterion_2_validity_arithmetic(capsys):
    with capsys.disabled(), criterion(2, "validity arithmetic"):
        regions, truths = mixture(0, 0, 950, 50)
        assert validity(regions, truths) == 0.95

        all_both, both_truths = mixture(0, 0, 400, 0)
        assert validity(all_both, both_truths) == 1.0
        assert efficiency(all_both) == 0.0

        case2_regions, case2_truths = mixture(18, 5, 25, 2)
        assert validity(case2_regions, case2_truths) == 0.86
        assert scored_accuracy("both_correct", case2_regions, case2_truths) == 0.86
        assert scored_accuracy("both_wrong", case2_regions, case2_truths) == 0.36


def test_criterion_3_decomposition_identities(capsys):
    with capsys.disabled(), criterion(3, "decomposition identities on 1000 random sets"):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 300))
            regions = rng.integers(0, len(REGIONS), size=n)
            truths = rng.random(n) < 0.5
            dist = region_distribution(regions, truths)
            gap = scored_accuracy("both_correct", regions, truths) - scored_accuracy(
                "both_wrong", regions, truths
            )
            assert abs(validity(regions, truths) - dist.validity) <= 1e-12
            assert abs(gap - dist.frac_both) <= 1e-12
            assert abs(efficiency(regions) - dist.efficiency) <= 1e-12
            n_both = sum(1 for r in regions if REGIONS[r] is PredictionRegion.BOTH)
            n_single = sum(1 for r in regions if REGIONS[r].is_singleton)
            assert round(dist.frac_both * n) == n_both
            assert round(efficiency(regions) * n) == n_single


def _random_column(rng, size):
    if rng.random() < 0.5:
        values = rng.normal(size=size)
    else:
        values = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=size)
    return np.sort(values.astype(float))


def _oracle_p(column, score):
    return (sum(1 for c in column if c <= score) + 1) / (len(column) + 1)


def test_criterion_4_pvalue_oracle_and_nestedness(capsys):
    with capsys.disabled(), criterion(4, "p-value oracle match and region nestedness"):
        rng = np.random.default_rng(7)
        grid = [SignificanceLevel(float(e)) for e in np.linspace(0.0, 1.0, 101)]
        for _ in range(120):
            pos = _random_column(rng, int(rng.integers(1, 51)))
            neg = _random_column(rng, int(rng.integers(1, 51)))
            table = CalibrationTable(pos, neg)
            for _ in range(5):
                def draw(column):
                    if rng.random() < 0.3:
                        return float(column[rng.integers(0, len(column))])
                    return float(rng.normal())

                s_pos, s_neg = draw(pos), draw(neg)
                p_pos, p_neg = p_values(table, s_pos, s_neg)
                assert p_pos == _oracle_p(pos, s_pos)
                assert p_neg == _oracle_p(neg, s_neg)

                previous = None
                for eps in grid:
                    current = frozenset(
                        label
                        for label in (Label.POSITIVE, Label.NEGATIVE)
                        if REGIONS[region(p_pos, p_neg, eps)].contains(label)
                    )
                    if previous is not None:
                        assert current <= previous
                    previous = current


def _slice_dataset(data, lo, hi, n_per_class):
    rows = np.r_[lo:hi, n_per_class + lo : n_per_class + hi]
    return data.take(rows)


def _class_error(regions, positive, label):
    is_label = positive == (label is Label.POSITIVE)
    hits = [REGIONS[r].contains(label) for r in regions[is_label]]
    return 1.0 - sum(hits) / len(hits)


def test_criterion_5_mondrian_coverage(capsys):
    with capsys.disabled(), criterion(5, "Mondrian per-class coverage on Gaussians"):
        start = time.perf_counter()
        epsilons = (0.1, 0.2)
        passes = {eps: 0 for eps in epsilons}
        for seed in range(20):
            data = generate_synthetic(
                SyntheticSpec(
                    n_per_class=1750, dim=2, separation=1.0, noise=1.0, seed=seed
                )
            )
            proper = _slice_dataset(data, 0, 250, 1750)
            calibration = _slice_dataset(data, 250, 750, 1750)
            test = _slice_dataset(data, 750, 1750, 1750)

            bag = TrainingBag.from_dataset(proper)
            measure = MeasureSpec("knn_prob", k=25)
            calibration = score_dataset(measure, bag, calibration)
            test = score_dataset(measure, bag, test)
            table = build_calibration_table(calibration, mondrian=True)
            truths = test.positive
            p_pos, p_neg = predict_set(table, test)

            for eps in epsilons:
                regions = region(p_pos, p_neg, SignificanceLevel(eps))
                bound = eps + 3.0 * math.sqrt(eps * (1.0 - eps) / 1000)
                if all(
                    _class_error(regions, truths, label) <= bound
                    for label in (Label.POSITIVE, Label.NEGATIVE)
                ):
                    passes[eps] += 1
        elapsed = time.perf_counter() - start
        assert passes[0.1] >= 19, f"epsilon 0.1 passed only {passes[0.1]}/20 seeds"
        assert passes[0.2] >= 19, f"epsilon 0.2 passed only {passes[0.2]}/20 seeds"
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


def test_criterion_6_online_validity(capsys):
    with capsys.disabled(), criterion(6, "on-line full-CP cumulative validity"):
        start = time.perf_counter()
        finals = []
        for seed in range(20):
            data = generate_synthetic(
                SyntheticSpec(
                    n_per_class=255, dim=2, separation=1.0, noise=1.0, seed=100 + seed
                )
            )
            order = np.random.default_rng(200 + seed).permutation(len(data))
            labels = [Label.POSITIVE if p else Label.NEGATIVE for p in data.positive]
            shuffled = [(tuple(data.features[i]), labels[i]) for i in order]
            initial = TrainingBag.from_pairs(shuffled[:10])
            stream = shuffled[10:]
            rounds = run_online(initial, stream, SignificanceLevel(0.2), k=1)
            assert len(rounds) == 500
            finals.append(rounds[-1].cumulative_error_rate)
        elapsed = time.perf_counter() - start
        bound = 0.2 + 3.0 * math.sqrt(0.16 / 500)
        mean_final = sum(finals) / len(finals)
        assert mean_final <= bound, f"mean final error {mean_final:.4f} > {bound:.4f}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"


def _brute_force_auroc(pos, neg):
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def test_criterion_7_auroc_oracle(capsys):
    with capsys.disabled(), criterion(7, "AUROC equals all-pairs brute force"):
        rng = np.random.default_rng(11)
        cases = [
            ([0.5] * 5, [0.5] * 5),
            ([0.5], [0.5]),
            ([0.9], [0.1]),
            ([0.1], [0.9]),
        ]
        while len(cases) < 500:
            n = int(rng.integers(2, 201))
            n_pos = int(rng.integers(1, n))
            if rng.random() < 0.5:
                values = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            else:
                values = np.round(rng.random(n), 2)
            cases.append(
                (
                    [float(v) for v in values[:n_pos]],
                    [float(v) for v in values[n_pos:]],
                )
            )
        for pos, neg in cases:
            truths = [True] * len(pos) + [False] * len(neg)
            assert auroc(pos + neg, truths) == _brute_force_auroc(pos, neg)


def test_criterion_8_byte_identical_reruns(capsys, tmp_path):
    with capsys.disabled(), criterion(8, "byte-identical reports and trajectories"):
        stream = tmp_path / "stream.csv"
        assert (
            main(
                [
                    "synth",
                    "--out", str(stream),
                    "--n-per-class", "20",
                    "--separation", "1.5",
                    "--seed", "13",
                ]
            )
            == 0
        )

        report_args = [
            "evaluate",
            "--calibration", str(figure1_path()),
            "--test", str(figure1_path()),
            "--positive-class", "B",
            "--epsilon", "0.1",
            "--epsilon", "0.2",
            "--smoothed",
            "--smoothing-seed", "21",
            "--format", "json",
        ]
        reports = []
        regions = []
        for tag in ("a", "b"):
            report_path = tmp_path / f"report_{tag}.json"
            regions_path = tmp_path / f"regions_{tag}.csv"
            code = main(
                report_args
                + ["--out", str(report_path), "--regions-out", str(regions_path)]
            )
            assert code == 0
            reports.append(report_path.read_bytes())
            regions.append(regions_path.read_bytes())
        assert reports[0] == reports[1]
        assert regions[0] == regions[1]

        trajectories = []
        for tag in ("a", "b"):
            out = tmp_path / f"trajectory_{tag}.csv"
            code = main(
                [
                    "simulate-online",
                    "--data", str(stream),
                    "--positive-class", "positive",
                    "--initial-size", "6",
                    "--epsilon", "0.15",
                    "--out", str(out),
                ]
            )
            assert code == 0
            trajectories.append(out.read_bytes())
        assert trajectories[0] == trajectories[1]
