"""The four benchmark workloads: seeded inputs, the program call, output oracles.

Each workload exists to load one part of bincp and leave the others nearly
idle, so a change to one module moves one workload and not the rest:

- ``scored_batch``: ``bincp evaluate`` on 40,000 + 40,000 ingested vote
  fractions.  The work sits in ``data``, ``icp``, ``evaluate`` and the
  ``pipeline`` writers; passthrough scoring costs almost nothing.
- ``knn_prob``: ``bincp evaluate --measure knn-prob`` on 8,000 generated
  rows with d=10.  ``nonconformity.score_dataset`` and its full stable
  argsort do nearly all of the work.
- ``knn_ratio``: ``bincp predict --measure knn-ratio`` on the same files,
  pooled and smoothed.  Same layer, other branch (per-class sorts and the
  ratio), plus the pooled table, smoothed p-values and ``predict``.
- ``online_stream``: ``bincp.run_online`` with a bag of 1,000 and a stream of
  2,000 rounds.  All work is in ``online`` and its per-point helpers.

The program only ever sees the generated files (batch) or the stream
(on-line).  Every check here is an oracle written independently of the
program's code path, never stored output bytes, so a later change that fixes
a defect in, say, smoothed p-values is not counted as a failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("scored_batch", "knn_prob", "knn_ratio", "online_stream")

POSITIVE = "positive"
NEGATIVE = "negative"
KNN_K = 5
SPLIT_FRACTION = 0.7
SPLIT_SEED = 0
SMOOTHING_SEED = 7
SCORED_EPSILONS = (0.05, 0.1, 0.2)
KNN_EPSILON = 0.1
ONLINE_EPSILON = 0.1
TREES = 100
# Relative slack on a recomputed nonconformity score before it is allowed to
# change a rank; far below the gap between any two generated scores.
SCORE_RTOL = 1e-9
P_ATOL = 1e-12
# The final on-line error may exceed epsilon by this binomial tail level.
ONLINE_TAIL = 1e-6
ONLINE_CHECKED_ROUNDS = 6


@dataclass(frozen=True)
class Sizes:
    scored_calibration: int = 40_000
    scored_test: int = 40_000
    knn_train_per_class: int = 4_000
    knn_test_per_class: int = 500
    knn_dim: int = 10
    online_initial: int = 1_000
    online_stream: int = 2_000


FULL = Sizes()
TINY = Sizes(400, 400, 100, 20, 10, 40, 60)


def sub_seed(seed: int, tag: int) -> int:
    """An independent 32-bit seed for one input of a workload."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


@dataclass
class Prepared:
    """What the worker needs (``spec``) and what the checks compare against."""

    name: str
    spec: dict
    oracle: dict
    test_rows: int


# ---------------------------------------------------------------- inputs


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_scored(path: Path, n: int, rng: np.random.Generator, prefix: str) -> dict:
    """Balanced rows whose s_pos is the vote fraction of a 100-tree forest.

    Each row's per-tree vote probability is Beta(3, 2) for positives and
    Beta(2, 3) for negatives, so scores overlap and take only 101 values.
    """
    is_pos = np.zeros(n, dtype=bool)
    is_pos[: n // 2] = True
    rng.shuffle(is_pos)
    q = np.where(is_pos, rng.beta(3.0, 2.0, n), rng.beta(2.0, 3.0, n))
    votes = rng.binomial(TREES, q)
    ids = [f"{prefix}{i:06d}" for i in range(n)]
    _write_csv(
        path,
        ["id", "label", "s_pos", "s_neg"],
        (
            (ids[i], POSITIVE if is_pos[i] else NEGATIVE,
             repr(int(v) / TREES), repr((TREES - int(v)) / TREES))
            for i, v in enumerate(votes)
        ),
    )
    return {"ids": ids, "is_pos": is_pos, "votes": votes}


def write_features(path: Path, n_per_class: int, dim: int, seed: int) -> dict:
    """``generate_synthetic`` rows shuffled with the seed, written by ``write_dataset``.

    The generator emits every negative before every positive, so the rows are
    shuffled; otherwise a split or a stream would see one class at a time.
    """
    from bincp.core import Dataset, Label
    from bincp.data import SyntheticSpec, generate_synthetic, write_dataset

    data = generate_synthetic(
        SyntheticSpec(n_per_class=n_per_class, dim=dim, separation=1.0, seed=seed)
    )
    order = np.random.default_rng([seed, 1]).permutation(len(data))
    samples = tuple(data.samples[i] for i in order)
    write_dataset(Dataset(samples, dim), path)
    return {
        "ids": [s.id for s in samples],
        "is_pos": np.array([s.true_label is Label.POSITIVE for s in samples]),
        "points": np.array([s.features for s in samples], dtype=float),
    }


# --------------------------------------------------------------- oracles


def _direct_distances(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    return np.sqrt(((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))


def _blocks(n: int, points: np.ndarray):
    step = max(1, (1 << 21) // max(points.size, 1))
    for start in range(0, n, step):
        yield slice(start, min(n, start + step))


def knn_positive_counts(queries, points, is_pos, k) -> np.ndarray:
    """Positives among the k nearest points, distance ties going to the lower index.

    Written without a sort: everything strictly closer than the k-th distance
    is taken, then the lowest-indexed points at exactly that distance.
    """
    counts = np.empty(len(queries), dtype=np.int64)
    for rows in _blocks(len(queries), points):
        d = _direct_distances(queries[rows], points)
        kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k]
        closer = d < kth
        at_kth = d == kth
        need = k - closer.sum(axis=1, keepdims=True)
        taken = closer | (at_kth & (np.cumsum(at_kth, axis=1) <= need))
        counts[rows] = (taken & is_pos[None, :]).sum(axis=1)
    return counts


def _mean_k_smallest(d: np.ndarray, k: int) -> np.ndarray:
    """Per row, the mean of the up-to-k smallest finite values; inf if none."""
    kk = min(k, d.shape[1])
    if kk == 0:
        return np.full(d.shape[0], np.inf)
    smallest = np.sort(np.partition(d, kk - 1, axis=1)[:, :kk], axis=1)
    finite = np.isfinite(smallest)
    counts = finite.sum(axis=1)
    sums = np.where(finite, smallest, 0.0).sum(axis=1)
    return np.where(counts == 0, np.inf, sums / np.maximum(counts, 1))


def distance_ratio(d_same: np.ndarray, d_diff: np.ndarray) -> np.ndarray:
    """d_same / d_diff with the package's documented limits for 0 and inf."""
    d_same = np.asarray(d_same, dtype=float)
    d_diff = np.asarray(d_diff, dtype=float)
    out = np.empty(np.broadcast(d_same, d_diff).shape)
    for i, (a, b) in enumerate(zip(d_same.ravel(), d_diff.ravel())):
        if (a == 0.0 and b == 0.0) or (math.isinf(a) and math.isinf(b)):
            out.flat[i] = 1.0
        elif b == 0.0 or math.isinf(a):
            out.flat[i] = math.inf
        elif a == 0.0 or math.isinf(b):
            out.flat[i] = 0.0
        else:
            out.flat[i] = a / b
    return out


def knn_ratio_scores(queries, points, is_pos, k) -> tuple[np.ndarray, np.ndarray]:
    """Conformity (s_pos, s_neg): minus the distance ratio under each hypothesis."""
    mean_pos = np.empty(len(queries))
    mean_neg = np.empty(len(queries))
    for rows in _blocks(len(queries), points):
        d = _direct_distances(queries[rows], points)
        mean_pos[rows] = _mean_k_smallest(d[:, is_pos], k)
        mean_neg[rows] = _mean_k_smallest(d[:, ~is_pos], k)
    return -distance_ratio(mean_pos, mean_neg), -distance_ratio(mean_neg, mean_pos)


def stratified_split(is_pos: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Mask of proper-training rows, as ``split_dataset`` documents its split.

    Per class, negatives first, one shared PCG64 permutes the class's rows and
    the first round(fraction * n) go to proper training.
    """
    rng = np.random.default_rng(seed)
    proper = np.zeros(len(is_pos), dtype=bool)
    for label in (False, True):
        members = np.flatnonzero(is_pos == label)
        perm = rng.permutation(len(members))
        take = int(math.floor(fraction * len(members) + 0.5))
        proper[members[perm[:take]]] = True
    return proper


def rank_p_values(cal_counts, test_counts, top) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic p-values when scores are integer counts in [0, top].

    Positive scores rise with the count and negative ones fall, so a
    calibration negative conforms no better than the test row exactly when
    its count is at least the test row's count.
    """
    pos, neg = cal_counts
    at_most_pos = np.cumsum(np.bincount(pos, minlength=top + 1))
    at_least_neg = np.cumsum(np.bincount(neg, minlength=top + 1)[::-1])[::-1]
    p_pos = (at_most_pos[test_counts] + 1) / (len(pos) + 1)
    p_neg = (at_least_neg[test_counts] + 1) / (len(neg) + 1)
    return p_pos, p_neg


def region_names(p_pos, p_neg, eps: float) -> np.ndarray:
    keep_pos = np.asarray(p_pos) > eps
    keep_neg = np.asarray(p_neg) > eps
    return np.select(
        [keep_pos & keep_neg, keep_pos, keep_neg],
        ["both", POSITIVE, NEGATIVE],
        default="empty",
    )


def loo_p_values(points, is_pos, x, k: int) -> tuple[float, float]:
    """On-line (p_pos, p_neg) by brute force: rescore every member of the augmented bag.

    Under each hypothesis, each member's ratio uses its k nearest same-label
    and other-label members, itself left out; the p-value is the share of
    members at least as strange as the candidate, the candidate included.
    """
    pts = np.vstack([points, x[None, :]])
    n = len(pts)
    labels = [np.append(is_pos, hyp_pos) for hyp_pos in (True, False)]
    mean_same = np.empty((2, n))
    mean_diff = np.empty((2, n))
    for rows in _blocks(n, pts):
        d = _direct_distances(pts[rows], pts)
        idx = np.arange(rows.start, rows.stop)
        d[idx - rows.start, idx] = np.inf
        for h, lab in enumerate(labels):
            same = lab[idx][:, None] == lab[None, :]
            mean_same[h, rows] = _mean_k_smallest(np.where(same, d, np.inf), k)
            mean_diff[h, rows] = _mean_k_smallest(np.where(same, np.inf, d), k)
    p_pos, p_neg = (
        float((alpha[:-1] >= alpha[-1]).sum() + 1) / n
        for alpha in (distance_ratio(mean_same[h], mean_diff[h]) for h in range(2))
    )
    return p_pos, p_neg


def binomial_upper(n: int, p: float, tail: float) -> int:
    """Smallest m with P(Binomial(n, p) > m) <= tail."""
    log_p, log_q = math.log(p), math.log1p(-p)
    above = 1.0
    for m in range(n + 1):
        log_pm = (
            math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
            + m * log_p + (n - m) * log_q
        )
        above -= math.exp(log_pm)
        if above <= tail:
            return m
    return n


# ---------------------------------------------------------------- output parsing


def parse_regions(data: bytes) -> dict[float, dict]:
    """Regions CSV grouped by epsilon, in file order."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    header = next(reader)
    col = {name: header.index(name) for name in
           ("epsilon", "id", "true_label", "p_pos", "p_neg", "region")}
    groups: dict[float, dict] = {}
    for row in reader:
        group = groups.setdefault(float(row[col["epsilon"]]), {
            "id": [], "true_label": [], "p_pos": [], "p_neg": [], "region": []})
        for name in ("id", "true_label", "region"):
            group[name].append(row[col[name]])
        group["p_pos"].append(float(row[col["p_pos"]]))
        group["p_neg"].append(float(row[col["p_neg"]]))
    for group in groups.values():
        for name in ("p_pos", "p_neg"):
            group[name] = np.array(group[name])
        for name in ("id", "true_label", "region"):
            group[name] = np.array(group[name], dtype=object)
    return groups


def _first_mismatch(label: str, got, want) -> list[str]:
    bad = np.flatnonzero(np.asarray(got) != np.asarray(want))
    if bad.size:
        i = int(bad[0])
        return [f"{label}: {bad.size} rows differ, first at row {i}: "
                f"{got[i]!r} != {want[i]!r}"]
    return []


def _check_region_rows(data: bytes, oracle: dict, check_group) -> list[str]:
    """Parse a regions CSV, check its epsilons, ids and labels, then each group."""
    try:
        groups = parse_regions(data)
    except (ValueError, StopIteration, IndexError) as err:
        return [f"regions csv unreadable: {err}"]
    if sorted(groups) != sorted(oracle["epsilons"]):
        return [f"regions csv epsilons {sorted(groups)} != {sorted(oracle['epsilons'])}"]
    truth = np.where(oracle["is_pos"], POSITIVE, NEGATIVE)
    problems = []
    for eps in oracle["epsilons"]:
        g = groups[eps]
        if len(g["id"]) != len(oracle["ids"]):
            problems.append(f"eps={eps}: {len(g['id'])} rows, want {len(oracle['ids'])}")
            continue
        problems += _first_mismatch(f"eps={eps} id", g["id"], oracle["ids"])
        problems += _first_mismatch(f"eps={eps} true_label", g["true_label"], truth)
        problems += check_group(eps, g)
    return problems


def check_regions_exact(data: bytes, oracle: dict) -> list[str]:
    """Every p_pos, p_neg and region equals the oracle's, for every epsilon."""
    def check_group(eps, g):
        problems = []
        for name in ("p_pos", "p_neg"):
            close = np.isclose(g[name], oracle[name], rtol=P_ATOL, atol=0.0)
            problems += _first_mismatch(f"eps={eps} {name}",
                                        np.where(close, 0, g[name]),
                                        np.where(close, 0, oracle[name]))
        return problems + _first_mismatch(
            f"eps={eps} region", g["region"],
            region_names(oracle["p_pos"], oracle["p_neg"], eps))

    return _check_region_rows(data, oracle, check_group)


def check_report(data: bytes, oracle: dict) -> list[str]:
    """Validity, efficiency and region distribution equal the oracle's counts."""
    try:
        document = json.loads(data.decode("utf-8"))
        results = {float(r["epsilon"]): r for r in document["results"]}
    except (ValueError, KeyError, TypeError) as err:
        return [f"report unreadable: {err}"]
    problems = []
    if sorted(results) != sorted(oracle["epsilons"]):
        return [f"report epsilons {sorted(results)} != {sorted(oracle['epsilons'])}"]
    is_pos = oracle["is_pos"]
    n = len(is_pos)
    for eps in oracle["epsilons"]:
        regions = region_names(oracle["p_pos"], oracle["p_neg"], eps)
        single = (regions == POSITIVE) | (regions == NEGATIVE)
        correct = single & ((regions == POSITIVE) == is_pos)
        both = regions == "both"
        want = {
            "n": n,
            "validity": (correct.sum() + both.sum()) / n,
            "efficiency": single.sum() / n,
            "distribution.correct_single": correct.sum() / n,
            "distribution.false_single": (single & ~correct).sum() / n,
            "distribution.both": both.sum() / n,
            "distribution.empty": (regions == "empty").sum() / n,
        }
        row = results[eps]
        for key, value in want.items():
            got = row
            for part in key.split("."):
                got = got.get(part) if isinstance(got, dict) else None
            if not isinstance(got, (int, float)) or abs(got - value) > P_ATOL:
                problems.append(f"report eps={eps} {key}: {got!r} != {value!r}")
    return problems


def check_regions_smoothed(data: bytes, oracle: dict) -> list[str]:
    """Smoothed p-values sit inside their tie bounds; regions follow p and epsilon."""
    def check_group(eps, g):
        problems = []
        for name in ("p_pos", "p_neg"):
            lo, hi = oracle[name + "_bounds"]
            inside = (g[name] > lo - P_ATOL) & (g[name] <= hi + P_ATOL)
            problems += _first_mismatch(
                f"eps={eps} {name} outside tie bounds",
                np.where(inside, 0.0, g[name]), np.where(inside, 0.0, (lo + hi) / 2))
        return problems + _first_mismatch(
            f"eps={eps} region vs own p-values", g["region"],
            region_names(g["p_pos"], g["p_neg"], eps))

    return _check_region_rows(data, oracle, check_group)


def smoothed_bounds(table: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Range a tie-smoothed p-value can take: (below/(n+1), (at_most+1)/(n+1)]."""
    table = np.sort(table)
    finite = np.isfinite(scores)
    slack = np.where(finite, SCORE_RTOL * np.abs(np.where(finite, scores, 0.0)), 0.0)
    below = np.searchsorted(table, scores - slack, side="left")
    at_most = np.searchsorted(table, scores + slack, side="right")
    n = len(table)
    return below / (n + 1), (at_most + 1) / (n + 1)


def check_online(data: bytes, oracle: dict) -> list[str]:
    """Labels follow the stream, cumulative error adds up and stays near epsilon,
    and a handful of rounds match the leave-one-out oracle."""
    try:
        out = json.loads(data.decode("utf-8"))
        regions = np.array(out["regions"], dtype=object)
        truths = np.array(out["true_labels"], dtype=object)
        cumulative = np.array(out["cumulative_error_rate"], dtype=float)
    except (ValueError, KeyError, TypeError) as err:
        return [f"trajectory unreadable: {err}"]
    n = len(oracle["is_pos"])
    if not (len(regions) == len(truths) == len(cumulative) == n):
        return [f"trajectory has {len(regions)} rounds, want {n}"]
    truth = np.where(oracle["is_pos"], POSITIVE, NEGATIVE)
    problems = _first_mismatch("true_label", truths, truth)
    missed = ~((regions == "both") | (regions == truth))
    want = np.cumsum(missed) / np.arange(1, n + 1)
    close = np.isclose(cumulative, want, rtol=P_ATOL, atol=0.0)
    problems += _first_mismatch("cumulative_error_rate", np.where(close, 0, cumulative),
                                np.where(close, 0, want))
    if cumulative[-1] > oracle["max_errors"] / n:
        problems.append(
            f"final error rate {cumulative[-1]} above {oracle['max_errors']}/{n}")
    for index, region in oracle["checked"].items():
        if regions[index] != region:
            problems.append(f"round {index + 1}: region {regions[index]!r}, "
                            f"leave-one-out oracle gives {region!r}")
    return problems


# ----------------------------------------------------------------- workloads


def _batch_spec(argv: list[str], outputs: dict[str, Path]) -> dict:
    return {"kind": "batch", "argv": argv,
            "outputs": {name: str(path) for name, path in outputs.items()}}


def prepare(name: str, seed: int, workdir: Path, sizes: Sizes = FULL) -> Prepared:
    """Write the workload's inputs under ``workdir`` and compute its oracle."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _PREPARERS[name](seed, workdir, sizes)


def _prepare_scored(seed: int, workdir: Path, sizes: Sizes) -> Prepared:
    rng = np.random.default_rng(sub_seed(seed, 1))
    cal = write_scored(workdir / "calibration.csv", sizes.scored_calibration, rng, "c")
    test = write_scored(workdir / "test.csv", sizes.scored_test, rng, "t")
    report, regions = workdir / "report.json", workdir / "regions.csv"
    argv = ["evaluate", "--calibration", str(workdir / "calibration.csv"),
            "--test", str(workdir / "test.csv"), "--positive-class", POSITIVE]
    for eps in SCORED_EPSILONS:
        argv += ["--epsilon", repr(eps)]
    argv += ["--format", "json", "--out", str(report), "--regions-out", str(regions)]
    p_pos, p_neg = rank_p_values(
        (cal["votes"][cal["is_pos"]], cal["votes"][~cal["is_pos"]]), test["votes"], TREES)
    oracle = {"ids": test["ids"], "is_pos": test["is_pos"], "p_pos": p_pos,
              "p_neg": p_neg, "epsilons": SCORED_EPSILONS}
    return Prepared("scored_batch", _batch_spec(argv, {"report": report, "regions": regions}),
                    oracle, sizes.scored_test)


def _knn_inputs(seed: int, workdir: Path, sizes: Sizes):
    train = write_features(workdir / "train.csv", sizes.knn_train_per_class,
                           sizes.knn_dim, sub_seed(seed, 2))
    test = write_features(workdir / "test.csv", sizes.knn_test_per_class,
                          sizes.knn_dim, sub_seed(seed, 3))
    proper = stratified_split(train["is_pos"], SPLIT_FRACTION, SPLIT_SEED)
    return train, test, proper


def _knn_argv(workdir: Path, measure: str) -> list[str]:
    return ["--train", str(workdir / "train.csv"), "--test", str(workdir / "test.csv"),
            "--positive-class", POSITIVE, "--measure", measure, "--k", str(KNN_K),
            "--split-fraction", repr(SPLIT_FRACTION), "--split-seed", str(SPLIT_SEED)]


def _prepare_knn_prob(seed: int, workdir: Path, sizes: Sizes) -> Prepared:
    train, test, proper = _knn_inputs(seed, workdir, sizes)
    bag, bag_pos = train["points"][proper], train["is_pos"][proper]
    cal_pos = train["is_pos"][~proper]
    cal_counts = knn_positive_counts(train["points"][~proper], bag, bag_pos, KNN_K)
    test_counts = knn_positive_counts(test["points"], bag, bag_pos, KNN_K)
    p_pos, p_neg = rank_p_values(
        (cal_counts[cal_pos], cal_counts[~cal_pos]), test_counts, KNN_K)
    report, regions = workdir / "report.json", workdir / "regions.csv"
    argv = (["evaluate"] + _knn_argv(workdir, "knn-prob")
            + ["--epsilon", repr(KNN_EPSILON), "--format", "json",
               "--out", str(report), "--regions-out", str(regions)])
    oracle = {"ids": test["ids"], "is_pos": test["is_pos"], "p_pos": p_pos,
              "p_neg": p_neg, "epsilons": (KNN_EPSILON,)}
    return Prepared("knn_prob", _batch_spec(argv, {"report": report, "regions": regions}),
                    oracle, len(test["ids"]))


def _prepare_knn_ratio(seed: int, workdir: Path, sizes: Sizes) -> Prepared:
    train, test, proper = _knn_inputs(seed, workdir, sizes)
    bag, bag_pos = train["points"][proper], train["is_pos"][proper]
    cal_pos = train["is_pos"][~proper]
    cal_s_pos, cal_s_neg = knn_ratio_scores(train["points"][~proper], bag, bag_pos, KNN_K)
    table = np.where(cal_pos, cal_s_pos, cal_s_neg)  # pooled: own label's score
    s_pos, s_neg = knn_ratio_scores(test["points"], bag, bag_pos, KNN_K)
    regions = workdir / "regions.csv"
    argv = (["predict"] + _knn_argv(workdir, "knn-ratio")
            + ["--no-mondrian", "--smoothed", "--smoothing-seed", str(SMOOTHING_SEED),
               "--epsilon", repr(KNN_EPSILON), "--out", str(regions)])
    oracle = {"ids": test["ids"], "is_pos": test["is_pos"], "epsilons": (KNN_EPSILON,),
              "p_pos_bounds": smoothed_bounds(table, s_pos),
              "p_neg_bounds": smoothed_bounds(table, s_neg)}
    return Prepared("knn_ratio", _batch_spec(argv, {"regions": regions}),
                    oracle, len(test["ids"]))


def checked_rounds(n: int) -> list[int]:
    """Zero-based stream positions spread from the first round to the last."""
    return sorted({int(round(i * (n - 1) / (ONLINE_CHECKED_ROUNDS - 1)))
                   for i in range(ONLINE_CHECKED_ROUNDS)})


def _prepare_online(seed: int, workdir: Path, sizes: Sizes) -> Prepared:
    from bincp.data import SyntheticSpec, generate_synthetic
    from bincp.core import Label

    total = sizes.online_initial + sizes.online_stream
    data = generate_synthetic(SyntheticSpec(
        n_per_class=(total + 1) // 2, dim=2, separation=1.0, seed=sub_seed(seed, 4)))
    order = np.random.default_rng(sub_seed(seed, 5)).permutation(len(data))[:total]
    points = np.array([data.samples[i].features for i in order], dtype=float)
    is_pos = np.array([data.samples[i].true_label is Label.POSITIVE for i in order])
    inputs = workdir / "online.npz"
    np.savez(inputs, points=points, is_pos=is_pos)
    m = sizes.online_initial
    stream_pos = is_pos[m:]
    checked = {}
    for index in checked_rounds(sizes.online_stream):
        bag, bag_pos = points[: m + index], is_pos[: m + index]
        x = points[m + index]
        p_pos, p_neg = loo_p_values(bag, bag_pos, x, KNN_K)
        checked[index] = str(region_names(p_pos, p_neg, ONLINE_EPSILON)[()])
    trajectory = workdir / "trajectory.json"
    spec = {"kind": "online", "inputs": str(inputs), "initial": m, "k": KNN_K,
            "epsilon": ONLINE_EPSILON, "outputs": {"trajectory": str(trajectory)}}
    oracle = {"is_pos": stream_pos, "checked": checked,
              "max_errors": binomial_upper(len(stream_pos), ONLINE_EPSILON, ONLINE_TAIL)}
    return Prepared("online_stream", spec, oracle, sizes.online_stream)


_PREPARERS = {
    "scored_batch": _prepare_scored,
    "knn_prob": _prepare_knn_prob,
    "knn_ratio": _prepare_knn_ratio,
    "online_stream": _prepare_online,
}


def check(prepared: Prepared, outputs: dict[str, bytes]) -> list[str]:
    """Problems found in one iteration's outputs; empty when they are correct."""
    oracle = prepared.oracle
    if prepared.name == "online_stream":
        return check_online(outputs["trajectory"], oracle)
    if prepared.name == "knn_ratio":
        return check_regions_smoothed(outputs["regions"], oracle)
    return check_regions_exact(outputs["regions"], oracle) + check_report(
        outputs["report"], oracle)
