"""Acceptance gate: ten end-to-end criteria over the assembled package.

Each test prints exactly one `[criterion NN] PASS/FAIL` line with the
measured quantities. Run `python3 -m pytest tests/test_acceptance.py -s -v`
to see the lines inline (plain runs keep them in captured stdout).
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from sfda2.adapt import AdaptConfig, adapt, evaluate, metrics_from_confusion, pretrain_source
from sfda2.data import default_shift_spec, gen_synthetic, save_checkpoint
from sfda2.losses import decay_factor, ifa_loss, lambda_schedule
from sfda2.verify import (
    verify_gradients,
    verify_ifa_bound,
    verify_oracles,
    verify_snc_factorization,
)


def _criterion(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


# ----------------------------------------------------------- shared runs


@pytest.fixture(scope="module")
def bound_run():
    start = time.perf_counter()
    report = verify_ifa_bound(trials=100, seed=7)
    control = verify_ifa_bound(trials=100, seed=7, negative_control=True)
    return report, control, time.perf_counter() - start


@pytest.fixture(scope="module")
def gradients_run():
    start = time.perf_counter()
    report = verify_gradients(seed=0, n_instances=20)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracles_run():
    start = time.perf_counter()
    report = verify_oracles(seed=0)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def factorization_run():
    start = time.perf_counter()
    report = verify_snc_factorization(trials=10, seed=0)
    return report, time.perf_counter() - start


PRETRAIN_EPOCHS = 15
PRETRAIN_LR = 0.1
ADAPT_SETTINGS = dict(lr=0.0075, momentum=0.0, epochs=25)


def _toy_pipeline(seed: int):
    """Pretrain on the benchmark source, adapt with the full objective and
    the neighborhood-only ablation; returns target accuracies and models."""
    source, target = gen_synthetic(default_shift_spec(), seed)
    model = pretrain_source(AdaptConfig(seed=seed, epochs=PRETRAIN_EPOCHS, lr=PRETRAIN_LR), source)
    source_acc = evaluate(model, target).accuracy
    config = AdaptConfig(seed=seed, **ADAPT_SETTINGS)
    full_model, _ = adapt(config, model, target.unlabeled())
    snc_model, _ = adapt(replace(config, alpha1=0.0, alpha2=0.0), model, target.unlabeled())
    return {
        "source_acc": source_acc,
        "full_acc": evaluate(full_model, target).accuracy,
        "snc_acc": evaluate(snc_model, target).accuracy,
        "full_model": full_model,
    }


@pytest.fixture(scope="module")
def adaptation_run():
    start = time.perf_counter()
    runs = {seed: _toy_pipeline(seed) for seed in range(10)}
    return runs, time.perf_counter() - start


# ------------------------------------------------------------- criteria


def test_criterion_01_alignment_bound(bound_run):
    report, control, elapsed = bound_run
    ok = (
        report.trials == 100
        and report.passed
        and report.worst is not None
        and report.worst >= 0.0
        and len(control.failures) >= 1
        and elapsed < 180.0
    )
    _criterion(
        1,
        ok,
        f"{report.trials - len(report.failures)}/100 trials hold the bound "
        f"(worst slack {report.worst:+.4f}); sign-flipped control fails "
        f"{len(control.failures)}/100 (worst {control.worst:+.4f}); "
        f"{elapsed:.1f}s < 180s",
    )


def test_criterion_02_gradient_correctness(gradients_run):
    report, elapsed = gradients_run
    per_check = report.details["max_error_per_check"]
    ok = (
        report.passed
        and report.trials == 20
        and all(err < 1e-4 for err in per_check.values())
        and elapsed < 60.0
    )
    summary = ", ".join(f"{name} {err:.2e}" for name, err in per_check.items())
    _criterion(
        2,
        ok,
        f"max relative error per loss term: {summary} (tolerance 1e-4) "
        f"over 20 instances; {elapsed:.1f}s < 60s",
    )


def test_criterion_03_streaming_covariance(oracles_run):
    report, elapsed = oracles_run
    stats_failures = [f for f in report.failures if f.get("part") == "class-stats"]
    worst = report.details["stats_max_error"]
    ok = not stats_failures and worst < 1e-9 and elapsed < 30.0
    _criterion(
        3,
        ok,
        f"streaming vs two-pass class statistics: max entry error {worst:.2e} "
        f"over 10 streams of 1000 samples (10 classes, d=8, size-1 batches "
        f"included); {elapsed:.1f}s < 30s",
    )


def test_criterion_04_knn_exactness(oracles_run):
    report, elapsed = oracles_run
    knn_failures = [f for f in report.failures if f.get("part") == "knn"]
    mismatches = report.details["knn_mismatches"]
    ok = not knn_failures and mismatches == 0 and elapsed < 10.0
    _criterion(
        4,
        ok,
        f"neighbor search vs exhaustive scan: {mismatches} mismatches over "
        f"500 points (d=16), 50 queries, K in {{1, 5, 10}}; {elapsed:.1f}s < 10s",
    )


def test_criterion_05_factorization_identity(factorization_run):
    report, elapsed = factorization_run
    ok = report.passed and report.trials == 10 and report.worst <= 1e-8
    _criterion(
        5,
        ok,
        f"full-batch neighborhood loss vs factorization objective: worst "
        f"absolute gap {report.worst:.2e} <= 1e-8 over 10 random k-NN graphs "
        f"(n=30, K=3) through the batch kernel; {elapsed:.1f}s",
    )


def test_criterion_06_schedule_spot_values():
    terminal = 11.0**-5
    rel_errors = []
    start_ok = True
    lam_ok = True
    for max_iter in (1, 7, 100, 12345):
        start_ok &= decay_factor(0, max_iter, 5.0) == 1.0
        rel_errors.append(abs(decay_factor(max_iter, max_iter, 5.0) - terminal) / terminal)
        lam_ok &= lambda_schedule(max_iter, max_iter, 5.0) == 5.0
    worst_rel = max(rel_errors)
    ok = start_ok and lam_ok and worst_rel <= 1e-15
    _criterion(
        6,
        ok,
        f"decay(0)=1 exactly; decay(max) vs 11^-5 relative error {worst_rel:.2e} "
        f"<= 1e-15; terminal augmentation scale equals 5.0 exactly",
    )


def test_criterion_07_alignment_spot_values():
    # zero-scale case must reduce to -2 * sum_c log softmax(logits)_c
    rng = np.random.default_rng(17)
    worst_rel = 0.0
    for _ in range(5):
        d, c = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        z = rng.standard_normal(d)
        w = rng.standard_normal((c, d))
        b = rng.standard_normal(c)
        a = rng.standard_normal((d, d))
        value = ifa_loss(z, a @ a.T, w, b, 0.0)[0]
        logits = w @ z + b
        lse = math.log(np.exp(logits - logits.max()).sum()) + logits.max()
        expected = -2.0 * float((logits - lse).sum())
        worst_rel = max(worst_rel, abs(value - expected) / abs(expected))

    # two zero logits: each class term is -2*(0 - log 2)
    uniform = ifa_loss(np.zeros(2), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), 0.0)[0]
    uniform_rel = abs(uniform - 4.0 * math.log(2.0)) / (4.0 * math.log(2.0))

    # antipodal rows [1,0] and [-1,0], identity covariance, unit scale:
    # logits are [0,0], the cross-class weight gap w_c' - w_c has squared
    # norm 4, so each of the two class terms is -2*(0 - log(1 + e^2))
    hand = ifa_loss(
        np.zeros(2), np.eye(2), np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2), 1.0
    )[0]
    hand_expected = 4.0 * math.log(1.0 + math.e**2)
    hand_rel = abs(hand - hand_expected) / hand_expected

    ok = worst_rel <= 1e-12 and uniform_rel <= 1e-12 and hand_rel <= 1e-12
    _criterion(
        7,
        ok,
        f"zero-scale closed form matches doubled log-softmax sum (worst rel "
        f"{worst_rel:.2e}); uniform two-class value 4*log2 (rel {uniform_rel:.2e}); "
        f"antipodal hand instance 4*log(1+e^2)={hand_expected:.5f} "
        f"(rel {hand_rel:.2e}); all <= 1e-12",
    )


def test_criterion_08_toy_adaptation(adaptation_run):
    runs, elapsed = adaptation_run
    full_wins = sum(1 for r in runs.values() if r["full_acc"] > r["source_acc"])
    snc_wins = sum(1 for r in runs.values() if r["snc_acc"] > r["source_acc"])
    ok = full_wins >= 8 and snc_wins >= 7 and elapsed < 300.0
    _criterion(
        8,
        ok,
        f"rotated-mixture transfer: full objective beats the frozen source "
        f"model on {full_wins}/10 seeds (need >= 8), neighborhood-only "
        f"ablation on {snc_wins}/10 (need >= 7); {elapsed:.1f}s < 300s",
    )


def test_criterion_09_determinism(
    tmp_path, bound_run, gradients_run, oracles_run, factorization_run, adaptation_run
):
    report_pairs = [
        ("bound", bound_run[0], verify_ifa_bound(trials=100, seed=7)),
        ("gradients", gradients_run[0], verify_gradients(seed=0, n_instances=20)),
        ("oracles", oracles_run[0], verify_oracles(seed=0)),
        (
            "factorization",
            factorization_run[0],
            verify_snc_factorization(trials=10, seed=0),
        ),
    ]
    stable_reports = [name for name, first, second in report_pairs if first.to_json() == second.to_json()]

    first_model = adaptation_run[0][0]["full_model"]
    second_model = _toy_pipeline(0)["full_model"]
    path_a = str(tmp_path / "a.ckpt")
    path_b = str(tmp_path / "b.ckpt")
    save_checkpoint(first_model, path_a)
    save_checkpoint(second_model, path_b)
    with open(path_a, "rb") as fh:
        bytes_a = fh.read()
    with open(path_b, "rb") as fh:
        bytes_b = fh.read()
    checkpoint_stable = bytes_a == bytes_b

    ok = len(stable_reports) == len(report_pairs) and checkpoint_stable
    _criterion(
        9,
        ok,
        f"byte-identical reruns: {len(stable_reports)}/{len(report_pairs)} "
        f"verification reports ({', '.join(stable_reports)}) and the seed-0 "
        f"adapted checkpoint ({'identical' if checkpoint_stable else 'DIFFERS'})",
    )


def test_criterion_10_metrics_exactness():
    half = Fraction(1, 2)
    cases = [
        # (confusion, accuracy, per-class mean, harmonic, macro F1)
        (np.diag([5, 3, 7]), Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
        (
            np.array([[4, 0], [2, 2]]),
            Fraction(3, 4),
            Fraction(3, 4),
            Fraction(2, 3),
            Fraction(11, 15),
        ),
        (
            np.array([[3, 1], [0, 4]]),
            Fraction(7, 8),
            Fraction(7, 8),
            Fraction(6, 7),
            Fraction(55, 63),
        ),
        (
            np.array([[0, 4], [1, 3]]),
            Fraction(3, 8),
            Fraction(3, 8),
            Fraction(0),
            Fraction(3, 11),
        ),
        (
            np.array([[2, 0, 0], [1, 1, 0], [0, 0, 0]]),
            Fraction(3, 4),
            Fraction(3, 4),
            Fraction(2, 3),
            Fraction(11, 15),
        ),
    ]
    worst = 0.0
    absent_ok = True
    for confusion, acc, mean, harmonic, f1 in cases:
        metrics = metrics_from_confusion(confusion)
        for got, want in (
            (metrics.accuracy, acc),
            (metrics.per_class_mean, mean),
            (metrics.harmonic_mean, harmonic),
            (metrics.macro_f1, f1),
        ):
            worst = max(worst, abs(got - float(want)))
    absent_ok = metrics_from_confusion(cases[-1][0]).absent_classes == [2]
    ok = worst <= 1e-15 and absent_ok
    _criterion(
        10,
        ok,
        f"accuracy / per-class mean / harmonic mean / macro-F1 on 5 hand "
        f"confusion matrices: max deviation {worst:.2e} <= 1e-15 "
        f"(float-exact), absent class excluded and flagged",
    )
