"""Tests for set-based extraction scoring, checked against a brute-force oracle."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exsel.corpus import Example
from exsel.metrics import ExtractionCounts, aggregate, score_example

LABELS = ["person", "org", "location", "date", "amount"]
VALUES = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]


def oracle_scores(pairs):
    """Independent re-count: walk every (gold, predicted) value directly."""
    per_label = {}
    for gold, pred in pairs:
        labels = set(gold) | set(pred)
        for label in labels:
            g = {v.strip() for v in gold.get(label, set()) if v.strip()}
            p = {v.strip() for v in pred.get(label, set()) if v.strip()}
            if not g and not p:
                continue
            tp = sum(1 for v in p if v in g)
            fp = sum(1 for v in p if v not in g)
            fn = sum(1 for v in g if v not in p)
            cur = per_label.setdefault(label, [0, 0, 0])
            cur[0] += tp
            cur[1] += fp
            cur[2] += fn
    tp = sum(v[0] for v in per_label.values())
    fp = sum(v[1] for v in per_label.values())
    fn = sum(v[2] for v in per_label.values())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    micro_f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    label_f1s = []
    for ltp, lfp, lfn in per_label.values():
        denom = 2 * ltp + lfp + lfn
        label_f1s.append(2 * ltp / denom if denom else 0.0)
    macro_f1 = sum(label_f1s) / len(label_f1s) if label_f1s else 0.0
    return precision, recall, micro_f1, macro_f1


def random_instance(rng):
    n = rng.randint(1, 6)
    pairs = []
    for _ in range(n):
        gold = {}
        pred = {}
        for label in rng.sample(LABELS, rng.randint(0, len(LABELS))):
            gold[label] = set(rng.sample(VALUES, rng.randint(0, 4)))
        for label in rng.sample(LABELS, rng.randint(0, len(LABELS))):
            pred[label] = set(rng.sample(VALUES, rng.randint(0, 4)))
        pairs.append((gold, pred))
    return pairs


def run_pipeline(pairs):
    per_example = []
    for i, (gold, pred) in enumerate(pairs):
        ex = Example(id=f"e{i}", text="t", entities={k: v for k, v in gold.items() if v})
        per_example.append(score_example(ex, pred))
    return aggregate(per_example)


class TestScoreExample:
    def test_worked_case(self):
        # One hit, one spurious value, two misses: micro-F1 = 2/(2+1+2) = 0.4.
        gold = Example(id="e", text="t", entities={"person": ["Ann", "Bo", "Cy"]})
        pred = {"person": ["Ann", "Dee"]}
        counts = score_example(gold, pred)["person"]
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 2)
        report = aggregate([{"person": counts}])
        assert report["micro_f1"] == pytest.approx(0.4, abs=1e-12)

    def test_strip_only_normalization(self):
        gold = Example(id="e", text="t", entities={"org": ["Acme Corp"]})
        pred = {"org": ["  Acme Corp "]}
        counts = score_example(gold, pred)["org"]
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)

    def test_case_is_not_folded(self):
        gold = Example(id="e", text="t", entities={"org": ["Acme"]})
        pred = {"org": ["acme"]}
        counts = score_example(gold, pred)["org"]
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_predicted_values_are_stripped_and_blanks_dropped(self):
        gold = Example(id="e", text="t", entities={"org": ["Acme"]})
        counts = score_example(gold, {"org": [" Acme ", "", "  ", "Zeta "], "date": ["", " "]})
        assert {label: (c.tp, c.fp, c.fn) for label, c in counts.items()} == {"org": (1, 1, 0)}

    def test_label_empty_on_both_sides_is_skipped(self):
        gold = Example(id="e", text="t")
        pred = {"org": ["  "]}
        assert score_example(gold, pred) == {}


class TestAggregate:
    def test_empty_input(self):
        report = aggregate([])
        assert report["micro_f1"] == 0.0
        assert report["macro_f1"] == 0.0
        assert report["n_examples"] == 0

    def test_perfect_prediction(self):
        gold = Example(id="e", text="t", entities={"a": ["x"], "b": ["y", "z"]})
        pred = {"a": ["x"], "b": ["y", "z"]}
        report = aggregate([score_example(gold, pred)])
        assert report["micro_precision"] == 1.0
        assert report["micro_recall"] == 1.0
        assert report["micro_f1"] == 1.0
        assert report["macro_f1"] == 1.0

    def test_all_misses(self):
        gold = Example(id="e", text="t", entities={"a": ["x"]})
        report = aggregate([score_example(gold, {})])
        assert report["micro_f1"] == 0.0
        assert report["micro_recall"] == 0.0

    def test_macro_ignores_unobserved_labels(self):
        # Label "b" never appears on either side; macro must average over {a} only.
        gold = Example(id="e", text="t", entities={"a": ["x", "y"]})
        pred = {"a": ["x"]}
        report = aggregate([score_example(gold, pred)])
        assert report["macro_f1"] == pytest.approx(2 * 1 / (2 * 1 + 0 + 1))

    def test_micro_pools_before_dividing(self):
        # Two labels with asymmetric counts: micro != mean of per-label F1.
        a = ExtractionCounts(tp=9, fp=0, fn=0)
        b = ExtractionCounts(tp=0, fp=1, fn=1)
        report = aggregate([{"a": a}, {"b": b}])
        assert report["micro_f1"] == pytest.approx(18 / 20)
        assert report["macro_f1"] == pytest.approx(0.5)
        assert report["per_label"] == {"a": {"tp": 9, "fp": 0, "fn": 0}, "b": {"tp": 0, "fp": 1, "fn": 1}}

    def test_report_bytes_do_not_follow_label_insertion_order(self):
        # per-label F1 0.1, 0.2 and 0.3; summed in some other orders the mean reads 0.19999999999999998
        counts = {"a": ExtractionCounts(1, 9, 9), "b": ExtractionCounts(1, 4, 4), "c": ExtractionCounts(3, 7, 7)}
        reports = [aggregate([{label: counts[label] for label in order}]) for order in itertools.permutations(counts)]
        assert {report["macro_f1"] for report in reports} == {(0.1 + 0.2 + 0.3) / 3}
        assert len({json.dumps(report) for report in reports}) == 1

    def test_matches_oracle_on_randomized_instances(self):
        rng = random.Random(20260814)
        for trial in range(1000):
            pairs = random_instance(rng)
            report = run_pipeline(pairs)
            precision, recall, micro_f1, macro_f1 = oracle_scores(pairs)
            assert report["micro_precision"] == pytest.approx(precision, abs=1e-12), trial
            assert report["micro_recall"] == pytest.approx(recall, abs=1e-12), trial
            assert report["micro_f1"] == pytest.approx(micro_f1, abs=1e-12), trial
            assert report["macro_f1"] == pytest.approx(macro_f1, abs=1e-12), trial


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from(LABELS), st.sets(st.sampled_from(VALUES)), max_size=3),
            st.dictionaries(st.sampled_from(LABELS), st.sets(st.sampled_from(VALUES)), max_size=3),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_aggregate_matches_oracle_property(pairs):
    report = run_pipeline(pairs)
    precision, recall, micro_f1, macro_f1 = oracle_scores(pairs)
    assert report["micro_precision"] == pytest.approx(precision, abs=1e-12)
    assert report["micro_recall"] == pytest.approx(recall, abs=1e-12)
    assert report["micro_f1"] == pytest.approx(micro_f1, abs=1e-12)
    assert report["macro_f1"] == pytest.approx(macro_f1, abs=1e-12)


@settings(max_examples=100)
@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_counts_scores_bounded(tp, fp, fn):
    c = ExtractionCounts(tp=tp, fp=fp, fn=fn)
    for value in (c.precision, c.recall, c.f1):
        assert 0.0 <= value <= 1.0
