"""Set-based scoring for entity extraction.

Predictions and gold annotations are compared per label as sets of
surface strings (whitespace-stripped, otherwise verbatim). Counts pool
across labels and examples for micro precision/recall/F1; macro-F1
averages per-label F1 over the labels actually observed in the
comparison (gold or predicted), so absent labels cannot inflate it.
All 0/0 ratios are defined as 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from exsel.corpus import Example


@dataclass(frozen=True)
class ExtractionCounts:
    """True/false positive and false negative tallies for one label."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "ExtractionCounts") -> "ExtractionCounts":
        return ExtractionCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0


def _normalize(values: Iterable[str]) -> frozenset[str]:
    return frozenset(v.strip() for v in values if v.strip())


def score_example(gold: Example, predicted: Mapping[str, Iterable[str]]) -> dict[str, ExtractionCounts]:
    """Per-label set overlap between one example's gold values and a predicted label -> values map.

    Returns counts only for labels present on either side; a label where
    both sides are empty (after normalization) contributes nothing.
    """
    counts: dict[str, ExtractionCounts] = {}
    for label in set(gold.entities) | set(predicted):
        gold_values = _normalize(gold.entities.get(label, ()))
        pred_values = _normalize(predicted.get(label, ()))
        if not gold_values and not pred_values:
            continue
        tp = len(gold_values & pred_values)
        counts[label] = ExtractionCounts(
            tp=tp,
            fp=len(pred_values) - tp,
            fn=len(gold_values) - tp,
        )
    return counts


def aggregate(per_example: Iterable[Mapping[str, ExtractionCounts]]) -> dict:
    """Pool per-example counts into a report's `metrics` object: micro P/R/F1, observed-label macro-F1,
    `n_examples`, and `per_label` as `{label: {"tp", "fp", "fn"}}` in label order."""
    totals: dict[str, ExtractionCounts] = {}
    n_examples = 0
    for example_counts in per_example:
        n_examples += 1
        for label, counts in example_counts.items():
            totals[label] = totals.get(label, ExtractionCounts()) + counts
    totals = dict(sorted(totals.items()))  # label order, so the float sum below does not follow string hashing
    pooled = sum(totals.values(), ExtractionCounts())
    observed = [c for c in totals.values() if c.tp + c.fp + c.fn > 0]
    macro = sum(c.f1 for c in observed) / len(observed) if observed else 0.0
    return {
        "micro_precision": pooled.precision,
        "micro_recall": pooled.recall,
        "micro_f1": pooled.f1,
        "macro_f1": macro,
        "n_examples": n_examples,
        "per_label": {label: {"tp": c.tp, "fp": c.fp, "fn": c.fn} for label, c in totals.items()},
    }
