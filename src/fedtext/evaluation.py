"""Span decoding and entity-level scoring.

Strict matching requires exact boundaries and type; lenient matching accepts
any token overlap with type agreement.  Both are one-to-one: each gold span
can satisfy at most one prediction.  Macro averages run over every entity
type that has at least one gold or predicted span.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence


class EntitySpan(NamedTuple):
    """Inclusive token span [start, end] of one typed entity."""

    label: str
    start: int
    end: int


def decode_bio(tags: Sequence[str]) -> list[EntitySpan]:
    """Maximal B-X (I-X)* runs become spans; an I-X without a compatible
    predecessor starts a new span; O contributes nothing."""
    spans: list[EntitySpan] = []
    current: EntitySpan | None = None
    for i, tag in enumerate(tags):
        if tag == "O":
            kind, label = "O", ""
        elif tag.startswith(("B-", "I-")) and len(tag) > 2:
            kind, label = tag[0], tag[2:]
        else:
            raise ValueError(f"malformed BIO tag {tag!r} at position {i}")
        if kind == "B" or (kind == "I" and (current is None or current.label != label)):
            if current is not None:
                spans.append(current)
            current = EntitySpan(label, i, i)
        elif kind == "I":
            current = current._replace(end=i)
        else:
            if current is not None:
                spans.append(current)
            current = None
    if current is not None:
        spans.append(current)
    return spans


@dataclass
class MatchCounts:
    """Per-type true positives plus gold/predicted totals."""

    tp: dict[str, int] = field(default_factory=dict)
    n_gold: dict[str, int] = field(default_factory=dict)
    n_pred: dict[str, int] = field(default_factory=dict)

    def labels(self) -> list[str]:
        return sorted(set(self.n_gold) | set(self.n_pred))

    def add(self, other: "MatchCounts") -> None:
        for src, dst in ((other.tp, self.tp), (other.n_gold, self.n_gold), (other.n_pred, self.n_pred)):
            for k, n in src.items():
                dst[k] = dst.get(k, 0) + n


def _count_totals(counts: MatchCounts, gold: Iterable[EntitySpan], pred: Iterable[EntitySpan]) -> None:
    for span in gold:
        counts.n_gold[span.label] = counts.n_gold.get(span.label, 0) + 1
    for span in pred:
        counts.n_pred[span.label] = counts.n_pred.get(span.label, 0) + 1


def match_strict(gold: Sequence[EntitySpan], pred: Sequence[EntitySpan]) -> MatchCounts:
    """Exact-boundary, same-type matching within one sentence."""
    counts = MatchCounts()
    _count_totals(counts, gold, pred)
    unused: dict[EntitySpan, int] = {}
    for span in gold:
        unused[span] = unused.get(span, 0) + 1
    for span in pred:
        if unused.get(span, 0) > 0:
            unused[span] -= 1
            counts.tp[span.label] = counts.tp.get(span.label, 0) + 1
    return counts


def match_lenient(
    gold: Sequence[EntitySpan], pred: Sequence[EntitySpan], require_type: bool = True
) -> MatchCounts:
    """Overlap matching within one sentence: a prediction counts if it shares
    at least one token with an unconsumed gold span (of the same type unless
    require_type is off).  Predictions greedily claim the leftmost compatible
    gold, scanning left to right by prediction start."""
    counts = MatchCounts()
    _count_totals(counts, gold, pred)
    gold_sorted = sorted(gold, key=lambda s: (s.start, s.end))
    used = [False] * len(gold_sorted)
    for span in sorted(pred, key=lambda s: (s.start, s.end)):
        for i, g in enumerate(gold_sorted):
            if used[i]:
                continue
            if require_type and g.label != span.label:
                continue
            if g.start <= span.end and span.start <= g.end:
                used[i] = True
                counts.tp[span.label] = counts.tp.get(span.label, 0) + 1
                break
    return counts


class TypeScore(NamedTuple):
    precision: float
    recall: float
    f1: float


def prf1(counts: MatchCounts) -> dict[str, TypeScore]:
    """Per-type precision/recall/F1; 0/0 ratios are defined as 0."""
    scores: dict[str, TypeScore] = {}
    for label in counts.labels():
        tp = counts.tp.get(label, 0)
        np_, ng = counts.n_pred.get(label, 0), counts.n_gold.get(label, 0)
        p = tp / np_ if np_ else 0.0
        r = tp / ng if ng else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        scores[label] = TypeScore(p, r, f1)
    return scores


def macro_average(per_type_f1: Mapping[str, float]) -> float:
    """Unweighted mean F1 over the given entity types."""
    if not per_type_f1:
        raise ValueError("macro average over an empty type set")
    return sum(per_type_f1.values()) / len(per_type_f1)


@dataclass
class EvalReport:
    """Strict and lenient per-type scores plus their macro-F1 averages."""

    strict: dict[str, TypeScore]
    lenient: dict[str, TypeScore]
    strict_macro_f1: float
    lenient_macro_f1: float

    def as_dict(self) -> dict:
        return {
            "strict": {k: list(v) for k, v in sorted(self.strict.items())},
            "lenient": {k: list(v) for k, v in sorted(self.lenient.items())},
            "strict_macro_f1": self.strict_macro_f1,
            "lenient_macro_f1": self.lenient_macro_f1,
        }


def score_ner(
    gold: Sequence[Sequence[EntitySpan]],
    pred: Sequence[Sequence[EntitySpan]],
    lenient_require_type: bool = True,
) -> EvalReport:
    """Corpus-level report from per-sentence gold and predicted span lists;
    with no span on either side the tables are empty and both macros 0."""
    if len(gold) != len(pred):
        raise ValueError("gold and predicted sentence counts differ")
    strict_counts, lenient_counts = MatchCounts(), MatchCounts()
    for g, p in zip(gold, pred):
        strict_counts.add(match_strict(g, p))
        lenient_counts.add(match_lenient(g, p, require_type=lenient_require_type))
    strict = prf1(strict_counts)
    lenient = prf1(lenient_counts)
    if not strict:  # no span on either side: macro-F1 0/0 is 0, as in prf1
        return EvalReport(strict={}, lenient={}, strict_macro_f1=0.0, lenient_macro_f1=0.0)
    return EvalReport(
        strict=strict,
        lenient=lenient,
        strict_macro_f1=macro_average({k: v.f1 for k, v in strict.items()}),
        lenient_macro_f1=macro_average({k: v.f1 for k, v in lenient.items()}),
    )


def re_report(gold: Sequence[str], pred: Sequence[str]) -> EvalReport:
    """Relation-classification report; per-class scores from the confusion
    counts, macro over the classes present in the gold labels.  Strict and
    lenient coincide for classification, so both halves carry the same
    numbers."""
    if len(gold) != len(pred):
        raise ValueError("gold and predicted label counts differ")
    if not gold:
        raise ValueError("no instances to score")
    counts = MatchCounts()
    for g, p in zip(gold, pred):
        counts.n_gold[g] = counts.n_gold.get(g, 0) + 1
        counts.n_pred[p] = counts.n_pred.get(p, 0) + 1
        if g == p:
            counts.tp[g] = counts.tp.get(g, 0) + 1
    scores = prf1(counts)
    gold_classes = {k: v.f1 for k, v in scores.items() if counts.n_gold.get(k, 0) > 0}
    macro = macro_average(gold_classes)
    return EvalReport(strict=scores, lenient=dict(scores), strict_macro_f1=macro, lenient_macro_f1=macro)


def headline(task: str, report: Mapping[str, float]) -> dict[str, float]:
    """The metrics a run reports per round and per repeat, from a report in
    its ``as_dict`` (report.json) form: both macro-F1s for NER, one macro-F1
    for RE, whose strict and lenient halves coincide."""
    if task == "ner":
        return {"strict_f1": report["strict_macro_f1"], "lenient_f1": report["lenient_macro_f1"]}
    return {"macro_f1": report["strict_macro_f1"]}


def aggregate_repeats(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation over repeated runs."""
    if len(values) < 2:
        raise ValueError("need at least 2 repeats to aggregate")
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def report_to_csv(report: EvalReport) -> str:
    """Deterministic CSV: one row per (scheme, type) plus macro rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scheme", "type", "precision", "recall", "f1"])
    for scheme, scores in (("strict", report.strict), ("lenient", report.lenient)):
        for label in sorted(scores):
            s = scores[label]
            writer.writerow([scheme, label, f"{s.precision:.6f}", f"{s.recall:.6f}", f"{s.f1:.6f}"])
    writer.writerow(["strict", "MACRO", "", "", f"{report.strict_macro_f1:.6f}"])
    writer.writerow(["lenient", "MACRO", "", "", f"{report.lenient_macro_f1:.6f}"])
    return out.getvalue()


def format_cell(lenient_mean: float, lenient_std: float, strict_mean: float, strict_std: float) -> str:
    """Summary-table cell: lenient outside, strict in parentheses."""
    return (
        f"{lenient_mean:.3f}±{lenient_std:.3f} "
        f"({strict_mean:.3f}±{strict_std:.3f})"
    )


def format_report_table(report: EvalReport) -> str:
    """Aligned per-type table mirroring the lenient (strict) cell layout."""
    labels = sorted(set(report.strict) | set(report.lenient))
    rows = [("type", "lenient P/R/F1", "strict P/R/F1")]
    for label in labels:
        le = report.lenient.get(label, TypeScore(0.0, 0.0, 0.0))
        st = report.strict.get(label, TypeScore(0.0, 0.0, 0.0))
        rows.append(
            (
                label,
                f"{le.precision:.3f}/{le.recall:.3f}/{le.f1:.3f}",
                f"({st.precision:.3f}/{st.recall:.3f}/{st.f1:.3f})",
            )
        )
    rows.append(("MACRO", f"{report.lenient_macro_f1:.3f}", f"({report.strict_macro_f1:.3f})"))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"
