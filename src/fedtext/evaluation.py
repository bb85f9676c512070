"""Span decoding and entity-level scoring.

Strict matching requires exact boundaries and type; lenient matching accepts
any token overlap with type agreement.  Both are one-to-one: each gold span
can satisfy at most one prediction.  The matchers take a whole corpus, one
span list per sentence, match within each sentence only, and tally the
matches and the gold and predicted totals once for the corpus.  Macro
averages run over every entity type that has at least one gold or predicted
span.
"""
from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence


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
    """Per-type true positives plus gold/predicted totals over a corpus."""

    tp: Counter[str] = field(default_factory=Counter)
    n_gold: Counter[str] = field(default_factory=Counter)
    n_pred: Counter[str] = field(default_factory=Counter)

    def labels(self) -> list[str]:
        return sorted(set(self.n_gold) | set(self.n_pred))


SpanCorpus = Sequence[Sequence[EntitySpan]]  # one span list per sentence
_label, _position = itemgetter(0), itemgetter(1, 2)


def _tally(gold: SpanCorpus, pred: SpanCorpus, hits: list[str]) -> MatchCounts:
    """Counts from the matched labels and the corpus-wide span totals."""
    return MatchCounts(
        tp=Counter(hits),
        n_gold=Counter(map(_label, chain.from_iterable(gold))),
        n_pred=Counter(map(_label, chain.from_iterable(pred))),
    )


def _same(gold: Sequence[EntitySpan], pred: Sequence[EntitySpan]) -> bool:
    """Whether a sentence predicts exactly its gold span list, in order.
    Both matchers then match every span, each to its own copy: strict as a
    multiset, and lenient because the k-th prediction in start order finds
    the k-th gold, its own copy, first among the unclaimed."""
    return tuple(gold) == tuple(pred)


def match_strict(gold: SpanCorpus, pred: SpanCorpus) -> MatchCounts:
    """Exact-boundary, same-type matching within each sentence of a corpus;
    duplicate spans match as a multiset."""
    hits: list[str] = []
    for g, p in zip(gold, pred, strict=True):
        if not g or not p:
            continue
        if _same(g, p):
            hits += map(_label, p)
            continue
        unused = list(g)
        for span in p:
            if span in unused:
                unused.remove(span)
                hits.append(span.label)
    return _tally(gold, pred, hits)


def match_lenient(gold: SpanCorpus, pred: SpanCorpus, require_type: bool = True) -> MatchCounts:
    """Overlap matching within each sentence of a corpus: a prediction counts
    if it shares at least one token with an unconsumed gold span of its
    sentence (of the same type unless require_type is off).  Predictions
    greedily claim the leftmost compatible gold, scanning left to right by
    prediction start."""
    hits: list[str] = []
    for g, p in zip(gold, pred, strict=True):
        if not g or not p:
            continue
        if _same(g, p):
            hits += map(_label, p)
            continue
        unused = sorted(g, key=_position)
        for span in sorted(p, key=_position):
            for i, other in enumerate(unused):
                if (other.start <= span.end and span.start <= other.end
                        and (other.label == span.label or not require_type)):
                    del unused[i]
                    hits.append(span.label)
                    break
    return _tally(gold, pred, hits)


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


def score_ner(gold: SpanCorpus, pred: SpanCorpus, lenient_require_type: bool = True) -> EvalReport:
    """Corpus-level report from per-sentence gold and predicted span lists;
    with no span on either side the tables are empty and both macros 0."""
    if len(gold) != len(pred):
        raise ValueError("gold and predicted sentence counts differ")
    if not gold:
        raise ValueError("no sentences to score")
    strict = prf1(match_strict(gold, pred))
    lenient = prf1(match_lenient(gold, pred, require_type=lenient_require_type))
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
    hits = [g for g, p in zip(gold, pred) if g == p]
    counts = MatchCounts(tp=Counter(hits), n_gold=Counter(gold), n_pred=Counter(pred))
    scores = prf1(counts)
    gold_classes = {k: v.f1 for k, v in scores.items() if counts.n_gold.get(k, 0) > 0}
    macro = macro_average(gold_classes)
    return EvalReport(strict=scores, lenient=dict(scores), strict_macro_f1=macro, lenient_macro_f1=macro)


def aggregate_repeats(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample (n-1) std over repeated runs: std 0 for one, NaN for none."""
    if len(values) < 2:
        return (values[0], 0.0) if values else (math.nan, math.nan)
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
