"""Span decoding and scoring against an independent maximum-matching oracle."""
import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtext.evaluation import (
    EntitySpan,
    EvalReport,
    MatchCounts,
    aggregate_repeats,
    decode_bio,
    format_cell,
    format_report_table,
    macro_average,
    match_lenient,
    match_strict,
    prf1,
    re_report,
    report_to_csv,
    score_ner,
)

TAGSET = ["O", "B-A", "I-A", "B-B", "I-B"]


def random_spans(rng, length=12):
    """Random disjoint spans via a random BIO sequence."""
    tags = [TAGSET[i] for i in rng.integers(0, len(TAGSET), size=length)]
    return decode_bio(tags)


def max_bipartite_matching(gold, pred, edge):
    """Kuhn's augmenting-path maximum matching; the reference matcher."""
    match_of_gold = [-1] * len(gold)

    def try_augment(p, visited):
        for g in range(len(gold)):
            if visited[g] or not edge(pred[p], gold[g]):
                continue
            visited[g] = True
            if match_of_gold[g] == -1 or try_augment(match_of_gold[g], visited):
                match_of_gold[g] = p
                return True
        return False

    size = 0
    for p in range(len(pred)):
        if try_augment(p, [False] * len(gold)):
            size += 1
    return size


def overlaps(a, b):
    return a.start <= b.end and b.start <= a.end


# ---------------------------------------------------------------------------
# BIO decoding

def test_decode_bio_basic():
    spans = decode_bio(["O", "B-GENE", "I-GENE", "O", "B-DIS"])
    assert spans == [EntitySpan("GENE", 1, 2), EntitySpan("DIS", 4, 4)]


def test_decode_bio_repairs_dangling_i():
    assert decode_bio(["I-GENE"]) == [EntitySpan("GENE", 0, 0)]
    assert decode_bio(["O", "I-DIS", "I-DIS"]) == [EntitySpan("DIS", 1, 2)]


def test_decode_bio_i_after_other_type_starts_new_span():
    assert decode_bio(["B-A", "I-B"]) == [EntitySpan("A", 0, 0), EntitySpan("B", 1, 1)]


def test_decode_bio_adjacent_b_tags():
    assert decode_bio(["B-A", "B-A"]) == [EntitySpan("A", 0, 0), EntitySpan("A", 1, 1)]


def test_decode_bio_span_interrupted_by_o():
    assert decode_bio(["B-A", "I-A", "O", "I-A"]) == [
        EntitySpan("A", 0, 1),
        EntitySpan("A", 3, 3),
    ]


def test_decode_bio_rejects_malformed_tags():
    for bad in ("B-", "I-", "X-GENE", "B", "b-GENE"):
        with pytest.raises(ValueError, match="position 1"):
            decode_bio(["O", bad])


def test_decoded_spans_are_disjoint_property():
    rng = np.random.default_rng(0)
    for _ in range(100):
        spans = random_spans(rng)
        for a, b in zip(spans, spans[1:]):
            assert a.end < b.start


# ---------------------------------------------------------------------------
# matchers

def test_strict_exact_boundaries_only():
    gold = [EntitySpan("A", 0, 2)]
    assert match_strict(gold, [EntitySpan("A", 0, 2)]).tp == {"A": 1}
    assert match_strict(gold, [EntitySpan("A", 0, 1)]).tp == {}
    assert match_strict(gold, [EntitySpan("B", 0, 2)]).tp == {}


def test_strict_counts_duplicates_as_a_multiset():
    gold = [EntitySpan("A", 0, 1), EntitySpan("A", 0, 1)]
    counts = match_strict(gold, [EntitySpan("A", 0, 1)])
    assert counts.tp == {"A": 1}
    assert counts.n_gold == {"A": 2}
    assert counts.n_gold["A"] - counts.tp["A"] == 1


def test_lenient_overlap_counts():
    gold = [EntitySpan("A", 0, 2)]
    assert match_lenient(gold, [EntitySpan("A", 2, 4)]).tp == {"A": 1}
    assert match_lenient(gold, [EntitySpan("A", 3, 4)]).tp == {}
    assert match_lenient(gold, [EntitySpan("B", 0, 2)]).tp == {}


def test_lenient_claims_leftmost_unconsumed_gold():
    gold = [EntitySpan("A", 0, 1), EntitySpan("A", 3, 4)]
    pred = [EntitySpan("A", 1, 3), EntitySpan("A", 4, 4)]
    counts = match_lenient(gold, pred)
    assert counts.tp == {"A": 2}


def test_lenient_each_gold_claimed_once():
    gold = [EntitySpan("A", 0, 4)]
    pred = [EntitySpan("A", 0, 1), EntitySpan("A", 3, 4)]
    counts = match_lenient(gold, pred)
    assert counts.tp == {"A": 1}
    assert counts.n_pred["A"] - counts.tp["A"] == 1


def test_lenient_type_free_mode():
    gold = [EntitySpan("A", 0, 1)]
    pred = [EntitySpan("B", 0, 1)]
    assert match_lenient(gold, pred, require_type=True).tp == {}
    counts = match_lenient(gold, pred, require_type=False)
    assert counts.tp == {"B": 1}


def test_lenient_equals_max_matching_with_types():
    rng = np.random.default_rng(42)
    for _ in range(300):
        gold, pred = random_spans(rng), random_spans(rng)
        counts = match_lenient(gold, pred)
        for label in ("A", "B"):
            g = [s for s in gold if s.label == label]
            p = [s for s in pred if s.label == label]
            expect = max_bipartite_matching(g, p, overlaps)
            assert counts.tp.get(label, 0) == expect


def test_lenient_equals_max_matching_type_free():
    rng = np.random.default_rng(43)
    for _ in range(300):
        gold, pred = random_spans(rng), random_spans(rng)
        counts = match_lenient(gold, pred, require_type=False)
        expect = max_bipartite_matching(gold, pred, overlaps)
        assert sum(counts.tp.values()) == expect


def test_strict_never_beats_lenient():
    rng = np.random.default_rng(44)
    for _ in range(300):
        gold, pred = random_spans(rng), random_spans(rng)
        s, l = match_strict(gold, pred), match_lenient(gold, pred)
        for label in ("A", "B"):
            assert s.tp.get(label, 0) <= l.tp.get(label, 0)


# ---------------------------------------------------------------------------
# scores and reports

def test_prf1_handles_zero_denominators():
    counts = MatchCounts(tp={}, n_gold={"A": 2}, n_pred={"B": 1})
    scores = prf1(counts)
    assert scores["A"] == (0.0, 0.0, 0.0)
    assert scores["B"] == (0.0, 0.0, 0.0)


def test_prf1_hand_values():
    counts = MatchCounts(tp={"A": 2}, n_gold={"A": 2}, n_pred={"A": 3})
    s = prf1(counts)["A"]
    assert s.precision == pytest.approx(2 / 3)
    assert s.recall == pytest.approx(1.0)
    assert s.f1 == pytest.approx(0.8)


def test_macro_average():
    assert macro_average({"A": 0.8, "B": 0.0}) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        macro_average({})


def test_score_ner_includes_pred_only_types_in_the_macro():
    gold = [[EntitySpan("A", 0, 1)]]
    pred = [[EntitySpan("A", 0, 1), EntitySpan("B", 3, 3)]]
    report = score_ner(gold, pred)
    assert set(report.strict) == {"A", "B"}
    assert report.strict["B"].f1 == 0.0
    assert report.strict_macro_f1 == pytest.approx(0.5)
    assert report.lenient_macro_f1 == pytest.approx(0.5)


def test_score_ner_length_mismatch():
    with pytest.raises(ValueError):
        score_ner([[]], [[], []])


def test_score_ner_with_no_spans_anywhere():
    # 0/0 is 0, as for a single type in prf1; macro_average({}) still raises
    report = score_ner([[], []], [[], []])
    assert report.strict == {} and report.lenient == {}
    assert report.strict_macro_f1 == 0.0 and report.lenient_macro_f1 == 0.0
    assert format_report_table(report).splitlines()[-1].split() == ["MACRO", "0.000", "(0.000)"]


def test_score_ner_type_free_lenient_flag():
    gold = [[EntitySpan("A", 0, 1)]]
    pred = [[EntitySpan("B", 0, 1)]]
    strict_typed = score_ner(gold, pred)
    assert strict_typed.lenient["B"].f1 == 0.0
    free = score_ner(gold, pred, lenient_require_type=False)
    assert free.lenient["B"].precision == pytest.approx(1.0)
    # strict half is unaffected by the flag
    assert free.strict["B"].f1 == 0.0


def test_re_report_hand_example():
    report = re_report(["a", "b", "a"], ["a", "a", "a"])
    assert report.strict["a"].precision == pytest.approx(2 / 3)
    assert report.strict["a"].recall == pytest.approx(1.0)
    assert report.strict["a"].f1 == pytest.approx(0.8)
    assert report.strict["b"].f1 == 0.0
    # macro over gold classes only
    assert report.strict_macro_f1 == pytest.approx(0.4)
    assert report.lenient_macro_f1 == pytest.approx(0.4)


def test_re_report_excludes_pred_only_classes_from_macro():
    report = re_report(["a", "a"], ["a", "c"])
    assert "c" in report.strict  # scored per class
    assert report.strict_macro_f1 == pytest.approx(report.strict["a"].f1)


def test_re_report_validation():
    with pytest.raises(ValueError):
        re_report(["a"], [])
    with pytest.raises(ValueError):
        re_report([], [])


def test_aggregate_repeats_hand_values():
    mean, std = aggregate_repeats([0.8, 0.9, 1.0])
    assert mean == pytest.approx(0.9)
    assert std == pytest.approx(0.1)
    with pytest.raises(ValueError):
        aggregate_repeats([0.5])


def test_report_csv_layout():
    report = score_ner([[EntitySpan("A", 0, 1)]], [[EntitySpan("A", 0, 1)]])
    rows = list(csv.reader(io.StringIO(report_to_csv(report))))
    assert rows[0] == ["scheme", "type", "precision", "recall", "f1"]
    schemes = {r[0] for r in rows[1:]}
    assert schemes == {"strict", "lenient"}
    macro_rows = [r for r in rows if r[1] == "MACRO"]
    assert len(macro_rows) == 2
    assert all(r[4] == "1.000000" for r in macro_rows)


def test_format_cell_layout():
    assert format_cell(0.9, 0.1, 0.8, 0.05) == "0.900±0.100 (0.800±0.050)"


def test_format_report_table_contains_macro_row():
    report = score_ner([[EntitySpan("A", 0, 1)]], [[EntitySpan("A", 0, 1)]])
    table = format_report_table(report)
    lines = table.strip().splitlines()
    assert lines[0].startswith("type")
    assert lines[-1].startswith("MACRO")
    assert "1.000" in lines[-1]


# ---------------------------------------------------------------------------
# the Table-1 inequality as a property

@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(TAGSET), min_size=1, max_size=14),
    st.lists(st.sampled_from(TAGSET), min_size=1, max_size=14),
)
def test_strict_macro_never_exceeds_lenient_macro(gold_tags, pred_tags):
    gold, pred = decode_bio(gold_tags), decode_bio(pred_tags)
    report = score_ner([gold], [pred])
    assert report.strict_macro_f1 <= report.lenient_macro_f1 + 1e-12
    assert isinstance(report, EvalReport)
