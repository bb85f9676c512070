"""Prompt construction and offline response parsing/scoring."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedtext.corpus import RelationInstance, TaggedSentence
from fedtext.evaluation import EntitySpan, decode_bio
from fedtext.llm_bridge import (
    ABSTAIN_LABEL,
    EXEMPLAR_SENTENCE,
    HighlightDiagnostics,
    PromptSpec,
    ResponseRecord,
    build_prompt,
    default_ner_exemplar,
    map_relation_response,
    parse_highlights,
    read_responses,
    sample_test_subset,
    score_ner_responses,
    score_re_responses,
)
from fedtext.models import RelationExample, TagExample
from fedtext.tasks import NER, RE, NerItem, ReItem
import oracles
from oracles import render_highlights, write_responses


def ner_item(tokens, labels):
    sent = TaggedSentence(tuple(tokens), tuple(labels))
    enc = TagExample(np.arange(len(tokens)), np.zeros(len(tokens), dtype=int))
    return NerItem(sentence=sent, enc=enc, gold_spans=tuple(decode_bio(labels)))


# ---------------------------------------------------------------------------
# prompt construction

def test_zero_shot_ner_prompt_is_exact():
    spec = PromptSpec(NER.template, entity_type="disease", tag="span")
    expect = (
        "Task: the task is to extract disease entities in a sentence\n"
        "Input: the input is a sentence.\n"
        "Output: the output is an HTML that highlights all the disease entities "
        "in the sentence. The highlighting should only use HTML tags <span> and "
        "</span> and no other tags.\n"
        "Input: A sentence ."
    )
    assert build_prompt(spec, "A sentence .") == expect


def test_one_shot_ner_prompt_inserts_the_example_block():
    exemplar = default_ner_exemplar("mark")
    spec = PromptSpec(NER.template, entity_type="disease", tag="mark", exemplar=exemplar)
    prompt = build_prompt(spec, "query text")
    assert prompt.endswith("Input: query text")
    block = f"Example:\nInput: {EXEMPLAR_SENTENCE}\nOutput: "
    assert block in prompt
    assert "<mark>cirrhotic liver disease</mark>" in prompt
    assert "<mark>Wilson disease</mark>" in prompt
    # example block sits between the task lines and the query
    assert prompt.index("Example:") < prompt.index("Input: query text")


def test_re_prompt_uses_the_domain_string():
    spec = PromptSpec(RE.template, entity_type="gene-disease", tag="x")
    prompt = build_prompt(spec, "sent GENE DIS")
    assert "determine the gene-disease relation" in prompt
    assert prompt.endswith("Input: sent GENE DIS")
    assert "HTML" not in prompt


def test_prompts_differ_across_settings():
    texts = set()
    for kind, shot in ((NER, "zero"), (NER, "one"), (RE, "zero")):
        exemplar = default_ner_exemplar("t") if shot == "one" else None
        spec = PromptSpec(kind.template, entity_type="disease", tag="t", exemplar=exemplar)
        texts.add(build_prompt(spec, "same input"))
    assert len(texts) == 3


def test_prompt_spec_validation():
    with pytest.raises(ValueError):
        PromptSpec(NER.template, entity_type="", tag="t")
    with pytest.raises(ValueError):
        PromptSpec(NER.template, entity_type="disease", tag="<b>")
    with pytest.raises(ValueError):
        build_prompt(PromptSpec(NER.template, entity_type="disease", tag="t"), "")
    # a relation prompt names no tag, so its tag goes unchecked
    PromptSpec(RE.template, entity_type="gene-disease", tag="<b>")


# ---------------------------------------------------------------------------
# highlight parsing

TOKENS = ["the", "brca1", "gene", "causes", "breast", "cancer", "risk"]


def test_parse_exact_highlight():
    spans = parse_highlights("the <m>brca1</m> gene causes breast cancer risk",
                             TOKENS, "GENE", "m")
    assert spans == [EntitySpan("GENE", 1, 1)]


def test_parse_multi_token_highlight():
    spans = parse_highlights("... <m>breast cancer</m> ...", TOKENS, "DIS", "m")
    assert spans == [EntitySpan("DIS", 4, 5)]


def test_parse_orders_repeated_mentions_by_cursor():
    tokens = ["a", "x", "b", "x", "c"]
    response = "a <m>x</m> b <m>x</m> c"
    spans = parse_highlights(response, tokens, "E", "m")
    assert spans == [EntitySpan("E", 1, 1), EntitySpan("E", 3, 3)]


def test_parse_falls_back_to_search_from_the_start():
    # responses sometimes reorder mentions; the second region sits left of
    # the first in the original sentence
    tokens = ["alpha", "beta", "gamma"]
    response = "<m>gamma</m> and <m>alpha</m>"
    spans = parse_highlights(response, tokens, "E", "m")
    assert EntitySpan("E", 2, 2) in spans
    assert EntitySpan("E", 0, 0) in spans


def test_parse_longest_token_run_wins():
    # the region paraphrases around a real fragment; only "breast cancer"
    # exists in the sentence
    response = "<m>severe breast cancer syndrome</m>"
    spans = parse_highlights(response, TOKENS, "DIS", "m")
    assert spans == [EntitySpan("DIS", 4, 5)]


def test_parse_unmatched_region_is_dropped_and_counted():
    diag = HighlightDiagnostics()
    spans = parse_highlights("<m>completely unrelated</m>", TOKENS, "DIS", "m",
                             diagnostics=diag)
    assert spans == []
    assert diag.dropped == 1


def test_parse_unclosed_tag_runs_to_the_end():
    diag = HighlightDiagnostics()
    spans = parse_highlights("causes <m>breast cancer", TOKENS, "DIS", "m",
                             diagnostics=diag)
    assert spans == [EntitySpan("DIS", 4, 5)]
    assert diag.unclosed == 1


def test_parse_nested_tags_flatten():
    diag = HighlightDiagnostics()
    spans = parse_highlights("<m>breast <m>cancer</m></m>", TOKENS, "DIS", "m",
                             diagnostics=diag)
    assert spans == [EntitySpan("DIS", 4, 5)]
    assert diag.nested == 1


def test_parse_stray_close_is_ignored():
    diag = HighlightDiagnostics()
    spans = parse_highlights("gene</m> causes <m>risk</m>", TOKENS, "E", "m",
                             diagnostics=diag)
    assert spans == [EntitySpan("E", 6, 6)]
    assert diag.stray_close == 1


def test_parse_casefold_option():
    response = "<m>BRCA1</m>"
    assert parse_highlights(response, TOKENS, "GENE", "m") == []
    spans = parse_highlights(response, TOKENS, "GENE", "m", casefold=True)
    assert spans == [EntitySpan("GENE", 1, 1)]


@pytest.mark.parametrize("tag", ["", "m x", "1m", "m>"])
def test_parse_refuses_a_tag_that_is_not_a_usable_name(tag):
    # an empty tag would read "<>" and "</>" as a highlight
    with pytest.raises(ValueError, match="not a usable HTML tag name"):
        parse_highlights("a <>b</> c", ["a", "b", "c"], "E", tag=tag)


# marker soups: tags of the parsed name and of another one, words that are
# in the sentence (also in another case) or not, and bare separators; the
# pieces join with nothing between them, so text fuses to tags
SOUP_PIECES = st.sampled_from(
    ["<m>", "</m>", "<mark>", "</mark>", "a", "b", "c", "A", "B", "zz", "a b", " ", " ", "\t",
     "<", "/", ">"]
)


@settings(max_examples=500, deadline=None)
@given(
    pieces=st.lists(SOUP_PIECES, max_size=20),
    tokens=st.lists(st.sampled_from(["a", "b", "c", "A"]), max_size=8),
    tag=st.sampled_from(["m", "mark"]),
    casefold=st.booleans(),
)
@example(["<m>", "a ", "<m>", "b", "</m>", " c", "</m>"], ["a", "b", "c"], "m", False)  # nested
@example(["a", "</m>", " ", "<m>", "b"], ["a", "b"], "m", False)  # stray close, then unclosed
@example(["x", "<m>", "a", "</m>", "b"], ["a", "b"], "m", False)  # text fused to tags
@example(["<m>", "a", "</m>", " ", "<m>", "a", "</m>"], ["a", "b", "a"], "m", False)  # repeats
@example(["<m>", "a b", "</m>"], ["a", "a", "b"], "m", False)  # a first token that recurs
@example(["<m>", "zz", "</m>", "<m>", "</m>"], ["a"], "m", False)  # absent word, empty region
@example(["<m>", "A b", "</m>"], ["b", "a", "b"], "m", True)  # casefold
@example(["<mark>", "a", "</mark>"], ["a"], "m", False)  # another tag is text
def test_parse_highlights_matches_the_reference_parser(pieces, tokens, tag, casefold):
    response = "".join(pieces)
    got_diag, want_diag = HighlightDiagnostics(), HighlightDiagnostics()
    got = parse_highlights(response, tokens, "E", tag, got_diag, casefold)
    want = oracles.parse_highlights(response, tokens, "E", tag, want_diag, casefold)
    assert got == want
    assert got_diag == want_diag


def test_render_highlights():
    out = render_highlights(["a", "b", "c"], [EntitySpan("E", 1, 2)], "m")
    assert out == "a <m>b c</m>"
    out = render_highlights(["a", "b"], [], "m")
    assert out == "a b"


@st.composite
def separated_spans(draw):
    """A sentence length and its disjoint, non-adjacent spans of 1-2 tokens."""
    n = draw(st.integers(3, 11))
    spans, pos = [], 0
    while pos < n:
        if draw(st.booleans()):
            end = min(n - 1, pos + draw(st.integers(0, 1)))
            spans.append(EntitySpan("E", pos, end))
            pos = end + 2  # gap keeps regions separate
        else:
            pos += 1
    return n, spans


@settings(max_examples=200, deadline=None)
@given(separated_spans())
@example((8, [EntitySpan("E", 1, 1), EntitySpan("E", 3, 4), EntitySpan("E", 6, 6)]))
@example((11, [EntitySpan("E", 0, 1), EntitySpan("E", 5, 5), EntitySpan("E", 7, 8),
               EntitySpan("E", 10, 10)]))
@example((4, []))
def test_render_parse_round_trip_on_random_sentences(case):
    n, spans = case
    tokens = [f"w{i}" for i in range(n)]  # unique tokens: exact recovery
    response = render_highlights(tokens, spans, "t")
    assert parse_highlights(response, tokens, "E", "t") == spans


# ---------------------------------------------------------------------------
# subsets, records, scoring

def test_sample_test_subset_is_deterministic():
    items = list(range(30))
    a = sample_test_subset(items, 10, 5)
    assert a == sample_test_subset(items, 10, 5)
    assert len(set(a)) == 10
    assert sorted(sample_test_subset(items, 30, 5)) == items
    with pytest.raises(ValueError):
        sample_test_subset(items, 0, 5)
    with pytest.raises(ValueError):
        sample_test_subset(items, 31, 5)


def test_response_records_round_trip():
    records = [ResponseRecord(0, "a <m>b</m>"), ResponseRecord(1, "plain")]
    text = write_responses(records)
    assert read_responses(text) == records
    assert read_responses(text.encode()) == records


def test_read_responses_rejects_duplicates_and_garbage():
    dup = write_responses([ResponseRecord(0, "x"), ResponseRecord(0, "y")])
    with pytest.raises(ValueError, match="duplicate"):
        read_responses(dup)
    with pytest.raises(ValueError, match="line 1"):
        read_responses("not json\n")
    with pytest.raises(ValueError, match="line 2"):
        read_responses('{"id": 0, "response": "ok"}\n{"response": "no id"}\n')


@pytest.mark.parametrize("line, message", [
    ('{"id": 0, "response": null}', "response must be a string, not None"),
    ('{"id": 0, "response": ["a", "b"]}', r"response must be a string, not \['a', 'b'\]"),
    ('{"id": 0, "response": 7}', "response must be a string, not 7"),
    ('{"id": 1.7, "response": "x"}', "response id must be an integer, not 1.7"),
    ('{"id": "1", "response": "x"}', "response id must be an integer, not '1'"),
    ('{"id": true, "response": "x"}', "response id must be an integer, not True"),
    ('["id", "response"]', "bad response record"),
], ids=["null-response", "list-response", "number-response", "float-id", "string-id", "bool-id", "list-record"])
def test_read_responses_checks_types_instead_of_coercing(line, message):
    # a null response would read as the text "None", which a relation label
    # "none" maps to instead of the abstain label
    with pytest.raises(ValueError, match=f"^line 2: {message}"):
        read_responses('{"id": 5, "response": "ok"}\n' + line + "\n")


def test_score_ner_responses_end_to_end():
    items = [
        ner_item(["inactivation", "of", "atp7b", "seen"], ["O", "O", "B-GENE", "O"]),
        ner_item(["wilson", "disease", "progressed"], ["B-DIS", "I-DIS", "O"]),
    ]
    records = [
        ResponseRecord(0, "inactivation of <m>atp7b</m> seen"),
        ResponseRecord(1, "<m>wilson disease</m> progressed"),
    ]
    score = score_ner_responses(items, records, "entity", "m")
    # gold collapses to the prompted type, so both sentences match exactly
    assert score.report.strict_macro_f1 == pytest.approx(1.0)
    assert score.diagnostics.dropped == 0


def test_score_ner_responses_reports_missing_ids():
    items = [ner_item(["a"], ["O"]), ner_item(["b"], ["O"])]
    with pytest.raises(ValueError, match=r"\[1\]"):
        score_ner_responses(items, [ResponseRecord(0, "x")], "e", "m")


def test_map_relation_response():
    labels = ["assoc", "no assoc"]
    assert map_relation_response("The relation is No Assoc here", labels) == "no assoc"
    assert map_relation_response("clearly ASSOC", labels) == "assoc"
    assert map_relation_response("cannot tell", labels) == ABSTAIN_LABEL


def test_score_re_responses_end_to_end():
    insts = [
        RelationInstance(("g", "linked", "d"), (0, 0), (2, 2), "assoc"),
        RelationInstance(("g", "and", "d"), (0, 0), (2, 2), "none"),
    ]
    items = [
        ReItem(instance=i, enc=RelationExample(np.array([1, 2, 3]), (0, 0), (2, 2), 0))
        for i in insts
    ]
    records = [ResponseRecord(0, "assoc"), ResponseRecord(1, "no relation: none")]
    score = score_re_responses(items, records, ["assoc", "none"])
    assert score.report.strict_macro_f1 == pytest.approx(1.0)
    bad = [ResponseRecord(0, "assoc"), ResponseRecord(1, "unknowable")]
    score2 = score_re_responses(items, bad, ["assoc", "none"])
    assert score2.report.strict_macro_f1 < 1.0
