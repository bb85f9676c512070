"""Corpus I/O, splitting, partitioning, and the synthetic generators."""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fedtext.corpus import (
    FILLER_WORDS,
    RelationInstance,
    TaggedSentence,
    Vocab,
    dedup,
    generate_synthetic,
    generate_synthetic_relations,
    make_profile,
    parse_conll,
    parse_predictions,
    parse_relations,
    partition_by_source,
    partition_iid,
    serialize_conll,
    serialize_relations,
    split_80_10_10,
)
from fedtext.tasks import NER, RE
from oracles import serialize_predictions

SAMPLE = "the\tO\nbrca1\tB-GENE\ngene\tO\n\nwilson\tB-DIS\ndisease\tI-DIS\n"

# a token or label: no whitespace, line breaks or control characters, which
# the file formats use as separators
WORD = st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6)
TAG = st.one_of(st.just("O"), st.builds("{}-{}".format, st.sampled_from("BI"), WORD))


@st.composite
def tagged_sentences(draw):
    n = draw(st.integers(1, 6))
    tokens = draw(st.lists(WORD, min_size=n, max_size=n))
    labels = draw(st.lists(TAG, min_size=n, max_size=n))
    return TaggedSentence(tuple(tokens), tuple(labels))


@st.composite
def relation_instances(draw):
    tokens = tuple(draw(st.lists(WORD, min_size=1, max_size=6)))

    def span():
        start = draw(st.integers(0, len(tokens) - 1))
        return start, draw(st.integers(start, len(tokens) - 1))

    return RelationInstance(tokens, span(), span(), draw(WORD))


# ---------------------------------------------------------------------------
# sentence and file formats

def test_tagged_sentence_validation():
    with pytest.raises(ValueError):
        TaggedSentence(("a", "b"), ("O",))
    with pytest.raises(ValueError):
        TaggedSentence((), ())
    with pytest.raises(ValueError):
        TaggedSentence(("a",), ("X-GENE",))
    with pytest.raises(ValueError):
        TaggedSentence(("a",), ("B",))


def test_relation_instance_validation():
    with pytest.raises(ValueError):
        RelationInstance(("a", "b"), (1, 0), (0, 0), "assoc")
    with pytest.raises(ValueError):
        RelationInstance(("a", "b"), (0, 0), (0, 2), "assoc")
    with pytest.raises(ValueError):
        RelationInstance(("a", "b"), (0, 0), (1, 1), "")


def test_parse_conll_basic():
    sents = parse_conll(SAMPLE)
    assert len(sents) == 2
    assert sents[0].tokens == ("the", "brca1", "gene")
    assert sents[0].labels == ("O", "B-GENE", "O")
    assert sents[1].labels == ("B-DIS", "I-DIS")


def test_parse_conll_accepts_single_space_and_bytes():
    assert parse_conll("tok O\n") == parse_conll(b"tok\tO\n")


def test_parse_conll_reports_line_numbers():
    bad = "ok\tO\n\nfoo\tB-GENE\nbroken-line-without-tag\n"
    with pytest.raises(ValueError, match="line 4"):
        parse_conll(bad)


def test_parse_conll_rejects_bad_tag_with_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_conll("ok\tO\nbad\tQ-GENE\n")


@given(st.lists(tagged_sentences(), max_size=5))
@example(parse_conll(SAMPLE))
def test_conll_round_trip(sents):
    assert parse_conll(serialize_conll(sents)) == sents


def test_predictions_round_trip():
    sents = parse_conll(SAMPLE)
    pairs = [(s, tuple("O" for _ in s.tokens)) for s in sents]
    text = serialize_predictions(pairs)
    back = parse_predictions(text)
    assert [(s, p) for s, p in back] == pairs


def test_parse_predictions_rejects_bad_column_count():
    with pytest.raises(ValueError, match="line 1"):
        parse_predictions("tok\tO\n")


@given(st.lists(relation_instances(), max_size=5))
@example([RelationInstance(("a", "b", "c"), (0, 0), (2, 2), "assoc")])
def test_relations_round_trip(instances):
    assert parse_relations(serialize_relations(instances)) == instances


def test_parse_relations_rejects_malformed_span():
    with pytest.raises(ValueError, match="line 1"):
        parse_relations("a b c\t0:x\t2:2\tassoc\n")


@pytest.mark.parametrize("tokens", [" a b", "a b ", "a  b"])
def test_parse_relations_rejects_empty_tokens(tokens):
    # a stray space would otherwise add an empty token and shift every span
    with pytest.raises(ValueError, match="line 2: empty token"):
        parse_relations(f"a b\t0:0\t1:1\tx\n{tokens}\t0:0\t1:1\tx\n")
    with pytest.raises(ValueError, match="empty token"):
        RelationInstance(tuple(tokens.split(" ")), (0, 0), (1, 1), "x")


# ---------------------------------------------------------------------------
# dedup / split / partition

def test_dedup_keeps_first_occurrence():
    s1 = TaggedSentence(("a",), ("O",))
    s2 = TaggedSentence(("b",), ("O",))
    out = dedup([s1, s2, TaggedSentence(("a",), ("O",)), s2])
    assert out == [s1, s2]


def test_split_sizes_at_12657():
    items = list(range(12657))
    split = split_80_10_10(items, 0)
    assert (len(split.train), len(split.dev), len(split.test)) == (10125, 1266, 1266)


def test_split_sizes_small_and_odd_remainder():
    split = split_80_10_10(list(range(10)), 3)
    assert (len(split.train), len(split.dev), len(split.test)) == (8, 1, 1)
    # remainder 3 after train: dev gets the extra item
    split = split_80_10_10(list(range(14)), 3)
    assert (len(split.train), len(split.dev), len(split.test)) == (11, 2, 1)


def test_split_preserves_the_multiset():
    items = list(range(97))
    split = split_80_10_10(items, 5)
    assert sorted(split.train + split.dev + split.test) == items


def test_split_is_deterministic_and_seed_sensitive():
    items = list(range(50))
    a = split_80_10_10(items, 1)
    b = split_80_10_10(items, 1)
    c = split_80_10_10(items, 2)
    assert a.train == b.train and a.dev == b.dev and a.test == b.test
    assert a.train != c.train


def test_split_rejects_tiny_corpora():
    with pytest.raises(ValueError):
        split_80_10_10([1, 2], 0)


def test_partition_iid_sizes_and_multiset():
    items = list(range(23))
    clients = partition_iid(items, 4, 7)
    sizes = sorted(len(c) for c in clients)
    assert sizes == [5, 6, 6, 6]
    assert sorted(x for c in clients for x in c) == items


def test_partition_iid_rejects_more_clients_than_items():
    with pytest.raises(ValueError):
        partition_iid([1, 2], 3, 0)


def test_partition_by_source():
    assert partition_by_source([("a", [1, 2]), ("b", [3])]) == [[1, 2], [3]]
    with pytest.raises(ValueError):
        partition_by_source([("solo", [1])])
    with pytest.raises(ValueError):
        partition_by_source([("a", [1]), ("empty", [])])


# ---------------------------------------------------------------------------
# synthetic corpora

def entity_tokens(sentences):
    toks = set()
    for s in sentences:
        for tok, lab in zip(s.tokens, s.labels):
            if lab != "O":
                toks.add(tok)
    return toks


def test_synthetic_is_deterministic():
    prof = make_profile(["GENE", "DIS"], lexicon_size=10, sentences=40, sources=2,
                        heterogeneity=0.5)
    a = generate_synthetic(prof, 3)
    b = generate_synthetic(prof, 3)
    assert a == b
    c = generate_synthetic(prof, 4)
    assert a != c


def test_synthetic_source_names_and_counts():
    prof = make_profile(["GENE"], lexicon_size=5, sentences=[12, 8], sources=2)
    out = generate_synthetic(prof, 0)
    assert [name for name, _ in out] == ["source0", "source1"]
    assert [len(s) for _, s in out] == [12, 8]


def test_synthetic_sentences_are_valid_bio_with_one_mention():
    prof = make_profile(["GENE", "DIS"], lexicon_size=8, sentences=30)
    (_, sents), = generate_synthetic(prof, 1)
    for s in sents:
        # construction already validates BIO; check exactly one entity
        assert sum(1 for lab in s.labels if lab.startswith("B-")) == 1


def test_homogeneous_sources_share_a_vocabulary():
    prof = make_profile(["GENE", "DIS"], lexicon_size=12, sentences=300, sources=2,
                        heterogeneity=0.0)
    (_, s0), (_, s1) = generate_synthetic(prof, 5)
    vocab0 = {t for s in s0 for t in s.tokens}
    vocab1 = {t for s in s1 for t in s.tokens}
    assert vocab0 == vocab1


def test_heterogeneous_sources_have_disjoint_entity_lexicons():
    prof = make_profile(["GENE", "DIS"], lexicon_size=12, sentences=300, sources=2,
                        heterogeneity=1.0)
    (_, s0), (_, s1) = generate_synthetic(prof, 5)
    assert entity_tokens(s0).isdisjoint(entity_tokens(s1))


def test_entity_mentions_avoid_filler_words():
    prof = make_profile(["GENE", "DIS"], lexicon_size=20, sentences=200)
    (_, sents), = generate_synthetic(prof, 9)
    assert entity_tokens(sents).isdisjoint(set(FILLER_WORDS))


def test_cue_rate_controls_cue_frequency():
    for rate, expect in ((0.0, 0), (1.0, None)):
        prof = make_profile(["GENE"], lexicon_size=6, sentences=80, cue_rate=rate)
        (_, sents), = generate_synthetic(prof, 2)
        with_cue = 0
        for s in sents:
            toks = list(s.tokens)
            labs = list(s.labels)
            for i, lab in enumerate(labs):
                if lab.startswith(("B-", "I-")) and i + 1 < len(toks):
                    if labs[i + 1] == "O" and toks[i + 1] == "gene":
                        with_cue += 1
        if expect == 0:
            assert with_cue == 0
        else:
            assert with_cue == len(sents)  # every mention gets its cue


def test_make_profile_validation():
    with pytest.raises(ValueError):
        make_profile([], lexicon_size=5, sentences=10)
    with pytest.raises(ValueError):
        make_profile(["GENE"], lexicon_size=0, sentences=10)
    with pytest.raises(ValueError):
        make_profile(["GENE"], lexicon_size=5, sentences=[10, 10], sources=3)
    with pytest.raises(ValueError):
        make_profile(["GENE"], lexicon_size=5, sentences=10, heterogeneity=1.5)


def test_synthetic_relations_label_rule_and_determinism():
    insts = generate_synthetic_relations(lexicon_size=10, sentences=60, seed=4)
    assert insts == generate_synthetic_relations(lexicon_size=10, sentences=60, seed=4)
    labels = {i.label for i in insts}
    assert labels <= {"assoc", "none"}
    assert len(labels) == 2  # both classes realized
    for inst in insts:
        for s, e in (inst.span1, inst.span2):
            assert 0 <= s <= e < len(inst.tokens)


# ---------------------------------------------------------------------------
# vocabularies

def test_vocab_reserves_unk_and_keeps_first_occurrence_order():
    v = Vocab.build([("b", "a"), ("a", "c")])
    assert v.index[Vocab.UNK] == 0
    assert v.encode(["b", "a", "c"]).tolist() == [1, 2, 3]


def test_vocab_encodes_unknown_tokens_as_unk():
    v = Vocab.build([("a",)])
    assert v.encode(["a", "zzz"]).tolist() == [1, 0]
    assert len(v) == 2


def test_build_tag_index_puts_outside_first():
    sents = parse_conll(SAMPLE)
    tags = NER.label_index(sents)
    assert tags[0] == "O"
    assert tags == ["O"] + sorted(t for t in tags if t != "O")
    assert set(tags) == {"O", "B-GENE", "B-DIS", "I-DIS"}


def test_build_relation_index_is_sorted():
    insts = [
        RelationInstance(("a", "b"), (0, 0), (1, 1), "none"),
        RelationInstance(("a", "b"), (0, 0), (1, 1), "assoc"),
    ]
    assert RE.label_index(insts) == ["assoc", "none"]
