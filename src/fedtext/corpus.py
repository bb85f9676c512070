"""Corpus handling: CoNLL parsing, dedup, splits, partitions, synthetic data.

File formats owned here:

* tagging corpora: one ``token<TAB or space>tag`` record per line, blank line
  ends a sentence
* relation corpora: one instance per line with tab-separated fields
  ``tokens`` (space-joined), ``start:end`` for each of the two entity spans
  (inclusive), and the relation label
* prediction files: tagging format with the predicted tag as a third column
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

BIO_TAG = re.compile(r"^(?:O|[BI]-\S+)$")

T = TypeVar("T")


def _check_bio(labels: Sequence[str]) -> None:
    for tag in labels:
        if not BIO_TAG.match(tag):
            raise ValueError(f"tag {tag!r} is not valid BIO")


@dataclass(frozen=True)
class TaggedSentence:
    tokens: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.labels):
            raise ValueError("tokens and labels differ in length")
        if len(self.tokens) == 0:
            raise ValueError("empty sentence")
        _check_bio(self.labels)


@dataclass(frozen=True)
class RelationInstance:
    tokens: tuple[str, ...]
    span1: tuple[int, int]
    span2: tuple[int, int]
    label: str

    def __post_init__(self) -> None:
        if len(self.tokens) == 0:
            raise ValueError("empty sentence")
        if not all(self.tokens):
            raise ValueError(f"empty token at position {self.tokens.index('')}")
        for name, (s, e) in (("span1", self.span1), ("span2", self.span2)):
            if not (0 <= s <= e < len(self.tokens)):
                raise ValueError(f"{name} [{s}, {e}] out of range")
        if not self.label:
            raise ValueError("empty relation label")


@dataclass
class CorpusSplit:
    train: list
    dev: list
    test: list


# ---------------------------------------------------------------------------
# parsing and serialization

def _decode(text: str | bytes) -> str:
    return text.decode("utf-8") if isinstance(text, bytes) else text


def _read_columns(text: str | bytes, expected: str) -> Iterator[tuple[tuple[str, ...], ...]]:
    """Yield the columns of one blank-line-separated block at a time.  Each
    line holds the non-empty fields ``expected`` names ('token<SEP>tag', ...),
    tab- or else space-separated, all but the first BIO tags; errors name the line."""
    width = expected.count("<SEP>") + 1
    rows: list[list[str]] = []
    # the blank line appended ends the last block
    for lineno, line in enumerate(chain(_decode(text).splitlines(), [""]), start=1):
        if not line.strip():
            if rows:
                yield tuple(zip(*rows))
            rows = []
            continue
        fields = line.split("\t") if "\t" in line else line.split(" ")
        if len(fields) != width or not all(fields):
            raise ValueError(f"line {lineno}: expected '{expected}', got {line!r}")
        for tag in fields[1:]:
            if not BIO_TAG.match(tag):
                raise ValueError(f"line {lineno}: tag {tag!r} is not valid BIO")
        rows.append(fields)


def _write_columns(blocks: Iterable[Sequence[Sequence[str]]]) -> str:
    """Inverse of _read_columns: tab-joined lines, a blank line between blocks."""
    texts = ["\n".join("\t".join(row) for row in zip(*columns)) for columns in blocks]
    return "\n\n".join(texts) + ("\n" if texts else "")


def parse_conll(text: str | bytes) -> list[TaggedSentence]:
    """Read token/tag records; malformed lines are rejected with line numbers."""
    return [TaggedSentence(tokens, tags) for tokens, tags in _read_columns(text, "token<SEP>tag")]


def serialize_conll(sentences: Iterable[TaggedSentence]) -> str:
    return _write_columns((s.tokens, s.labels) for s in sentences)


def parse_predictions(text: str | bytes) -> list[tuple[TaggedSentence, tuple[str, ...]]]:
    """Three-column variant: (gold sentence, predicted tags) pairs."""
    blocks = _read_columns(text, "token<SEP>gold<SEP>pred")
    return [(TaggedSentence(tokens, gold), pred) for tokens, gold, pred in blocks]


def serialize_predictions(pairs: Iterable[tuple[TaggedSentence, Sequence[str]]]) -> str:
    return _write_columns((sent.tokens, sent.labels, pred) for sent, pred in pairs)


SPAN_FIELD = re.compile(r"^(\d+):(\d+)$")


def parse_relations(text: str | bytes) -> list[RelationInstance]:
    """One tab-separated instance per line: tokens, span1, span2, label."""
    instances = []
    for lineno, line in enumerate(_decode(text).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"line {lineno}: expected 4 tab-separated fields, got {len(fields)}")
        spans = []
        for raw in fields[1:3]:
            m = SPAN_FIELD.match(raw)
            if not m:
                raise ValueError(f"line {lineno}: span {raw!r} is not 'start:end'")
            spans.append((int(m.group(1)), int(m.group(2))))
        try:
            instances.append(
                RelationInstance(tuple(fields[0].split(" ")), spans[0], spans[1], fields[3])
            )
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return instances


def serialize_relations(instances: Iterable[RelationInstance]) -> str:
    lines = [
        "\t".join(
            (
                " ".join(inst.tokens),
                f"{inst.span1[0]}:{inst.span1[1]}",
                f"{inst.span2[0]}:{inst.span2[1]}",
                inst.label,
            )
        )
        for inst in instances
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# dedup, splits, partitions

def dedup(items: Sequence[T]) -> list[T]:
    """Drop exact duplicates, keeping the first occurrence of each."""
    seen: set = set()
    out: list[T] = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def split_80_10_10(items: Sequence[T], seed: int) -> CorpusSplit:
    """Shuffled 80/10/10 split; train gets floor(0.8 N) and, when the
    remainder is odd, dev receives the extra item."""
    n = len(items)
    if n < 3:
        raise ValueError(f"need at least 3 items to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(0.8 * n)
    rest = n - n_train
    n_dev = rest - rest // 2
    shuffled = [items[i] for i in order]
    return CorpusSplit(
        train=shuffled[:n_train],
        dev=shuffled[n_train : n_train + n_dev],
        test=shuffled[n_train + n_dev :],
    )


def partition_iid(items: Sequence[T], n_clients: int, seed: int) -> list[list[T]]:
    """Shuffle then deal round-robin; client sizes differ by at most one."""
    if n_clients < 1:
        raise ValueError("need at least one client")
    if n_clients > len(items):
        raise ValueError(f"cannot split {len(items)} items across {n_clients} clients")
    order = np.random.default_rng(seed).permutation(len(items))
    clients: list[list[T]] = [[] for _ in range(n_clients)]
    for pos, idx in enumerate(order):
        clients[pos % n_clients].append(items[idx])
    return clients


def partition_by_source(named_corpora: Sequence[tuple[str, Sequence[T]]]) -> list[list[T]]:
    """One client per named corpus, in input order."""
    if len(named_corpora) < 2:
        raise ValueError("by-source partitioning needs at least two corpora")
    for name, items in named_corpora:
        if not items:
            raise ValueError(f"source {name!r} is empty")
    return [list(items) for _, items in named_corpora]


def truncate(sentence: TaggedSentence, max_tokens: int = 512) -> TaggedSentence:
    if max_tokens < 1:
        raise ValueError("max_tokens must be >= 1")
    if len(sentence.tokens) <= max_tokens:
        return sentence
    return TaggedSentence(sentence.tokens[:max_tokens], sentence.labels[:max_tokens])


# ---------------------------------------------------------------------------
# synthetic corpora

# generic connective words; entity mentions are generated pseudo-words
FILLER_WORDS = (
    "the", "of", "in", "with", "and", "for", "was", "were", "that", "this",
    "study", "results", "showed", "observed", "patients", "analysis", "levels",
    "cases", "between", "after", "during", "under", "report", "findings",
)

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


def _pseudo_word(rng: np.random.Generator, taken: set[str]) -> str:
    while True:
        n_syll = int(rng.integers(2, 4))
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(n_syll)
        )
        if word not in taken and word not in FILLER_WORDS:
            taken.add(word)
            return word


def _mention_pool(rng: np.random.Generator, size: int, taken: set[str]) -> list[tuple[str, ...]]:
    pool = []
    for i in range(size):
        n_words = 2 if i % 3 == 2 else 1  # every third mention is two tokens
        pool.append(tuple(_pseudo_word(rng, taken) for _ in range(n_words)))
    return pool


@dataclass(frozen=True)
class SyntheticProfile:
    """Recipe for a generated tagging corpus.

    ``heterogeneity`` interpolates the entity lexicons: 0 means every source
    draws from one shared pool, 1 means each source draws only from its own
    disjoint pool.  ``cue_rate`` controls how often a type keyword follows a
    mention, giving context-based models something to latch onto.
    """

    types: tuple[str, ...]
    lexicon_size: int
    sentences: tuple[int, ...]
    sources: int
    heterogeneity: float
    cue_rate: float = 0.5

    def __post_init__(self) -> None:
        if not self.types or any(not t for t in self.types):
            raise ValueError("types must be non-empty names")
        if self.lexicon_size < 1:
            raise ValueError("lexicon_size must be >= 1")
        if self.sources < 1:
            raise ValueError("sources must be >= 1")
        if len(self.sentences) != self.sources or any(n < 1 for n in self.sentences):
            raise ValueError("need a positive sentence count per source")
        if not 0.0 <= self.heterogeneity <= 1.0:
            raise ValueError("heterogeneity must lie in [0, 1]")
        if not 0.0 <= self.cue_rate <= 1.0:
            raise ValueError("cue_rate must lie in [0, 1]")


def make_profile(
    types: Sequence[str],
    lexicon_size: int,
    sentences: int | Sequence[int],
    sources: int = 1,
    heterogeneity: float = 0.0,
    cue_rate: float = 0.5,
) -> SyntheticProfile:
    counts = (
        tuple(sentences)
        if isinstance(sentences, (tuple, list))
        else tuple([int(sentences)] * sources)
    )
    return SyntheticProfile(
        types=tuple(types),
        lexicon_size=lexicon_size,
        sentences=counts,
        sources=sources,
        heterogeneity=float(heterogeneity),
        cue_rate=float(cue_rate),
    )


def generate_synthetic(
    profile: SyntheticProfile, seed: int
) -> list[tuple[str, list[TaggedSentence]]]:
    """Deterministic synthetic corpora, one (name, sentences) pair per source.

    Sentence shapes, filler words, entity types, and cue placement cycle
    deterministically with the sentence index, so at heterogeneity 0 every
    source realizes exactly the same vocabulary; the seeded rng only chooses
    entity positions and, between the extremes, which pool a mention uses.
    """
    pool_rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    taken: set[str] = set()
    shared = {t: _mention_pool(pool_rng, profile.lexicon_size, taken) for t in profile.types}
    shard = [
        {t: _mention_pool(pool_rng, profile.lexicon_size, taken) for t in profile.types}
        for _ in range(profile.sources)
    ]
    cues = {t: t.lower() for t in profile.types}

    corpora = []
    for s in range(profile.sources):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1, s)))
        shared_count = {t: 0 for t in profile.types}
        shard_count = {t: 0 for t in profile.types}
        fill_cursor = 0
        sentences = []
        for i in range(profile.sentences[s]):
            etype = profile.types[i % len(profile.types)]
            use_shard = rng.random() < profile.heterogeneity
            if use_shard:
                mention = shard[s][etype][shard_count[etype] % profile.lexicon_size]
                shard_count[etype] += 1
            else:
                mention = shared[etype][shared_count[etype] % profile.lexicon_size]
                shared_count[etype] += 1

            n_fill = 5 + i % 4
            fillers = [
                FILLER_WORDS[(fill_cursor + j) % len(FILLER_WORDS)] for j in range(n_fill)
            ]
            fill_cursor += n_fill

            chunk = list(mention)
            labels = [f"B-{etype}"] + [f"I-{etype}"] * (len(mention) - 1)
            if (i // len(profile.types)) % 4 < round(4 * profile.cue_rate):
                chunk.append(cues[etype])
                labels.append("O")
            at = int(rng.integers(0, n_fill + 1))
            tokens = fillers[:at] + chunk + fillers[at:]
            tags = ["O"] * at + labels + ["O"] * (n_fill - at)
            sentences.append(TaggedSentence(tuple(tokens), tuple(tags)))
        corpora.append((f"source{s}", sentences))
    return corpora


def generate_synthetic_relations(
    lexicon_size: int,
    sentences: int,
    seed: int,
    labels: tuple[str, str] = ("assoc", "none"),
) -> list[RelationInstance]:
    """Small relation corpus: two mentions per sentence; the label is
    ``labels[0]`` exactly when both mentions come from the first half of
    their lexicons, so a pooled-embedding classifier can learn it."""
    if lexicon_size < 2:
        raise ValueError("lexicon_size must be >= 2")
    if sentences < 1:
        raise ValueError("sentences must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    taken: set[str] = set()
    pool_a = [_pseudo_word(rng, taken) for _ in range(lexicon_size)]
    pool_b = [_pseudo_word(rng, taken) for _ in range(lexicon_size)]
    half = lexicon_size // 2
    out = []
    for i in range(sentences):
        ia = int(rng.integers(lexicon_size))
        ib = int(rng.integers(lexicon_size))
        label = labels[0] if ia < half and ib < half else labels[1]
        n_fill = 4 + i % 3
        fillers = [FILLER_WORDS[(i + j) % len(FILLER_WORDS)] for j in range(n_fill)]
        cut = n_fill // 2
        tokens = fillers[:cut] + [pool_a[ia]] + fillers[cut:] + [pool_b[ib]]
        s1 = cut
        s2 = len(tokens) - 1
        out.append(RelationInstance(tuple(tokens), (s1, s1), (s2, s2), label))
    return out


# ---------------------------------------------------------------------------
# vocabularies

class Vocab:
    """Token index built from the training split only; id 0 is the unknown."""

    UNK = "<unk>"

    def __init__(self, tokens: list[str]):
        self.tokens = [self.UNK] + tokens
        self.index = {tok: i for i, tok in enumerate(self.tokens)}

    @classmethod
    def build(cls, sentences: Iterable[Sequence[str]]) -> "Vocab":
        seen: dict[str, None] = {}
        for sent in sentences:
            for tok in sent:
                seen.setdefault(tok, None)
        return cls(list(seen))

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        unk = 0
        return np.array([self.index.get(t, unk) for t in tokens], dtype=np.intp)


def build_tag_index(sentences: Iterable[TaggedSentence]) -> list[str]:
    """Deterministic tag list: 'O' first, remaining training tags sorted."""
    tags = {tag for s in sentences for tag in s.labels}
    tags.discard("O")
    return ["O"] + sorted(tags)


def build_relation_index(instances: Iterable[RelationInstance]) -> list[str]:
    return sorted({inst.label for inst in instances})
