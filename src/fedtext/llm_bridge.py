"""Prompt construction and offline scoring of language-model responses.

Responses never come from a live service: callers collect them elsewhere and
feed back line-delimited records.  For tagging, responses echo the sentence
with entities wrapped in a configurable HTML tag; parsing recovers spans by
aligning each highlighted substring to the original token sequence.  For
relation instances, responses map to labels by case-insensitive containment
of the label name, with a reserved abstain label for everything unmapped.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .evaluation import EntitySpan, EvalReport, re_report, score_ner

if TYPE_CHECKING:  # tasks imports this module for its templates and scorers
    from .tasks import NerItem, ReItem

ABSTAIN_LABEL = "<abstain>"
TAG_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*")  # fullmatch: a usable highlight tag

NER_TEMPLATE = (
    "Task: the task is to extract {etype} entities in a sentence\n"
    "Input: the input is a sentence.\n"
    "Output: the output is an HTML that highlights all the {etype} entities in "
    "the sentence. The highlighting should only use HTML tags <{tag}> and "
    "</{tag}> and no other tags.\n"
)

RE_TEMPLATE = (
    "Task: the task is to determine the {etype} relation between two entities "
    "in a sentence\n"
    "Input: the input is a sentence followed by the two entity mentions.\n"
    "Output: the output is the name of the relation between the two entities.\n"
)

# stock one-shot exemplar for disease tagging; tags are substituted at render time
EXEMPLAR_SENTENCE = (
    "In summary, inactivation of the murine ATP7B gene produces a form of "
    "cirrhotic liver disease that resembles Wilson disease in humans and toxic "
    "milk phenotype in the mouse"
)
_EXEMPLAR_ENTITIES = ("cirrhotic liver disease", "Wilson disease")


def default_ner_exemplar(tag: str) -> tuple[str, str]:
    """(input, highlighted output) pair for one-shot disease prompts."""
    highlighted = EXEMPLAR_SENTENCE
    for ent in _EXEMPLAR_ENTITIES:
        highlighted = highlighted.replace(ent, f"<{tag}>{ent}</{tag}>")
    return EXEMPLAR_SENTENCE, highlighted


@dataclass(frozen=True)
class PromptSpec:
    """How to phrase one request: ``entity_type`` fills the template's
    ``{etype}``, the entity noun ("disease") or the relation domain
    ("gene-disease"); ``tag`` is the HTML tag name a response must use, spelled
    out in a template that names it; an ``exemplar`` (input, output) pair
    makes the prompt one-shot."""

    template: str
    entity_type: str
    tag: str
    exemplar: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if not self.entity_type:
            raise ValueError("entity_type must be non-empty")
        if "{tag}" in self.template and not TAG_NAME.fullmatch(self.tag):
            raise ValueError(f"tag {self.tag!r} is not a usable HTML tag name")


def build_prompt(spec: PromptSpec, text: str) -> str:
    """Template lines, the optional Example block, then the query input."""
    if not text:
        raise ValueError("empty input text")
    prompt = spec.template.format(etype=spec.entity_type, tag=spec.tag)
    if spec.exemplar is not None:
        ex_in, ex_out = spec.exemplar
        prompt += f"Example:\nInput: {ex_in}\nOutput: {ex_out}\n"
    return prompt + f"Input: {text}"


@dataclass
class HighlightDiagnostics:
    """Tally of recovery events while parsing one batch of responses."""

    dropped: int = 0
    unclosed: int = 0
    nested: int = 0
    stray_close: int = 0


@lru_cache(maxsize=16)
def _marker(tag: str) -> re.Pattern:
    """``<(/?)tag>``, compiled once per tag; its group is "/" on a close.  A
    ``tag`` TAG_NAME does not match is refused: an empty one would read
    ``<>`` and ``</>`` as highlights."""
    if not TAG_NAME.fullmatch(tag):
        raise ValueError(f"tag {tag!r} is not a usable HTML tag name")
    return re.compile(rf"<(/?){re.escape(tag)}>")


def _highlight_regions(response: str, marker: re.Pattern, diag: HighlightDiagnostics) -> list[str]:
    """Text between the open and close tags ``marker`` matches, from one
    split of the response.  Nested opens flatten into the enclosing region,
    each inner marker read as one space; stray closes are ignored; an
    unclosed open runs to the end of the response."""
    pieces = marker.split(response)  # text, then (close's "/" or "", text) per marker
    regions: list[str] = []
    parts: list[str] = []
    depth = 0
    for i in range(1, len(pieces), 2):
        if not pieces[i]:
            if depth == 0:
                parts = []
            else:
                diag.nested += 1
            depth += 1
        elif depth == 0:
            diag.stray_close += 1
            continue
        else:
            depth -= 1
            if depth == 0:
                regions.append(" ".join(parts))
                continue
        parts.append(pieces[i + 1])  # the text after an open or an inner marker
    if depth > 0:
        diag.unclosed += 1
        regions.append(" ".join(parts))
    return regions


def _find_subsequence(haystack: list[str], needle: list[str], cursor: int) -> int:
    """First position of ``needle`` in ``haystack`` at or after ``cursor``,
    else the first one before it; -1 if there is none.  ``list.index`` jumps
    between the positions that hold the needle's first token."""
    n = len(needle)
    end = len(haystack) - n + 1
    first = needle[0]
    for lo, hi in ((cursor, end), (0, min(cursor, end))):
        while lo < hi:
            try:
                lo = haystack.index(first, lo, hi)
            except ValueError:
                break
            if haystack[lo : lo + n] == needle:
                return lo
            lo += 1
    return -1


def parse_highlights(
    response: str,
    tokens: Sequence[str],
    entity_label: str,
    tag: str,
    diagnostics: HighlightDiagnostics | None = None,
    casefold: bool = False,
) -> list[EntitySpan]:
    """Spans for the highlighted regions of one response.

    Each region is whitespace-tokenized and aligned to the original sentence
    by its longest contiguous token run that appears there, the first such
    run of the region winning a tie.  The run is placed at its first
    occurrence at or after the end of the previous match, else at its first
    one before it; regions with no token match are dropped and counted.
    The response is split once on the tag's markers, and each run is
    searched with ``list.index``, which jumps between the positions of its
    first token.  ``casefold`` switches to case-insensitive alignment (off
    by default; kept for sensitivity checks).  A ``tag`` TAG_NAME does not
    match is refused.
    """
    marker = _marker(tag)
    diag = diagnostics if diagnostics is not None else HighlightDiagnostics()
    haystack = [t.casefold() for t in tokens] if casefold else list(tokens)
    spans: list[EntitySpan] = []
    cursor = 0
    for region in _highlight_regions(response, marker, diag):
        words = region.split()
        if casefold:
            words = [w.casefold() for w in words]
        for n in range(len(words), 0, -1):
            for off in range(len(words) - n + 1):
                at = _find_subsequence(haystack, words[off : off + n], cursor)
                if at >= 0:
                    break
            else:
                continue
            spans.append(EntitySpan(entity_label, at, at + n - 1))
            cursor = at + n
            break
        else:
            diag.dropped += 1
    return spans


def sample_test_subset(items: Sequence, n: int, seed: int) -> list:
    """Uniform sample without replacement; n equal to the set size shuffles."""
    if n < 1:
        raise ValueError("subset size must be >= 1")
    if n > len(items):
        raise ValueError(f"cannot sample {n} items from {len(items)}")
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order[:n]]


@dataclass
class ResponseRecord:
    id: int
    response: str


def read_responses(text: str | bytes) -> list[ResponseRecord]:
    """One record per non-blank line, each a JSON object with an integer
    ``id`` and a string ``response``; anything else, or a repeated id, is a
    ValueError naming the line."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    records = []
    seen: set[int] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            rec = ResponseRecord(id=obj["id"], response=obj["response"])
        except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
            raise ValueError(f"line {lineno}: bad response record ({exc})") from None
        if type(rec.id) is not int:  # a JSON true or 1.7 is no id
            raise ValueError(f"line {lineno}: response id must be an integer, not {rec.id!r}")
        if not isinstance(rec.response, str):
            raise ValueError(f"line {lineno}: response must be a string, not {rec.response!r}")
        if rec.id in seen:
            raise ValueError(f"line {lineno}: duplicate response id {rec.id}")
        seen.add(rec.id)
        records.append(rec)
    return records


def _responses_in_order(records: Sequence[ResponseRecord], n: int) -> list[str]:
    """Response texts for ids 0..n-1; any missing id is an error."""
    by_id = {r.id: r.response for r in records}
    missing = [i for i in range(n) if i not in by_id]
    if missing:
        raise ValueError(f"missing responses for ids {missing}")
    return [by_id[i] for i in range(n)]


@dataclass
class LlmScore:
    report: EvalReport
    diagnostics: HighlightDiagnostics = field(default_factory=HighlightDiagnostics)


def score_ner_responses(
    subset: Sequence[NerItem],
    records: Sequence[ResponseRecord],
    entity_label: str,
    tag: str,
    casefold: bool = False,
) -> LlmScore:
    """Score highlight responses against the gold subset; ids index the
    subset in order.  Gold spans collapse to the single prompted entity type,
    matching what the responses can express."""
    responses = _responses_in_order(records, len(subset))
    diag = HighlightDiagnostics()
    gold, pred = [], []
    for item, response in zip(subset, responses):
        gold.append([EntitySpan(entity_label, s.start, s.end) for s in item.gold_spans])
        pred.append(
            parse_highlights(
                response, item.sentence.tokens, entity_label, tag,
                diagnostics=diag, casefold=casefold,
            )
        )
    return LlmScore(report=score_ner(gold, pred), diagnostics=diag)


def map_relation_response(response: str, labels: Sequence[str]) -> str:
    """Case-insensitive containment of the label name; longest label wins,
    anything unmapped becomes the abstain label."""
    low = response.casefold()
    for label in sorted(labels, key=lambda l: (-len(l), l)):
        if label.casefold() in low:
            return label
    return ABSTAIN_LABEL


def score_re_responses(
    subset: Sequence[ReItem], records: Sequence[ResponseRecord], labels: Sequence[str]
) -> LlmScore:
    gold = [item.instance.label for item in subset]
    pred = [map_relation_response(r, labels) for r in _responses_in_order(records, len(subset))]
    return LlmScore(report=re_report(gold, pred))
