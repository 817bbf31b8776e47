"""Word-level language models for decoding.

Every model implements the one protocol the decoder calls:

    start_state()              -> tuple of token ids
    score(state, token_id)     -> (natural-log probability, next state)
    vocab                      -> Vocabulary

The sentence end is scored as any token: `score(state, vocab.end_id)`.

A state is a tuple of token ids, the history so far. `score` accepts any such
tuple but reads only its last N tokens: order-1 for an n-gram, none for a
unigram, the receptive field for the conv LM. States that agree on those
tokens therefore score every continuation identically; the decoder relies on
that to merge hypotheses and cache scores, and ContextLimitedLM relies on it
to cut any model's context.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .errors import ArpaParseError, ConfigurationError, DomainError

LN10 = math.log(10.0)
MISSING_LOG10 = -99.0  # conventional stand-in for "effectively zero"
BIGRAM_DISCOUNT = 0.5  # fit_bigram_arpa's absolute discount per observed bigram
# the special tokens every vocabulary holds
UNKNOWN_TOKEN = "<unk>"
SENTENCE_BEGIN = "<s>"
SENTENCE_END = "</s>"


@dataclass(frozen=True)
class Vocabulary:
    tokens: tuple[str, ...]

    def __post_init__(self):
        index = {token: i for i, token in enumerate(self.tokens)}
        if len(index) != len(self.tokens):
            raise ConfigurationError("vocabulary tokens must be unique")
        for special in (UNKNOWN_TOKEN, SENTENCE_BEGIN, SENTENCE_END):
            if special not in index:
                raise ConfigurationError(f"special token {special!r} missing")
        object.__setattr__(self, "_index", index)  # token -> id, outside the fields

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def unknown_id(self) -> int:
        return self._index[UNKNOWN_TOKEN]

    @property
    def begin_id(self) -> int:
        return self._index[SENTENCE_BEGIN]

    @property
    def end_id(self) -> int:
        return self._index[SENTENCE_END]

    def id(self, token: str) -> int:
        """Index of `token`, falling back to the unknown token."""
        return self._index.get(token, self._index[UNKNOWN_TOKEN])


class NGramModel:
    """Back-off n-gram model in natural log space.

    `tables[k]` maps (k+1)-tuples of token ids to (log prob, back-off weight);
    ARPA log10 values are converted once at load time.
    """

    def __init__(self, order: int, vocab: Vocabulary,
                 tables: list[dict[tuple[int, ...], tuple[float, float]]]):
        self.order = order
        self.vocab = vocab
        self.tables = tables

    # -- protocol ----------------------------------------------------------
    def start_state(self) -> tuple[int, ...]:
        return (self.vocab.begin_id,) if self.order > 1 else ()

    def score(self, state: tuple[int, ...], token_id: int):
        logp = self._conditional(state, token_id)
        if self.order == 1:
            return logp, ()
        return logp, (state + (token_id,))[-(self.order - 1):]

    # -- internals ----------------------------------------------------------
    def _conditional(self, context: tuple[int, ...], token_id: int) -> float:
        context = context[-(self.order - 1):] if self.order > 1 else ()
        acc = 0.0
        while context:
            full = tuple(context) + (token_id,)
            entry = self.tables[len(full) - 1].get(full)
            if entry is not None:
                return acc + entry[0]
            ctx = self.tables[len(context) - 1].get(tuple(context))
            acc += ctx[1] if ctx is not None else 0.0
            context = context[1:]
        entry = self.tables[0].get((token_id,))
        return acc + (entry[0] if entry else MISSING_LOG10 * LN10)


def load_arpa(stream: TextIO | Iterable[str]) -> NGramModel:
    """Parse an ARPA back-off model; errors carry 1-based line numbers."""
    lines = list(stream)
    pos = 0

    def next_content():
        nonlocal pos
        while pos < len(lines):
            line = lines[pos].strip()
            pos += 1
            if line:
                return line, pos
        return None, pos

    line, no = next_content()
    if line != "\\data\\":
        raise ArpaParseError(no if line is not None else len(lines),
                             f"expected \\data\\ header, found {line!r}")
    declared: dict[int, int] = {}
    while True:
        line, no = next_content()
        if line is None:
            raise ArpaParseError(len(lines), "unexpected end of file in \\data\\ section")
        if line.startswith("\\"):
            break
        if not line.startswith("ngram "):
            raise ArpaParseError(no, f"expected 'ngram N=count', found {line!r}")
        body = line[len("ngram "):]
        if "=" not in body:
            raise ArpaParseError(no, f"malformed count declaration {line!r}")
        left, right = body.split("=", 1)
        try:
            declared[int(left)] = int(right)
        except ValueError:
            raise ArpaParseError(no, f"non-numeric ngram declaration {line!r}") from None
    if not declared or sorted(declared) != list(range(1, max(declared) + 1)):
        raise ArpaParseError(no, f"orders declared as {sorted(declared)} are not 1..n")
    order = max(declared)

    token_list: list[str] = []
    token_ids: dict[str, int] = {}
    tables: list[dict[tuple[int, ...], tuple[float, float]]] = [dict() for _ in range(order)]

    def intern(token: str, line_no: int, known_only: bool) -> int:
        tid = token_ids.get(token)
        if tid is None:
            if known_only:
                raise ArpaParseError(line_no, f"token {token!r} never declared as a unigram")
            tid = len(token_list)
            token_ids[token] = tid
            token_list.append(token)
        return tid

    for k in range(1, order + 1):
        expected_header = f"\\{k}-grams:"
        if line != expected_header:
            raise ArpaParseError(no, f"expected section {expected_header!r}, found {line!r}")
        count = 0
        while True:
            line, no = next_content()
            if line is None:
                raise ArpaParseError(len(lines), f"unexpected end of file in {expected_header}")
            if line.startswith("\\"):
                break
            fields = line.split()
            has_backoff = len(fields) == k + 2
            if not (has_backoff or len(fields) == k + 1):
                raise ArpaParseError(no, f"{k}-gram entry has {len(fields)} fields")
            try:
                logp = float(fields[0])
                backoff = float(fields[-1]) if has_backoff else 0.0
            except ValueError:
                raise ArpaParseError(no, f"non-numeric probability in {line!r}") from None
            if not logp <= 1e-9:  # NaN fails too
                raise ArpaParseError(no, f"log10 probability {fields[0]} is positive or NaN")
            if not backoff < math.inf:
                raise ArpaParseError(no, f"back-off weight {fields[-1]} is NaN or +inf")
            ids = tuple(
                intern(tok, no, known_only=(k > 1)) for tok in fields[1 : k + 1]
            )
            if k > 1 and ids[:-1] not in tables[k - 2]:
                raise ArpaParseError(
                    no, f"context of {k}-gram {' '.join(fields[1:k+1])!r} has no {k-1}-gram entry"
                )
            if ids in tables[k - 1]:
                raise ArpaParseError(no, f"duplicate {k}-gram {' '.join(fields[1:k+1])!r}")
            tables[k - 1][ids] = (logp * LN10, backoff * LN10)
            count += 1
        if count != declared[k]:
            raise ArpaParseError(
                no, f"\\{k}-grams: section declares {declared[k]} entries but has {count}"
            )
    if line != "\\end\\":
        raise ArpaParseError(no, f"expected \\end\\ terminator, found {line!r}")

    for special in (UNKNOWN_TOKEN, SENTENCE_BEGIN, SENTENCE_END):
        if special not in token_ids:
            token_ids[special] = len(token_list)
            token_list.append(special)
    vocab = Vocabulary(tuple(token_list))
    return NGramModel(order, vocab, tables)


class ContextLimitedLM:
    """Scores as if only the last `limit` history tokens existed, over any protocol model."""

    def __init__(self, base, limit: int):
        if limit < 1:
            raise ConfigurationError("context limit must be >= 1")
        self.base = base
        self.limit = limit
        self.vocab = base.vocab

    def start_state(self) -> tuple[int, ...]:
        return (self.vocab.begin_id,)

    def score(self, state: tuple[int, ...], token_id: int):
        logp = self.base.score(state[-self.limit:], token_id)[0]
        return logp, (state + (token_id,))[-self.limit:]


def perplexity(lm, corpus: Sequence[Sequence[str]]) -> float:
    """exp of per-token negative log likelihood.

    Sentence-end predictions count toward the token total; sentence-begin
    tokens condition the first word but are never predicted.
    """
    sentences = list(corpus)
    if not sentences:
        raise DomainError("perplexity of an empty corpus is undefined")
    vocab = lm.vocab
    total = 0.0
    count = 0
    for sentence in sentences:
        state = lm.start_state()
        for token in sentence:
            logp, state = lm.score(state, vocab.id(token))
            total += logp
            count += 1
        total += lm.score(state, vocab.end_id)[0]
        count += 1
    return math.exp(-total / count)


class LruCache:
    """Bounded mapping with least-recently-used eviction."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self.hits = 0

    def get(self, key):
        if key in self._data:
            self._data.move_to_end(key)
            self.hits += 1
            return self._data[key]
        return None

    def put(self, key, value):
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


def fit_bigram_arpa(sentences: Sequence[Sequence[str]]) -> str:
    """Estimate an absolute-discounting back-off bigram and render ARPA text.

    Leftover probability mass from discounting observed continuations funds
    the back-off weights, so conditionals sum to one exactly. A sentence that
    holds <s> or </s> is refused: the model adds those markers itself.
    """
    if not sentences:
        raise DomainError("cannot fit a bigram on an empty corpus")
    for no, sentence in enumerate(sentences, start=1):
        marker = next((w for w in sentence if w in (SENTENCE_BEGIN, SENTENCE_END)), None)
        if marker:
            raise DomainError(f"sentence {no} holds the sentence marker {marker}")
    unigram_counts: dict[str, float] = {}
    bigram_counts: dict[tuple[str, str], int] = {}
    context_totals: dict[str, int] = {}
    for sentence in sentences:
        chain = [SENTENCE_BEGIN, *sentence, SENTENCE_END]
        for token in chain[1:]:
            unigram_counts[token] = unigram_counts.get(token, 0) + 1
        for prev, cur in zip(chain, chain[1:]):
            bigram_counts[(prev, cur)] = bigram_counts.get((prev, cur), 0) + 1
            context_totals[prev] = context_totals.get(prev, 0) + 1
    unigram_counts.setdefault(UNKNOWN_TOKEN, 0)
    smoothed = {tok: c + 0.5 for tok, c in unigram_counts.items()}
    total = sum(smoothed.values())
    uni_prob = {tok: c / total for tok, c in smoothed.items()}

    begin_backoff = _context_backoff(SENTENCE_BEGIN, bigram_counts, context_totals, uni_prob)
    uni_lines = [f"{MISSING_LOG10:.6f}\t{SENTENCE_BEGIN}\t{begin_backoff:.6f}"]
    for tok in sorted(uni_prob):
        backoff = _context_backoff(tok, bigram_counts, context_totals, uni_prob)
        uni_lines.append(f"{math.log10(uni_prob[tok]):.6f}\t{tok}\t{backoff:.6f}")
    bi_lines = []
    for (prev, cur), count in sorted(bigram_counts.items()):
        prob = (count - BIGRAM_DISCOUNT) / context_totals[prev]
        bi_lines.append(f"{math.log10(prob):.6f}\t{prev} {cur}")
    out = ["\\data\\", f"ngram 1={len(uni_lines)}", f"ngram 2={len(bi_lines)}", "",
           "\\1-grams:", *uni_lines, "", "\\2-grams:", *bi_lines, "", "\\end\\", ""]
    return "\n".join(out)


def _context_backoff(context, bigram_counts, context_totals, uni_prob) -> float:
    total = context_totals.get(context)
    if not total:
        return 0.0
    seen = [cur for (prev, cur) in bigram_counts if prev == context]
    discounted_mass = BIGRAM_DISCOUNT * len(seen) / total
    unseen_uni = 1.0 - sum(uni_prob[w] for w in seen)
    if unseen_uni <= 1e-12:
        return MISSING_LOG10
    return math.log10(discounted_mass / unseen_uni)
