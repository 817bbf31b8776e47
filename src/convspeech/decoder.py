"""Lexicon-constrained beam search with language-model fusion.

Hypotheses walk a prefix trie over word spellings, one emission frame at a
time. Each frame a hypothesis may advance to a trie child, repeat its last
letter in place, or take a silence step; silence at a terminal emits the word
(scoring it with the LM) and resets to the trie root, so silence delimits
words. The search maximizes

    acoustic path pool + alpha * log P_lm(words) + beta * |words|
                       - gamma * (# silence frames)

where the acoustic pool is the log-sum-exp over all letter paths merged into
a hypothesis. Merging pools the silence-penalty-adjusted accumulator, which
reduces to pooling raw acoustic scores when gamma = 0 and keeps the objective
exact otherwise. An exhaustive enumeration oracle computes the identical
objective on tiny instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .acoustic import EmissionTable
from .criterion import Alphabet, as_scores, as_transitions, encode_target
from .errors import (
    CapacityError,
    ConfigurationError,
    EmptyBeamError,
    VocabularyError,
)
from .metrics import edit_distance_alignment
from .util import NEG_INF, logsumexp


class TrieNode:
    __slots__ = ("children", "words")

    def __init__(self):
        self.children: dict[int, TrieNode] = {}
        self.words: list[str] = []


@dataclass
class LexiconTrie:
    alphabet: Alphabet
    root: TrieNode
    num_words: int


def build_trie(lexicon: dict[str, Sequence[str]], alphabet: Alphabet) -> LexiconTrie:
    """Prefix trie over repetition-encoded word spellings.

    Spellings are given as plain letter sequences; doubled letters are
    rewritten with the repetition token before insertion, matching the target
    encoding the acoustic model is trained on. Homophones share a terminal.
    """
    root = TrieNode()
    count = 0
    for word, spelling in lexicon.items():
        if len(spelling) == 0:
            raise VocabularyError(f"word {word!r} has an empty spelling")
        if alphabet.silence_token in spelling:
            raise VocabularyError(f"word {word!r} spelling contains the silence token")
        encoded = encode_target(alphabet, list(spelling)).encoded
        node = root
        for letter in encoded:
            node = node.children.setdefault(int(letter), TrieNode())
        node.words.append(word)
        count += 1
    return LexiconTrie(alphabet, root, count)


@dataclass
class DecoderOptions:
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    beam_size: int = 2500
    beam_score: float = 26.0
    normalized_emissions: bool = False
    merge_mode: str = "logadd"  # "logadd" | "max" | "off"

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ConfigurationError("alpha, beta, gamma must be non-negative")
        if self.beam_size < 1:
            raise ConfigurationError("beam_size must be >= 1")
        if self.beam_score < 0:
            raise ConfigurationError("beam_score must be non-negative")
        if self.merge_mode not in ("logadd", "max", "off"):
            raise ConfigurationError(f"unknown merge mode {self.merge_mode!r}")


@dataclass
class Hypothesis:
    """One beam entry.

    `acc` pools the acoustic path scores (emissions plus transitions) with the
    per-frame silence penalty already folded in; the reported acoustic
    component adds gamma * silence_count back. `lm_raw` is the unweighted LM
    log probability of the words emitted so far.
    """

    trie_node: TrieNode
    lm_state: tuple
    last_letter: int | None
    acc: float = 0.0
    lm_raw: float = 0.0
    word_count: int = 0
    silence_count: int = 0
    parent: "Hypothesis | None" = None
    step_letter: int | None = None
    step_words: tuple[str, ...] = ()

    def total(self, opts: DecoderOptions) -> float:
        return self.acc + opts.alpha * self.lm_raw + opts.beta * self.word_count

    def merge_key(self):
        return (id(self.trie_node), self.lm_state, self.last_letter)


@dataclass
class DecodeResult:
    words: list[str]
    letter_path: list[int]
    objective: float
    am_component: float
    lm_component: float
    word_count: int
    silence_count: int


def merge_hypotheses(beam: list[Hypothesis], opts: DecoderOptions,
                     key=Hypothesis.merge_key) -> list[Hypothesis]:
    """Pool hypotheses with identical (trie node, LM state, last letter).

    The pooled accumulator is the log-add of the members' accumulators (or the
    max in "max" mode); every other field comes from the highest-total member.
    Beam order follows each group's first appearance.
    """
    if opts.merge_mode == "off":
        return beam
    groups: dict = {}
    order: list = []
    for hyp in beam:
        k = key(hyp)
        if k in groups:
            groups[k].append(hyp)
        else:
            groups[k] = [hyp]
            order.append(k)
    merged = []
    for k in order:
        members = groups[k]
        if len(members) == 1:
            merged.append(members[0])
            continue
        winner = max(members, key=lambda h: h.total(opts))
        if opts.merge_mode == "logadd":
            pooled = logsumexp(np.array([h.acc for h in members]))
        else:
            pooled = max(h.acc for h in members)
        merged.append(replace(winner, acc=float(pooled)))
    return merged


def prune(beam: list[Hypothesis], opts: DecoderOptions) -> list[Hypothesis]:
    """Drop hypotheses below best - beam_score, then keep the top beam_size.

    Ties break deterministically by insertion order (stable sort).
    """
    if not beam:
        return beam
    totals = [h.total(opts) for h in beam]
    best = max(totals)
    kept = [h for h, t in zip(beam, totals) if t >= best - opts.beam_score]
    kept.sort(key=lambda h: -h.total(opts))
    return kept[: opts.beam_size]


def _maybe_log_softmax(emissions, opts: DecoderOptions) -> np.ndarray:
    """Score array; with opts.normalized_emissions, log-softmaxed per frame unless already."""
    f = as_scores(emissions)
    already = isinstance(emissions, EmissionTable) and emissions.normalized
    if opts.normalized_emissions and not already:
        shifted = f - f.max(axis=1, keepdims=True)
        f = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return f


def decode(emissions, g, trie: LexiconTrie, lm, opts: DecoderOptions) -> DecodeResult:
    """Frame-synchronous beam search over the lexicon trie.

    Word emission happens on the silence step after a terminal node (or at
    finalization); the sentence-end LM probability is added at the end and
    hypotheses stuck mid-word are dropped. Raises EmptyBeamError with the
    offending frame if nothing survives.
    """
    f = _maybe_log_softmax(emissions, opts)
    gmat = as_transitions(g)
    t_total = f.shape[0]
    if t_total < 1:
        raise EmptyBeamError(0, "no frames to decode")
    sil = trie.alphabet.silence_index
    root = trie.root
    gamma = opts.gamma
    beam = [Hypothesis(root, lm.start_state(), None)]
    for t in range(t_total):
        candidates: list[Hypothesis] = []
        for hyp in beam:
            last = hyp.last_letter
            # (a) advance to a trie child
            for letter, child in hyp.trie_node.children.items():
                step = f[t, letter] + (gmat[last, letter] if last is not None else 0.0)
                candidates.append(
                    Hypothesis(child, hyp.lm_state, letter, hyp.acc + step,
                               hyp.lm_raw, hyp.word_count, hyp.silence_count,
                               hyp, letter)
                )
            # (b) repeat the last letter in place (mid-word only)
            if last is not None and last != sil:
                step = f[t, last] + gmat[last, last]
                candidates.append(
                    Hypothesis(hyp.trie_node, hyp.lm_state, last, hyp.acc + step,
                               hyp.lm_raw, hyp.word_count, hyp.silence_count,
                               hyp, last)
                )
            # (c) silence: plain at the root, word-emitting at a terminal
            sil_step = f[t, sil] + (gmat[last, sil] if last is not None else 0.0) - gamma
            if hyp.trie_node is root:
                candidates.append(
                    Hypothesis(root, hyp.lm_state, sil, hyp.acc + sil_step,
                               hyp.lm_raw, hyp.word_count, hyp.silence_count + 1,
                               hyp, sil)
                )
            elif hyp.trie_node.words:
                for word in hyp.trie_node.words:
                    logp, state = lm.score(hyp.lm_state, lm.vocab.id(word))
                    candidates.append(
                        Hypothesis(root, state, sil, hyp.acc + sil_step,
                                   hyp.lm_raw + logp, hyp.word_count + 1,
                                   hyp.silence_count + 1, hyp, sil, (word,))
                    )
        if not candidates:
            raise EmptyBeamError(t)
        beam = prune(merge_hypotheses(candidates, opts), opts)
        if not beam:
            raise EmptyBeamError(t)

    finals: list[Hypothesis] = []
    for hyp in beam:
        if hyp.trie_node is root:
            finals.append(replace(hyp, lm_raw=hyp.lm_raw + lm.finish(hyp.lm_state),
                                  parent=hyp, step_letter=None, step_words=()))
        elif hyp.trie_node.words:
            for word in hyp.trie_node.words:
                logp, state = lm.score(hyp.lm_state, lm.vocab.id(word))
                finals.append(
                    Hypothesis(root, state, hyp.last_letter,
                               hyp.acc, hyp.lm_raw + logp + lm.finish(state),
                               hyp.word_count + 1, hyp.silence_count,
                               hyp, None, (word,))
                )
    if not finals:
        raise EmptyBeamError(t_total, "no hypothesis ends at a word boundary")
    # pool complete hypotheses that spelled the same word history
    finals = merge_hypotheses(finals, opts, key=lambda h: h.lm_state)
    best = max(finals, key=lambda h: h.total(opts))
    return _result_from(best, opts)


def _result_from(best: Hypothesis, opts: DecoderOptions) -> DecodeResult:
    words: list[str] = []
    letters: list[int] = []
    node = best
    while node is not None and node.parent is not node:
        if node.step_words:
            words.extend(reversed(node.step_words))
        if node.step_letter is not None:
            letters.append(node.step_letter)
        node = node.parent
    words.reverse()
    letters.reverse()
    am = best.acc + opts.gamma * best.silence_count
    objective = best.total(opts)
    return DecodeResult(words, letters, float(objective), float(am),
                        float(best.lm_raw), best.word_count, best.silence_count)


def _alignment_scores(f, gmat, letters_by_frame, sil, gamma):
    score = f[0, letters_by_frame[0]] - (gamma if letters_by_frame[0] == sil else 0.0)
    for t in range(1, len(letters_by_frame)):
        cur, prev = letters_by_frame[t], letters_by_frame[t - 1]
        score += f[t, cur] + gmat[prev, cur]
        if cur == sil:
            score -= gamma
    return score


def exhaustive_decode(
    emissions, g, trie: LexiconTrie, lm, opts: DecoderOptions, max_words: int = 4
) -> DecodeResult:
    """Enumerate every word sequence and alignment; exact Eq-style objective.

    For each word sequence the acoustic term log-adds the scores of all
    compatible letter paths (leading/trailing silence optional, at least one
    silence frame between words, every spelling letter covering >= 1 frame,
    silence penalty folded per frame). Intended as a test oracle; refuses
    instances beyond small enumeration bounds.
    """
    f = _maybe_log_softmax(emissions, opts)
    gmat = as_transitions(g)
    t_total = f.shape[0]
    if t_total > 20 or trie.num_words > 8:
        raise CapacityError(
            f"exhaustive decode limited to T <= 20 and 8 words, got T={t_total}"
        )
    sil = trie.alphabet.silence_index
    lexicon = _trie_words(trie)
    vocab_words = list(lexicon)

    best = None
    best_obj = NEG_INF
    for n_words in range(0, max_words + 1):
        for combo in itertools.product(vocab_words, repeat=n_words):
            spells = [lexicon[w] for w in combo]
            min_frames = sum(len(s) for s in spells) + max(0, n_words - 1)
            if min_frames > t_total:
                continue
            path_scores = []
            best_path = None
            best_path_score = NEG_INF
            best_sil_count = 0
            units, optional = _unit_sequence(spells, sil)
            for lengths in _enumerate_lengths(len(units), optional, t_total):
                frame_letters = []
                for letter, run in zip(units, lengths):
                    frame_letters.extend([letter] * run)
                score = _alignment_scores(f, gmat, frame_letters, sil, opts.gamma)
                path_scores.append(score)
                if score > best_path_score:
                    best_path_score = score
                    best_path = frame_letters
                    best_sil_count = sum(1 for l in frame_letters if l == sil)
            if not path_scores:
                continue
            pooled = logsumexp(np.array(path_scores))
            state = lm.start_state()
            lm_total = 0.0
            for word in combo:
                logp, state = lm.score(state, lm.vocab.id(word))
                lm_total += logp
            lm_total += lm.finish(state)
            obj = pooled + opts.alpha * lm_total + opts.beta * n_words
            if obj > best_obj:
                best_obj = obj
                best = DecodeResult(
                    list(combo), best_path, float(obj),
                    float(pooled + opts.gamma * best_sil_count), float(lm_total),
                    n_words, best_sil_count,
                )
    if best is None:
        raise EmptyBeamError(t_total, "no word sequence fits the frame budget")
    return best


def _trie_words(trie: LexiconTrie) -> dict[str, list[int]]:
    words: dict[str, list[int]] = {}

    def visit(node: TrieNode, prefix: list[int]):
        for w in node.words:
            words[w] = list(prefix)
        for letter, child in node.children.items():
            visit(child, prefix + [letter])

    visit(trie.root, [])
    return words


def _unit_sequence(spells: list[list[int]], sil: int):
    """Units of consecutive identical letters: (letters, optional flags)."""
    units: list[int] = [sil]
    optional: list[bool] = [True]
    for i, spelling in enumerate(spells):
        if i > 0:
            units.append(sil)
            optional.append(False)
        for letter in spelling:
            units.append(letter)
            optional.append(False)
    units.append(sil)
    optional.append(True)
    if not spells:  # empty transcription: one all-silence unit
        return [sil], [False]
    return units, optional


def _enumerate_lengths(n_units, optional, total):
    """All run-length assignments; optional units may take 0 frames."""

    def rec(i, remaining):
        if i == n_units - 1:
            if remaining >= 1 or (remaining == 0 and optional[i]):
                yield (remaining,)
            return
        min_here = 0 if optional[i] else 1
        left_min = sum(0 if optional[j] else 1 for j in range(i + 1, n_units))
        for take in range(min_here, remaining - left_min + 1):
            for rest in rec(i + 1, remaining - take):
                yield (take,) + rest

    yield from rec(0, total)


def tune_grid(
    validation: Sequence[tuple],
    alphas: Sequence[float],
    betas: Sequence[float],
    gammas: Sequence[float],
    trie: LexiconTrie,
    lm,
    base_opts: DecoderOptions | None = None,
    stage1=(2500, 26.0),
    stage2=(3000, 50.0),
):
    """Two-stage grid search over the weighting hyper-parameters.

    Stage 1 evaluates every (alpha, beta, gamma) on the validation utterances
    with the smaller beam budget; the winner is re-evaluated once with the
    larger one. Returns (chosen options, grid rows); each row is a dict with
    the candidate point and its WER.
    """
    if not alphas or not betas or not gammas:
        raise ConfigurationError("tuning grids must be non-empty")
    if not validation:
        raise ConfigurationError("validation set is empty")
    base = base_opts or DecoderOptions()
    rows = []
    best_point = None
    best_wer = None
    for alpha in alphas:
        for beta in betas:
            for gamma in gammas:
                opts = replace(base, alpha=alpha, beta=beta, gamma=gamma,
                               beam_size=stage1[0], beam_score=stage1[1])
                w = items_wer(validation, trie, lm, opts)
                rows.append({"alpha": alpha, "beta": beta, "gamma": gamma,
                             "beam_size": stage1[0], "beam_score": stage1[1],
                             "wer": w, "stage": 1})
                if best_wer is None or w < best_wer:
                    best_wer = w
                    best_point = (alpha, beta, gamma)
    final = replace(base, alpha=best_point[0], beta=best_point[1],
                    gamma=best_point[2], beam_size=stage2[0], beam_score=stage2[1])
    rows.append({"alpha": final.alpha, "beta": final.beta, "gamma": final.gamma,
                 "beam_size": stage2[0], "beam_score": stage2[1],
                 "wer": items_wer(validation, trie, lm, final), "stage": 2})
    return final, rows


def items_wer(items, trie: LexiconTrie, lm, opts: DecoderOptions) -> float:
    """WER over (emissions, transitions, reference words) triples."""
    errors = 0
    ref_len = 0
    for emissions, g, reference in items:
        try:
            hyp = decode(emissions, g, trie, lm, opts).words
        except EmptyBeamError:
            hyp = []
        s, d, ins = edit_distance_alignment(list(reference), hyp)
        errors += s + d + ins
        ref_len += len(reference)
    return 100.0 * errors / max(ref_len, 1)
