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
exact otherwise. The brute-force oracle in tests/oracles.py enumerates the
same objective on tiny instances.

Which moves a hypothesis may make depends only on its trie node: a non-root
node's last letter is its edge letter, and the root's is silence (or none
before the first frame). `build_trie` therefore holds the trie only as a
move table that lists, per node, its children in insertion order, then the
repeat of its edge letter, then its silence moves: a plain silence at the
root, one silence-and-word move per homophone at a terminal. The beam is a
`Beam` of parallel arrays, so a frame's expansion is one `np.repeat` plus
gathers, `merge_hypotheses` pools groups with `reduceat` over one stable sort,
and `prune` is a threshold plus one stable sort. Each frame keeps only its
survivors' back-pointers (parent index, letter, word id), from which the best
path is read back at the end. LM states are interned to integers per `decode`
call, and (state, word) scores are memoised there, so the LM sees each
distinct pair once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .criterion import Alphabet, as_scores, encode_target
from .errors import ConfigurationError, EmptyBeamError, VocabularyError
from .metrics import EvalReport, aggregate, score_utterance


@dataclass
class LexiconTrie:
    """The lexicon trie, held only as its move table.

    Node 0 is the root. The moves of node n are `move_offsets[n]` up to
    `move_offsets[n + 1]`; move m goes to node `move_dest[m]` on letter
    `move_letter[m]` and emits word `words[move_word[m]]` (-1: no word).
    Nodes are numbered breadth first, so the child moves of node n are its
    moves to nodes greater than n.
    """

    alphabet: Alphabet
    words: tuple[str, ...]
    move_offsets: np.ndarray
    move_dest: np.ndarray
    move_letter: np.ndarray
    move_word: np.ndarray


def build_trie(lexicon: dict[str, Sequence[str]], alphabet: Alphabet) -> LexiconTrie:
    """Move table of the prefix trie over repetition-encoded word spellings.

    Spellings are given as plain letter sequences; doubled letters are
    rewritten with the repetition token before insertion, matching the target
    encoding the acoustic model is trained on. Homophones share a terminal.
    A node's children keep the order in which the lexicon first reaches them.
    """
    children: dict[tuple, dict[int, None]] = {}  # prefix -> child letters, ordered
    ending: dict[tuple, list[int]] = {}  # prefix -> ids of the words spelled by it
    words = tuple(lexicon)
    for w, word in enumerate(words):
        spelling = lexicon[word]
        if len(spelling) == 0:
            raise VocabularyError(f"word {word!r} has an empty spelling")
        if alphabet.silence_token in spelling:
            raise VocabularyError(f"word {word!r} spelling contains the silence token")
        code = tuple(encode_target(alphabet, list(spelling)).tolist())
        for depth, letter in enumerate(code):
            children.setdefault(code[:depth], {})[letter] = None
        ending.setdefault(code, []).append(w)
    sil = alphabet.silence_index
    prefixes: list[tuple] = [()]
    moves: list[tuple[int, int, int]] = []
    offsets = [0]
    for n, prefix in enumerate(prefixes):  # breadth first; `prefixes` grows as it goes
        for letter in children.get(prefix, ()):
            moves.append((len(prefixes), letter, -1))
            prefixes.append(prefix + (letter,))
        if n == 0:
            moves.append((0, sil, -1))
        else:
            moves.append((n, prefix[-1], -1))
            moves.extend((0, sil, w) for w in ending.get(prefix, ()))
        offsets.append(len(moves))
    dest, letter, word = (np.array(column, dtype=np.int64) for column in zip(*moves))
    return LexiconTrie(alphabet, words, np.array(offsets, dtype=np.int64), dest, letter, word)


@dataclass
class DecoderOptions:
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    beam_size: int = 2500
    beam_score: float = 26.0
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
class Beam:
    """Hypotheses as parallel arrays, one entry each.

    `node` is the trie node id, `state` the LM state id interned by `decode`,
    `last` the last letter (-1 before the first frame). `acc` pools the
    acoustic path scores (emissions plus transitions) with the per-frame
    silence penalty already folded in; the reported acoustic component adds
    gamma * silence_count back. `lm_raw` is the unweighted LM log probability
    of the words emitted so far. `parent` indexes the previous frame's beam
    and `word` is the id of the word the last step emitted (-1: none).
    """

    node: np.ndarray
    state: np.ndarray
    last: np.ndarray
    acc: np.ndarray
    lm_raw: np.ndarray
    word_count: np.ndarray
    silence_count: np.ndarray
    parent: np.ndarray
    word: np.ndarray

    @classmethod
    def of(cls, **columns) -> "Beam":
        """A beam from per-column sequences of one length.

        Omitted columns are 0, except `last`, `parent` and `word`, which are
        -1; so `Beam.of(acc=[0.0])` is the start of a search.
        """
        size = len(next(iter(columns.values())))
        filled = {}
        for f in fields(cls):
            dtype = np.float64 if f.name in ("acc", "lm_raw") else np.int64
            default = -1 if f.name in ("last", "parent", "word") else 0
            filled[f.name] = np.asarray(columns.get(f.name, [default] * size), dtype=dtype)
        return cls(**filled)

    def __len__(self) -> int:
        return len(self.acc)

    def take(self, index) -> "Beam":
        return Beam(*(getattr(self, f.name)[index] for f in fields(self)))

    def totals(self, opts: DecoderOptions) -> np.ndarray:
        return self.acc + opts.alpha * self.lm_raw + opts.beta * self.word_count


@dataclass
class DecodeResult:
    words: list[str]
    letter_path: list[int]
    objective: float
    am_component: float
    lm_component: float
    word_count: int
    silence_count: int


def merge_key(beam: Beam) -> np.ndarray:
    """(trie node, LM state, last letter), packed into one integer per entry."""
    states = int(beam.state.max()) + 1
    letters = int(beam.last.max()) + 2
    return (beam.node * states + beam.state) * letters + (beam.last + 1)


def merge_hypotheses(beam: Beam, opts: DecoderOptions, key=merge_key) -> Beam:
    """Pool hypotheses whose `key(beam)` entries are equal.

    The pooled accumulator is the log-add of the members' accumulators (or the
    max in "max" mode); every other field comes from the first member with the
    highest total. Beam order follows each group's first appearance.
    """
    if opts.merge_mode == "off" or len(beam) < 2:
        return beam
    keys = key(beam)
    order = np.argsort(keys, kind="stable")  # members stay in beam order
    keys = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    if len(first) == len(keys):
        return beam
    group = np.cumsum(starts) - 1
    totals = beam.totals(opts)[order]
    best = totals == np.maximum.reduceat(totals, first)[group]
    winners = np.minimum.reduceat(np.where(best, np.arange(len(keys)), len(keys)), first)
    acc = beam.acc[order]
    pooled = np.maximum.reduceat(acc, first)
    if opts.merge_mode == "logadd":  # as util.logsumexp, one group at a time
        with np.errstate(invalid="ignore"):
            summed = np.log(np.add.reduceat(np.exp(acc - pooled[group]), first)) + pooled
        # an infinite peak gives nan above (inf - inf); the pool is then the peak
        pooled = np.where(np.isnan(summed), pooled, summed)
    by_appearance = np.argsort(order[first])
    merged = beam.take(order[winners[by_appearance]])
    merged.acc = pooled[by_appearance]
    return merged


def prune(beam: Beam, opts: DecoderOptions) -> Beam:
    """Drop hypotheses below best - beam_score, then keep the top beam_size.

    Ties break deterministically by beam order (stable sort).
    """
    if not len(beam):
        return beam
    totals = beam.totals(opts)
    kept = np.flatnonzero(totals >= totals.max() - opts.beam_score)
    kept = kept[np.argsort(-totals[kept], kind="stable")]
    return beam.take(kept[: opts.beam_size])


class _LmMemo:
    """One decode's LM lookups over interned states.

    State id 0 is the LM's start state. `emit` and `finish` call the LM only
    for a (state, word) pair or a state they have not seen yet.
    """

    def __init__(self, lm, trie: LexiconTrie):
        vocab = lm.vocab
        self.token_ids = [vocab.id(word) for word in trie.words]
        missing = [word for word, token in zip(trie.words, self.token_ids)
                   if token == vocab.unknown_id and word != vocab.unknown_token]
        if missing:
            raise VocabularyError(
                f"lexicon words missing from the LM vocabulary: {', '.join(missing)}")
        self.lm = lm
        self.states = [lm.start_state()]
        self.ids = {self.states[0]: 0}
        self.logp = np.zeros((8, len(trie.words)))
        self.next = np.full((8, len(trie.words)), -1, dtype=np.int64)
        self.end = np.full(8, np.nan)

    def _intern(self, state) -> int:
        sid = self.ids.get(state)
        if sid is None:
            sid = self.ids[state] = len(self.states)
            self.states.append(state)
            rows = len(self.end)
            if sid == rows:
                self.logp = np.concatenate([self.logp, np.zeros_like(self.logp)])
                self.next = np.concatenate([self.next, np.full_like(self.next, -1)])
                self.end = np.concatenate([self.end, np.full(rows, np.nan)])
        return sid

    def emit(self, word: np.ndarray, state: np.ndarray, lm_raw: np.ndarray):
        """Score the moves that emit a word (`word` >= 0) into `state` and `lm_raw`."""
        at = np.flatnonzero(word >= 0)
        states, words = state[at], word[at]
        miss = self.next[states, words] < 0
        for s, w in zip(states[miss].tolist(), words[miss].tolist()):
            if self.next[s, w] < 0:  # a pair can miss twice in one batch
                logp, next_state = self.lm.score(self.states[s], self.token_ids[w])
                self.logp[s, w] = logp
                self.next[s, w] = self._intern(next_state)
        lm_raw[at] += self.logp[states, words]
        state[at] = self.next[states, words]

    def finish(self, states: np.ndarray) -> np.ndarray:
        for s in states[np.isnan(self.end[states])].tolist():
            if np.isnan(self.end[s]):  # a state can miss twice in one batch
                self.end[s] = self.lm.finish(self.states[s])
        return self.end[states]


def _moves(trie: LexiconTrie, beam: Beam):
    """(move index, parent index) of every move of every hypothesis, in beam order."""
    start = trie.move_offsets[beam.node]
    count = trie.move_offsets[beam.node + 1] - start
    parent = np.repeat(np.arange(len(beam)), count)
    move = np.arange(len(parent)) + np.repeat(start - (np.cumsum(count) - count), count)
    return move, parent


def decode(emissions, g, trie: LexiconTrie, lm, opts: DecoderOptions) -> DecodeResult:
    """Frame-synchronous beam search over the lexicon trie.

    Word emission happens on the silence step after a terminal node (or at
    finalization); the sentence-end LM probability is added at the end and
    hypotheses stuck mid-word are dropped. Raises EmptyBeamError with the
    offending frame if nothing survives, and VocabularyError if a lexicon
    word is missing from the LM vocabulary.
    """
    f = as_scores(emissions)
    gmat = np.asarray(g, dtype=np.float64)
    t_total = f.shape[0]
    if t_total < 1:
        raise EmptyBeamError(0, "no frames to decode")
    memo = _LmMemo(lm, trie)
    sil = trie.alphabet.silence_index
    # the row of last letter -1 (no letter yet) adds no transition score
    gext = np.vstack([gmat, np.zeros((1, gmat.shape[1]))])
    beam = Beam.of(acc=[0.0])
    history = []  # per frame: the survivors' (parent, last letter, word)
    for t in range(t_total):
        move, parent = _moves(trie, beam)
        letter = trie.move_letter[move]
        word = trie.move_word[move]
        silent = letter == sil
        step = f[t, letter] + gext[beam.last[parent], letter] - opts.gamma * silent
        state = beam.state[parent]
        lm_raw = beam.lm_raw[parent]
        memo.emit(word, state, lm_raw)
        candidates = Beam(trie.move_dest[move], state, letter, beam.acc[parent] + step,
                          lm_raw, beam.word_count[parent] + (word >= 0),
                          beam.silence_count[parent] + silent, parent, word)
        beam = prune(merge_hypotheses(candidates, opts), opts)
        if not len(beam):
            raise EmptyBeamError(t)
        history.append((beam.parent, beam.last, beam.word))

    # finalize: a hypothesis at the root ends as it is, one at a terminal
    # emits each of its words; both then score the sentence end
    move, parent = _moves(trie, beam)
    ending = trie.move_letter[move] == sil
    move, parent = move[ending], parent[ending]
    if not len(move):
        raise EmptyBeamError(t_total, "no hypothesis ends at a word boundary")
    word = trie.move_word[move]
    state = beam.state[parent]
    lm_raw = beam.lm_raw[parent]
    memo.emit(word, state, lm_raw)
    finals = Beam(np.zeros_like(move), state, beam.last[parent], beam.acc[parent],
                  lm_raw + memo.finish(state), beam.word_count[parent] + (word >= 0),
                  beam.silence_count[parent], parent, word)
    # pool complete hypotheses that spelled the same word history
    finals = merge_hypotheses(finals, opts, key=lambda b: b.state)
    totals = finals.totals(opts)
    best = int(np.argmax(totals))
    words = [trie.words[finals.word[best]]] if finals.word[best] >= 0 else []
    letters = []
    at = finals.parent[best]
    for parents, lasts, step_words in reversed(history):
        letters.append(int(lasts[at]))
        if step_words[at] >= 0:
            words.append(trie.words[step_words[at]])
        at = parents[at]
    words.reverse()
    letters.reverse()
    acc = float(finals.acc[best])
    silences = int(finals.silence_count[best])
    return DecodeResult(words, letters, float(totals[best]),
                        acc + opts.gamma * silences, float(finals.lm_raw[best]),
                        int(finals.word_count[best]), silences)


def tune_grid(
    validation: Sequence[tuple],
    alphas: Sequence[float],
    betas: Sequence[float],
    gammas: Sequence[float],
    trie: LexiconTrie,
    lm,
    stage1=(2500, 26.0),
    stage2=(3000, 50.0),
):
    """Two-stage grid search over the weighting hyper-parameters.

    Stage 1 evaluates every (alpha, beta, gamma) on the validation utterances
    with the smaller beam budget; the winner is re-evaluated once with the
    larger one. Returns (chosen options, grid rows); each row is a dict with
    the candidate point, its WER and its count of failed decodes.
    """
    def row(opts: DecoderOptions, stage: int) -> dict:
        report = decode_and_score(validation, trie, lm, opts)
        return {"alpha": opts.alpha, "beta": opts.beta, "gamma": opts.gamma,
                "beam_size": opts.beam_size, "beam_score": opts.beam_score,
                "wer": report.wer, "failures": report.decode_failures, "stage": stage}

    if not alphas or not betas or not gammas:
        raise ConfigurationError("tuning grids must be non-empty")
    if not validation:
        raise ConfigurationError("validation set is empty")
    rows = [row(DecoderOptions(alpha=alpha, beta=beta, gamma=gamma,
                               beam_size=stage1[0], beam_score=stage1[1]), 1)
            for alpha in alphas for beta in betas for gamma in gammas]
    best = min(rows, key=lambda r: r["wer"])  # the first point of the lowest WER
    final = DecoderOptions(alpha=best["alpha"], beta=best["beta"], gamma=best["gamma"],
                           beam_size=stage2[0], beam_score=stage2[1])
    rows.append(row(final, 2))
    return final, rows


def decode_and_score(items, trie: LexiconTrie, lm, opts: DecoderOptions,
                     ids=None) -> EvalReport:
    """Decode (emissions, transitions, reference words) triples and score them.

    An utterance whose beam empties (EmptyBeamError) is scored as an empty
    hypothesis and counted in `decode_failures`. `ids` names the utterances
    (default: their positions). `items` may be any iterable, so emissions can
    be computed one utterance at a time.
    """
    scores = []
    char_pairs = []
    failures = 0
    for i, (emissions, g, reference) in enumerate(items):
        try:
            hypothesis = decode(emissions, g, trie, lm, opts).words
        except EmptyBeamError:
            hypothesis = []
            failures += 1
        scores.append(score_utterance(str(i) if ids is None else ids[i], reference, hypothesis))
        char_pairs.append((list(" ".join(reference)), list(" ".join(hypothesis))))
    report = aggregate(scores, char_pairs)
    report.decode_failures = failures
    return report


def items_wer(items, trie: LexiconTrie, lm, opts: DecoderOptions) -> float:
    """WER over (emissions, transitions, reference words) triples."""
    return decode_and_score(items, trie, lm, opts).wer
