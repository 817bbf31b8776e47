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
root, one silence-and-word move per homophone at a terminal. The table is a
(nodes, most moves of a node) array of move ids padded with -1, so the moves
of a whole beam are one gather of its nodes' rows and one mask.

Since a node fixes the letter before each of its moves, the score of a move
at frame t, emission plus transition minus the silence penalty, depends only
on (t, move). `decode` computes it for every frame and move in one (T, moves)
table before the first frame; the first frame's row has no transition score,
as nothing precedes it. A frame's expansion is then a handful of gathers.

The beam is a `Beam` of parallel arrays. Hypotheses merge on (LM state,
node): `merge_hypotheses` groups them by one stable sort of that key, which
is cast to 16 bits where it fits so that numpy sorts it by radix, pools each
group with `reduceat`, and returns the groups' representatives; `prune`
selects the survivors among those and makes the frame's one `Beam.take`.
Each frame keeps only its survivors' back-pointers (parent index, move id).
A move fixes its letter and word, so the best path's letters, words and
silence count are read back from them at the end. LM states are interned to
integers, and the scores of (state, word) and (state, sentence end) pairs are
memoised in one table per `decode`, `decode_and_score` or `tune_grid` call,
so the LM sees each distinct pair once per call, however many utterances or
grid points share it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

from .criterion import Alphabet, as_scores, encode_target
from .errors import (ConfigurationError, DimensionError, DomainError, EmptyBeamError,
                     VocabularyError)
from .lm import UNKNOWN_TOKEN
from .metrics import EvalReport, aggregate, score_utterance


@dataclass
class LexiconTrie:
    """The lexicon trie, held only as its move table.

    Node 0 is the root. Row n of `node_moves` lists the ids of node n's moves,
    padded with -1 to the width of the node with the most moves. Move m goes
    to node `move_dest[m]` on letter `move_letter[m]`, emits word
    `words[move_word[m]]` (-1: no word), and starts from a hypothesis whose
    last letter is `move_prev_letter[m]`: its node's edge letter, silence at
    the root. Nodes are numbered breadth first, so the child moves of node n
    are its moves to nodes greater than n.
    """

    alphabet: Alphabet
    words: tuple[str, ...]
    node_moves: np.ndarray
    move_dest: np.ndarray
    move_letter: np.ndarray
    move_word: np.ndarray
    move_prev_letter: np.ndarray


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
    moves: list[tuple[int, int, int, int]] = []  # (dest, letter, word, previous letter)
    rows: list[range] = []
    for n, prefix in enumerate(prefixes):  # breadth first; `prefixes` grows as it goes
        first = len(moves)
        prev = prefix[-1] if prefix else sil
        for letter in children.get(prefix, ()):
            moves.append((len(prefixes), letter, -1, prev))
            prefixes.append(prefix + (letter,))
        if n == 0:
            moves.append((0, sil, -1, prev))
        else:
            moves.append((n, prev, -1, prev))
            moves.extend((0, sil, w, prev) for w in ending.get(prefix, ()))
        rows.append(range(first, len(moves)))
    node_moves = np.full((len(rows), max(map(len, rows))), -1, dtype=np.int64)
    for n, row in enumerate(rows):
        node_moves[n, :len(row)] = row
    dest, letter, word, prev = (np.array(column, dtype=np.int64) for column in zip(*moves))
    return LexiconTrie(alphabet, words, node_moves, dest, letter, word, prev)


@dataclass(frozen=True)
class DecoderOptions:
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    beam_size: int = 2500
    beam_score: float = 26.0
    merge_mode: str = "logadd"  # "logadd" | "max" | "off"

    def __post_init__(self):
        if not all(0 <= weight < np.inf for weight in (self.alpha, self.beta, self.gamma)):
            raise ConfigurationError("alpha, beta, gamma must be finite and non-negative")
        if self.beam_size < 1:
            raise ConfigurationError("beam_size must be >= 1")
        if not self.beam_score >= 0:  # +inf: no score threshold
            raise ConfigurationError("beam_score must be non-negative")
        if self.merge_mode not in ("logadd", "max", "off"):
            raise ConfigurationError(f"unknown merge mode {self.merge_mode!r}")


@dataclass
class Beam:
    """Hypotheses as parallel arrays, one entry each.

    `node` is the trie node id, `state` the LM state id interned by the search.
    `acc` pools the acoustic path scores (emissions plus transitions) with the
    per-frame silence penalty already folded in; the reported acoustic
    component adds gamma * (silence frames of the best path) back. `lm_raw` is
    the unweighted LM log probability of the words emitted so far. `parent`
    indexes the previous frame's beam and `move` is the trie move that led
    here (-1: none), which fixes the letter and the word (if any) of the step.
    """

    node: np.ndarray
    state: np.ndarray
    acc: np.ndarray
    lm_raw: np.ndarray
    word_count: np.ndarray
    parent: np.ndarray
    move: np.ndarray

    @classmethod
    def of(cls, **columns) -> "Beam":
        """A beam from per-column sequences of one length.

        Omitted columns are 0, except `parent` and `move`, which are -1; so
        `Beam.of(acc=[0.0])` is the start of a search.
        """
        size = len(next(iter(columns.values())))
        filled = {}
        for f in fields(cls):
            dtype = np.float64 if f.name in ("acc", "lm_raw") else np.int64
            default = -1 if f.name in ("parent", "move") else 0
            filled[f.name] = np.asarray(columns.get(f.name, [default] * size), dtype=dtype)
        return cls(**filled)

    def __len__(self) -> int:
        return len(self.acc)

    def take(self, index) -> "Beam":
        return Beam(self.node[index], self.state[index], self.acc[index], self.lm_raw[index],
                    self.word_count[index], self.parent[index], self.move[index])

    def totals(self, opts: DecoderOptions, index=slice(None)) -> np.ndarray:
        """The objective so far of the hypotheses `index` (default: all).

        With alpha 0 the LM term is left out, not added as 0 * lm_raw, which
        is NaN for a word the LM scores -inf.
        """
        totals = self.acc[index]
        if opts.alpha:
            totals = totals + opts.alpha * self.lm_raw[index]
        return totals + opts.beta * self.word_count[index]


@dataclass
class DecodeResult:
    words: list[str]
    letter_path: list[int]
    objective: float
    am_component: float
    lm_component: float
    word_count: int
    silence_count: int


def merge_hypotheses(beam: Beam, opts: DecoderOptions, key: np.ndarray) -> np.ndarray:
    """Pool the hypotheses of `beam` whose `key` entries are equal.

    Returns the index of each group's representative, the first member with
    the highest total, in order of each group's first appearance, and writes
    the group's pooled accumulator into `beam.acc` at it: the members'
    accumulators reduced by `np.logaddexp`, or by `np.maximum` in "max" mode;
    both give a -inf member no weight and keep an all -inf group at -inf.
    numpy sorts a 16-bit `key` by radix and a wider one by timsort; both
    group alike.
    """
    size = len(beam)
    if opts.merge_mode == "off" or size < 2:
        return np.arange(size)
    order = key.argsort(kind="stable")  # members stay in beam order
    keys = key[order]
    starts = np.empty(size, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    first = starts.nonzero()[0]
    if len(first) == size:
        return np.arange(size)
    starts[0] = False
    group = starts.cumsum()  # group id of each sorted member
    totals = beam.totals(opts)[order]
    best = totals == np.maximum.reduceat(totals, first)[group]
    winners = np.minimum.reduceat(np.where(best, np.arange(size), size), first)
    acc = beam.acc[order]
    pooled = (np.logaddexp if opts.merge_mode == "logadd" else np.maximum).reduceat(acc, first)
    representatives = order[winners]
    beam.acc[representatives] = pooled
    return representatives[order[first].argsort()]


def prune(beam: Beam, index: np.ndarray, opts: DecoderOptions) -> Beam:
    """The survivors among the hypotheses `index` of `beam`, best first.

    Drops those below best - beam_score, then keeps the top beam_size. Ties
    break deterministically by their order in `index` (stable sort).
    """
    totals = beam.totals(opts, index)
    if len(index):
        kept = np.count_nonzero(totals >= totals.max() - opts.beam_score)
        # the kept totals lead the descending order, ties in `index` order
        index = index[(-totals).argsort(kind="stable")[: min(kept, opts.beam_size)]]
    return beam.take(index)


class _LmMemo:
    """LM lookups over interned states, shared by the decodes of one call.

    State id 0 is the LM's start state. The tables hold one column per
    lexicon word, then one for the sentence end. `lookup` calls the LM only
    for a (state, column) pair it has not seen yet.
    """

    def __init__(self, lm, trie: LexiconTrie):
        vocab = lm.vocab
        self.token_ids = [vocab.id(word) for word in trie.words]
        missing = [word for word, token in zip(trie.words, self.token_ids)
                   if token == vocab.unknown_id and word != UNKNOWN_TOKEN]
        if missing:
            raise VocabularyError(
                f"lexicon words missing from the LM vocabulary: {', '.join(missing)}")
        self.token_ids.append(vocab.end_id)
        self.lm = lm
        self.states = [lm.start_state()]
        self.ids = {self.states[0]: 0}
        self.logp = np.zeros((8, len(self.token_ids)))
        self.next = np.full((8, len(self.token_ids)), -1, dtype=np.int64)

    def _intern(self, state) -> int:
        sid = self.ids.get(state)
        if sid is None:
            sid = self.ids[state] = len(self.states)
            self.states.append(state)
            if sid == len(self.next):
                self.logp = np.concatenate([self.logp, np.zeros_like(self.logp)])
                self.next = np.concatenate([self.next, np.full_like(self.next, -1)])
        return sid

    def lookup(self, state: np.ndarray, column: np.ndarray):
        """(log probability, next state id) of each (state id, column) pair."""
        pair = state * self.next.shape[1] + column  # flat index into next and logp
        next_states = self.next.ravel()[pair]
        miss = next_states < 0
        if miss.any():
            for s, c in zip(state[miss].tolist(), column[miss].tolist()):
                if self.next[s, c] < 0:  # a pair can miss twice in one batch
                    logp, next_state = self.lm.score(self.states[s], self.token_ids[c])
                    if not logp < np.inf:  # NaN fails too; -inf forbids the word
                        word = self.lm.vocab.tokens[self.token_ids[c]]
                        raise DomainError(f"LM score of {word!r} is {logp}, not a log probability")
                    self.logp[s, c] = logp
                    self.next[s, c] = self._intern(next_state)
            next_states = self.next.ravel()[pair]
        return self.logp.ravel()[pair], next_states


def _moves(trie: LexiconTrie, beam: Beam):
    """(move id, parent index) of every move of every hypothesis, in beam order."""
    moves = trie.node_moves[beam.node]
    width = moves.shape[1]
    moves = moves.ravel()
    real = (moves >= 0).nonzero()[0]
    return moves[real], real // width


def _expand(trie: LexiconTrie, memo: _LmMemo, beam: Beam, move, parent, acc) -> Beam:
    """The hypotheses that `move` makes of the hypotheses `parent` of `beam`, with the
    accumulators `acc`; a move that emits a word scores it with the LM."""
    word = trie.move_word[move]
    emits = word >= 0
    state = beam.state[parent]
    lm_raw = beam.lm_raw[parent]
    at = emits.nonzero()[0]
    logp, state[at] = memo.lookup(state[at], word[at])
    lm_raw[at] += logp
    return Beam(trie.move_dest[move], state, acc, lm_raw, beam.word_count[parent] + emits,
                parent, move)


def _move_scores(f: np.ndarray, g: np.ndarray, trie: LexiconTrie, gamma: float) -> np.ndarray:
    """(T, moves) step scores: emission + transition - gamma * silence.

    Row 0 has no transition score: before the first frame there is no letter.
    """
    letter = trie.move_letter
    scores = f[:, letter] + g[trie.move_prev_letter, letter]
    scores[0] = f[0, letter]
    scores -= gamma * (letter == trie.alphabet.silence_index)
    return scores


def decode(emissions, g, trie: LexiconTrie, lm, opts: DecoderOptions) -> DecodeResult:
    """Frame-synchronous beam search over the lexicon trie.

    Word emission happens on the silence step after a terminal node (or at
    finalization); the sentence-end LM probability is added at the end and
    hypotheses stuck mid-word are dropped. Raises DimensionError unless the
    emissions are (T, |A|) and `g` is (|A|, |A|), DomainError on a NaN or +inf score,
    EmptyBeamError with the offending frame if nothing survives, and
    VocabularyError if a lexicon word is missing from the LM vocabulary.
    """
    return _search(emissions, g, trie, _LmMemo(lm, trie), opts)


def _search(emissions, g, trie: LexiconTrie, memo: _LmMemo, opts: DecoderOptions):
    """`decode` with the LM lookups of `memo`."""
    f, gmat = as_scores(emissions, g)
    size = len(trie.alphabet)
    if f.shape[1] != size:
        raise DimensionError(
            f"emissions {f.shape} and transitions {gmat.shape} do not fit an alphabet of "
            f"{size} letters: expected (frames, {size}) and ({size}, {size})")
    t_total = f.shape[0]
    if t_total < 1:
        raise EmptyBeamError(0, "no frames to decode")
    sil = trie.alphabet.silence_index
    scores = _move_scores(f, gmat, trie, opts.gamma)
    nodes = len(trie.node_moves)

    beam = Beam.of(acc=[0.0])
    history = []  # per frame: the survivors' (parent, move)
    for t in range(t_total):
        move, parent = _moves(trie, beam)
        candidates = _expand(trie, memo, beam, move, parent, beam.acc[parent] + scores[t][move])
        # (LM state, node): a node fixes the last letter
        key = candidates.state * nodes + candidates.node
        if len(memo.states) * nodes <= 1 << 16:
            key = key.astype(np.uint16)  # a 16-bit key sorts by radix
        beam = prune(candidates, merge_hypotheses(candidates, opts, key), opts)
        if not len(beam):
            raise EmptyBeamError(t)
        history.append((beam.parent, beam.move))

    # finalize: a hypothesis at the root ends as it is, one at a terminal
    # emits each of its words; both then score the sentence end
    move, parent = _moves(trie, beam)
    ending = trie.move_letter[move] == sil
    move, parent = move[ending], parent[ending]
    if not len(move):
        raise EmptyBeamError(t_total, "no hypothesis ends at a word boundary")
    finals = _expand(trie, memo, beam, move, parent, beam.acc[parent])  # all at the root
    end = np.full(len(finals), len(trie.words))  # the memo's last column: the sentence end
    finals.lm_raw += memo.lookup(finals.state, end)[0]
    # pool complete hypotheses that spelled the same word history
    index = merge_hypotheses(finals, opts, finals.state)
    totals = finals.totals(opts, index)
    pick = int(np.argmax(totals))
    best = int(index[pick])
    # read the best path back: its moves fix its letters, words and silences
    path = []
    at = finals.parent[best]
    for parents, moves in reversed(history):
        path.append(moves[at])
        at = parents[at]
    path.reverse()
    path_letters = trie.move_letter[path]
    path_words = trie.move_word[path + [finals.move[best]]]
    words = [trie.words[w] for w in path_words[path_words >= 0].tolist()]
    acc = float(finals.acc[best])
    silences = int((path_letters == sil).sum())
    return DecodeResult(words, path_letters.tolist(), float(totals[pick]),
                        acc + opts.gamma * silences, float(finals.lm_raw[best]),
                        int(finals.word_count[best]), silences)


def tune_grid(
    validation: Iterable[tuple],
    alphas: Sequence[float],
    betas: Sequence[float],
    gammas: Sequence[float],
    trie: LexiconTrie,
    lm,
    stage1: DecoderOptions = DecoderOptions(),
    stage2: DecoderOptions = DecoderOptions(beam_size=3000, beam_score=50.0),
):
    """Two-stage grid search over the weighting hyper-parameters.

    Stage 1 evaluates every (alpha, beta, gamma) on the validation utterances
    with `stage1`'s beam budget; the winner is re-evaluated once with
    `stage2`'s. Returns (chosen options, grid rows); each row is a dict with
    the candidate point, its WER and its count of failed decodes.
    `validation` may be any iterable; it is listed after every other check.
    """
    def row(opts: DecoderOptions, stage: int) -> dict:
        report = _score(validation, trie, memo, opts)
        return {"alpha": opts.alpha, "beta": opts.beta, "gamma": opts.gamma,
                "beam_size": opts.beam_size, "beam_score": opts.beam_score,
                "wer": report.wer, "failures": report.decode_failures, "stage": stage}

    if not alphas or not betas or not gammas:
        raise ConfigurationError("tuning grids must be non-empty")
    points = [replace(stage1, alpha=alpha, beta=beta, gamma=gamma)
              for alpha in alphas for beta in betas for gamma in gammas]
    memo = _LmMemo(lm, trie)  # LM scores depend on no decoder option
    validation = list(validation)
    if not validation:
        raise ConfigurationError("validation set is empty")
    rows = [row(opts, 1) for opts in points]
    best = min(rows, key=lambda r: r["wer"])  # the first point of the lowest WER
    final = replace(stage2, alpha=best["alpha"], beta=best["beta"], gamma=best["gamma"])
    rows.append(row(final, 2))
    return final, rows


def decode_and_score(items, trie: LexiconTrie, lm, opts: DecoderOptions,
                     ids=None) -> EvalReport:
    """Decode (emissions, transitions, reference words) triples and score them.

    An utterance whose beam empties (EmptyBeamError) is scored as an empty
    hypothesis and counted in `decode_failures`. `ids` names the utterances
    (default: their positions). `items` may be any iterable, so emissions can
    be computed one utterance at a time. The utterances share one LM memo.
    """
    return _score(items, trie, _LmMemo(lm, trie), opts, ids)


def _score(items, trie: LexiconTrie, memo: _LmMemo, opts: DecoderOptions,
           ids=None) -> EvalReport:
    """`decode_and_score` with the LM lookups of `memo`."""
    scores = []
    failures = 0
    for i, (emissions, g, reference) in enumerate(items):
        try:
            hypothesis = _search(emissions, g, trie, memo, opts).words
        except EmptyBeamError:
            hypothesis = []
            failures += 1
        scores.append(score_utterance(str(i) if ids is None else ids[i], reference, hypothesis))
    report = aggregate(scores)
    report.decode_failures = failures
    return report


def items_wer(items, trie: LexiconTrie, lm, opts: DecoderOptions) -> float:
    """WER over (emissions, transitions, reference words) triples."""
    return decode_and_score(items, trie, lm, opts).wer
