import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from convspeech import decoder as dec
from convspeech.criterion import Alphabet, encode_target
from convspeech.errors import (ConfigurationError, DimensionError, DomainError, EmptyBeamError,
                               VocabularyError)
from convspeech.lm import Vocabulary

from oracles import exhaustive_decode

AB = Alphabet.from_plain_letters(("a", "b", "c"))
SIL = AB.silence_index
GOLDEN = Path(__file__).with_name("decoder_golden.json")


class HistoryLm:
    """Deterministic toy LM whose state is the full word history.

    Full-history states make beam merging pool exactly the paths of one word
    sequence, which is what the enumeration oracle computes. Scores are a
    fixed pseudo-random function of (history, token).
    """

    def __init__(self, words):
        self.vocab = Vocabulary(tuple(words) + ("<s>", "</s>", "<unk>"))

    def start_state(self):
        return ()

    def _logp(self, state, token_id):
        x = 7.0
        for t in (*state, token_id):
            x = (x * 31.0 + float(t) + 1.0) % 97.0
        return -0.2 - 2.5 * (x / 97.0)

    def score(self, state, token_id):
        return self._logp(state, token_id), state + (token_id,)


def uniform_lm(words):
    return HistoryLm(words)


def make_instance(rng, t=None, lexicon=None, opts=None):
    t = t or int(rng.integers(2, 7))
    if lexicon is None:
        pool = ["a", "b", "c", "ab", "ba", "cb", "aa", "bc"]
        n = int(rng.integers(2, 5))
        picks = rng.choice(len(pool), size=n, replace=False)
        lexicon = {pool[i]: list(pool[i]) for i in picks}
    trie = dec.build_trie(lexicon, AB)
    lm = HistoryLm(list(lexicon))
    emissions = rng.normal(size=(t, len(AB)))
    transitions = rng.normal(size=(len(AB), len(AB))) * 0.3
    if opts is None:
        opts = dec.DecoderOptions(
            alpha=float(rng.uniform(0, 1.5)),
            beta=float(rng.uniform(0, 1.0)),
            gamma=float(rng.uniform(0, 1.0)),
            beam_size=200000,
            beam_score=math.inf,
        )
    return emissions, transitions, trie, lm, opts


def _node_moves(trie, node):
    """(destination, letter, word id) of each move of `node`, in table order."""
    moves = trie.node_moves[node]
    moves = moves[moves >= 0]
    return list(zip(trie.move_dest[moves].tolist(), trie.move_letter[moves].tolist(),
                    trie.move_word[moves].tolist()))


def _children(trie, node):
    """letter -> child node; nodes are numbered breadth first, so children come later."""
    return {letter: dest for dest, letter, _ in _node_moves(trie, node) if dest > node}


def _words_at(trie, node):
    return [trie.words[word] for _, _, word in _node_moves(trie, node) if word >= 0]


def test_build_trie_single_word():
    trie = dec.build_trie({"a": ["a"]}, AB)
    assert list(_children(trie, 0)) == [AB.index("a")]
    assert _words_at(trie, _children(trie, 0)[AB.index("a")]) == ["a"]


def test_build_trie_shared_prefix():
    trie = dec.build_trie({"ab": ["a", "b"], "ac": ["a", "c"]}, AB)
    a_node = _children(trie, 0)[AB.index("a")]
    assert set(_children(trie, a_node)) == {AB.index("b"), AB.index("c")}
    assert _words_at(trie, a_node) == []


def test_build_trie_rejects_unknown_letter():
    with pytest.raises(VocabularyError):
        dec.build_trie({"x": ["x"]}, AB)


def _walk(trie, letters):
    node = 0
    for letter in letters:
        node = _children(trie, node).get(int(letter))
        if node is None:
            return None
    return node


def test_build_trie_encodes_repeats():
    trie = dec.build_trie({"aa": ["a", "a"]}, AB)
    node = _walk(trie, encode_target(AB, ["a", "a"]))
    assert node is not None and _words_at(trie, node) == ["aa"]


def test_build_trie_random_words_findable():
    rng = np.random.default_rng(0)
    words = {}
    for i in range(50):
        length = int(rng.integers(1, 5))
        spelling = [str(rng.choice(["a", "b", "c"])) for _ in range(length)]
        words[f"w{i}_" + "".join(spelling)] = spelling
    trie = dec.build_trie(words, AB)
    for word, spelling in words.items():
        node = _walk(trie, encode_target(AB, spelling))
        assert node is not None and word in _words_at(trie, node)


def test_decode_single_word_hand_sum():
    lexicon = {"a": ["a"]}
    trie = dec.build_trie(lexicon, AB)
    lm = uniform_lm(["a"])
    f = np.full((2, len(AB)), -20.0)
    f[:, AB.index("a")] = 20.0
    g = np.random.default_rng(1).normal(size=(len(AB), len(AB))) * 0.1
    opts = dec.DecoderOptions(beam_size=1000, beam_score=math.inf)
    result = dec.decode(f, g, trie, lm, opts)
    ai = AB.index("a")
    assert result.words == ["a"]
    assert result.objective == pytest.approx(f[0, ai] + g[ai, ai] + f[1, ai], rel=1e-10)
    assert result.letter_path == [ai, ai]


def test_decode_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    for trial in range(40):
        emissions, g, trie, lm, opts = make_instance(rng)
        got = dec.decode(emissions, g, trie, lm, opts)
        lexicon = {word: list(word) for word in trie.words}  # make_instance words spell themselves
        want = exhaustive_decode(emissions, g, lexicon, AB, lm, opts)
        assert got.objective == pytest.approx(want.objective, rel=1e-8), trial
        assert got.words == want.words


def test_decode_with_impossible_letters_matches_exhaustive_oracle():
    # -inf emissions forbid a letter at a frame; a pool must skip exactly those paths
    rng = np.random.default_rng(14)
    compared = 0
    for trial in range(40):
        emissions, g, trie, lm, opts = make_instance(rng)
        emissions[rng.random(emissions.shape) < 0.25] = -np.inf
        lexicon = {word: list(word) for word in trie.words}
        want = exhaustive_decode(emissions, g, lexicon, AB, lm, opts)
        got = dec.decode(emissions, g, trie, lm, opts)
        if math.isfinite(want.objective):
            assert got.objective == pytest.approx(want.objective, rel=1e-8), trial
            assert got.words == want.words, trial
            compared += 1
        else:
            assert got.objective == want.objective, trial
    assert compared >= 20


def test_alpha_zero_ignores_a_word_the_lm_rules_out():
    # alpha 0 leaves the LM out, so a word scored -inf is as good as any
    # other; 0 * -inf once made every merge group's total NaN
    class NoB(HistoryLm):
        def _logp(self, state, token_id):
            if token_id == self.vocab.id("b"):
                return -math.inf
            return super()._logp(state, token_id)

    lexicon = {"a": ["a"], "b": ["b"]}
    trie = dec.build_trie(lexicon, AB)
    spelled_b = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(6, len(AB)))
        g = rng.normal(size=(len(AB), len(AB))) * 0.3
        for alpha in (0.0, 0.5):
            opts = dec.DecoderOptions(alpha=alpha, beta=0.3, gamma=0.2,
                                      beam_size=100000, beam_score=math.inf)
            got = dec.decode(f, g, trie, NoB(["a", "b"]), opts)
            want = exhaustive_decode(f, g, lexicon, AB, NoB(["a", "b"]), opts)
            assert got.words == want.words, (seed, alpha)
            assert got.objective == pytest.approx(want.objective, rel=1e-8), (seed, alpha)
            if alpha:
                assert "b" not in got.words
            else:
                spelled_b += "b" in got.words
    assert spelled_b >= 5


def test_last_letter_is_fixed_by_the_node(monkeypatch):
    # the per-move score table relies on this: after the first frame a
    # hypothesis's last letter, that of the move that led to it, is its node's
    # edge letter, or silence at the root
    beams = []

    def kept(*args, original=dec.prune):
        beams.append(original(*args))
        return beams[-1]

    monkeypatch.setattr(dec, "prune", kept)
    rng = np.random.default_rng(15)
    homophones = {"won": ["a"], "one": ["a"], "aa": ["a", "a"], "ab": ["a", "b"]}
    for trial in range(20):
        emissions, g, trie, lm, opts = make_instance(
            rng, t=7, lexicon=homophones if trial % 4 == 0 else None)
        node_letter = {0: SIL}
        for dest, letter in zip(trie.move_dest.tolist(), trie.move_letter.tolist()):
            assert node_letter.setdefault(dest, letter) == letter
        for node, moves in enumerate(trie.node_moves):
            prev = trie.move_prev_letter[moves[moves >= 0]]
            assert (prev == node_letter[node]).all()
        beams.clear()
        dec.decode(emissions, g, trie, lm, opts)
        assert len(beams) == emissions.shape[0]
        for beam in beams:
            last = trie.move_letter[beam.move]
            assert last.tolist() == [node_letter[n] for n in beam.node.tolist()], trial


@pytest.mark.parametrize("f_shape, g_shape", [
    ((3, len(AB) - 1), (len(AB), len(AB))),
    ((3, len(AB) + 2), (len(AB), len(AB))),
    ((3, len(AB)), (len(AB) - 1, len(AB) - 1)),
    ((3, len(AB)), (len(AB) + 1, len(AB) + 1)),
    ((len(AB),), (len(AB), len(AB))),
])
def test_decode_rejects_misshapen_scores(f_shape, g_shape):
    trie = dec.build_trie({"a": ["a"]}, AB)
    with pytest.raises(DimensionError) as err:
        dec.decode(np.zeros(f_shape), np.zeros(g_shape), trie, uniform_lm(["a"]),
                   dec.DecoderOptions())
    assert str(f_shape) in str(err.value) and str(g_shape) in str(err.value)


@pytest.mark.parametrize("where", ["emissions", "transitions"])
def test_decode_rejects_nan_scores(where):
    f = np.zeros((3, len(AB)))
    g = np.zeros((len(AB), len(AB)))
    (f if where == "emissions" else g)[1, 0] = np.nan
    trie = dec.build_trie({"a": ["a"]}, AB)
    with pytest.raises(DomainError, match="NaN"):
        dec.decode(f, g, trie, uniform_lm(["a"]), dec.DecoderOptions())


@pytest.mark.parametrize("where", ["emissions", "transitions"])
def test_decode_rejects_positive_infinite_scores(where):
    # a +inf score next to a word the LM scores -inf made the totals NaN
    # (inf - inf) with alpha > 0, and the search then failed at some frame
    class NoB(HistoryLm):
        def _logp(self, state, token_id):
            if token_id == self.vocab.id("b"):
                return -math.inf
            return super()._logp(state, token_id)

    f = np.zeros((5, len(AB)))
    g = np.zeros((len(AB), len(AB)))
    (f if where == "emissions" else g)[1, AB.index("b")] = np.inf
    trie = dec.build_trie({"a": ["a"], "b": ["b"]}, AB)
    opts = dec.DecoderOptions(alpha=0.5, beam_size=100, beam_score=math.inf)
    with pytest.raises(DomainError, match=r"\+inf"):
        dec.decode(f, g, trie, NoB(["a", "b"]), opts)
    # -inf still only forbids a letter
    (f if where == "emissions" else g)[1, AB.index("b")] = -np.inf
    assert dec.decode(f, g, trie, NoB(["a", "b"]), opts).words


def test_large_gamma_reduces_silence():
    rng = np.random.default_rng(3)
    emissions, g, trie, lm, _ = make_instance(rng, t=6)
    base = dec.DecoderOptions(beam_size=100000, beam_score=math.inf, gamma=0.0)
    heavy = dec.DecoderOptions(beam_size=100000, beam_score=math.inf, gamma=8.0)
    free = dec.decode(emissions, g, trie, lm, base)
    taxed = dec.decode(emissions, g, trie, lm, heavy)
    assert taxed.silence_count <= free.silence_count


def _entries(beam):
    """The beam as one tuple of column values per hypothesis."""
    return list(zip(*(getattr(beam, name).tolist() for name in
                      ("node", "state", "acc", "lm_raw", "word_count", "parent", "move"))))


def _merged(beam, opts, key):
    """merge_hypotheses as the beam it leaves: the representatives, pooled."""
    return beam.take(dec.merge_hypotheses(beam, opts, np.asarray(key)))


def test_merge_logadd_of_accumulators():
    beam = dec.Beam.of(acc=[math.log(0.25), math.log(0.5)])
    merged = _merged(beam, dec.DecoderOptions(), [0, 0])
    assert len(merged) == 1
    assert merged.acc[0] == pytest.approx(math.log(0.75), rel=1e-12)


def test_merge_keeps_distinct_keys():
    beam = dec.Beam.of(node=[1, 2, 1, 1], state=[0, 0, 1, 0], move=[0, 0, 0, 1])
    merged = _merged(beam, dec.DecoderOptions(), [0, 1, 2, 3])
    assert _entries(merged) == _entries(beam)


def test_merge_winner_carries_fields():
    beam = dec.Beam.of(acc=[0.0, 2.0], word_count=[1, 3], move=[4, 5])
    merged = _merged(beam, dec.DecoderOptions(), [7, 7])
    assert (merged.word_count[0], merged.move[0]) == (3, 5)
    assert merged.acc[0] == pytest.approx(np.logaddexp(0.0, 2.0))


def test_merge_returns_representatives_in_order_of_first_appearance():
    # group 1 appears first but is won by its later member, after group 0's winner
    beam = dec.Beam.of(acc=[0.0, 1.0, 5.0])
    index = dec.merge_hypotheses(beam, dec.DecoderOptions(merge_mode="max"), np.array([1, 0, 1]))
    assert index.tolist() == [2, 1]
    assert beam.acc[index].tolist() == [5.0, 1.0]


def test_max_merge_mode():
    beam = dec.Beam.of(acc=[1.0, 2.0])
    opts = dec.DecoderOptions(merge_mode="max")
    assert _merged(beam, opts, [3, 3]).acc[0] == 2.0


def _random_beam(rng, size):
    """A beam with tied totals, impossible accumulators and clashing keys."""
    acc = np.round(rng.normal(size=size), 1)
    acc[rng.random(size) < 0.1] = -np.inf
    return dec.Beam.of(node=rng.integers(0, 9, size), state=rng.integers(0, 5, size), acc=acc,
                       lm_raw=np.round(rng.normal(size=size), 1),
                       word_count=rng.integers(0, 3, size), parent=np.arange(size),
                       move=rng.integers(0, 20, size))


@pytest.mark.parametrize("mode", ["logadd", "max", "off"])
def test_merge_groups_alike_for_16_and_64_bit_keys(mode):
    # the search casts its keys to 16 bits where they fit, which numpy sorts by
    # radix; wider keys sort as int64; both must pick the same representatives
    rng = np.random.default_rng(17)
    opts = dec.DecoderOptions(alpha=0.5, beta=0.5, merge_mode=mode)
    for trial in range(20):
        beam = _random_beam(rng, int(rng.integers(1, 400)))
        key = (beam.state * 9 + beam.node).astype(np.uint16)
        narrow, wide = (beam.take(np.arange(len(beam))) for _ in range(2))  # merge writes acc
        index = dec.merge_hypotheses(narrow, opts, key)
        assert dec.merge_hypotheses(wide, opts, key.astype(np.int64) + (1 << 16)).tolist() \
            == index.tolist(), trial
        assert narrow.acc[index].tobytes() == wide.acc[index].tobytes(), trial
        if mode == "off":
            assert index.tolist() == list(range(len(beam)))
        else:
            assert sorted(key[index].tolist()) == sorted(set(key.tolist())), trial


def test_merged_and_unmerged_agree():
    # max-mode merging only folds dominated duplicates, so switching it off
    # must not change the winning hypothesis at all; log-add merging instead
    # realizes the sum-over-paths objective checked against the oracle.
    rng = np.random.default_rng(4)
    for trial in range(15):
        emissions, g, trie, lm, opts = make_instance(rng, t=5)
        on = dec.decode(emissions, g, trie, lm,
                        dec.DecoderOptions(alpha=opts.alpha, beta=opts.beta,
                                           gamma=opts.gamma, beam_size=opts.beam_size,
                                           beam_score=math.inf, merge_mode="max"))
        off = dec.decode(emissions, g, trie, lm,
                         dec.DecoderOptions(alpha=opts.alpha, beta=opts.beta,
                                            gamma=opts.gamma, beam_size=opts.beam_size,
                                            beam_score=math.inf, merge_mode="off"))
        assert on.words == off.words
        assert on.objective == pytest.approx(off.objective, rel=1e-10)


def _pruned(beam, opts):
    return dec.prune(beam, np.arange(len(beam)), opts)


def test_prune_noop_when_generous():
    beam = dec.Beam.of(move=list(range(5)), acc=[float(-i) for i in range(5)])
    opts = dec.DecoderOptions(beam_size=10, beam_score=math.inf)
    assert _entries(_pruned(beam, opts)) == _entries(beam)


def test_prune_threshold():
    beam = dec.Beam.of(move=[0, 1, 2], acc=[0.0, -10.0, -30.0])
    opts = dec.DecoderOptions(beam_size=10, beam_score=26.0)
    kept = _pruned(beam, opts)
    assert kept.acc.tolist() == [0.0, -10.0]


def test_prune_respects_beam_size_and_ties():
    beam = dec.Beam.of(move=list(range(4)), acc=[1.0] * 4)
    opts = dec.DecoderOptions(beam_size=2, beam_score=math.inf)
    kept = _pruned(beam, opts)
    assert kept.move.tolist() == [0, 1]  # beam order on ties


def test_prune_selects_from_the_given_hypotheses():
    beam = dec.Beam.of(move=list(range(5)), acc=[9.0, 1.0, 3.0, 1.0, 8.0])
    opts = dec.DecoderOptions(beam_size=2, beam_score=math.inf)
    kept = dec.prune(beam, np.array([3, 1, 2]), opts)
    assert kept.move.tolist() == [2, 3]  # ties in the order given, not in beam order


def test_pruned_decode_equals_unpruned_on_small_instances():
    rng = np.random.default_rng(5)
    for trial in range(10):
        emissions, g, trie, lm, opts = make_instance(rng, t=5)
        wide = dec.decode(emissions, g, trie, lm, opts)
        pruned = dec.decode(
            emissions, g, trie, lm,
            dec.DecoderOptions(alpha=opts.alpha, beta=opts.beta, gamma=opts.gamma,
                               beam_size=2500, beam_score=26.0),
        )
        assert pruned.objective == pytest.approx(wide.objective, rel=1e-8)


def test_objective_decomposition():
    rng = np.random.default_rng(6)
    for trial in range(10):
        emissions, g, trie, lm, opts = make_instance(rng)
        res = dec.decode(emissions, g, trie, lm, opts)
        recomposed = (res.am_component + opts.alpha * res.lm_component
                      + opts.beta * res.word_count - opts.gamma * res.silence_count)
        assert res.objective == pytest.approx(recomposed, rel=1e-10)
        assert len(res.letter_path) == emissions.shape[0]
        assert res.word_count == len(res.words)


def test_counts_read_back_from_the_path():
    # the beam keeps no silence count: decode reads it back from the best path
    rng = np.random.default_rng(18)
    for trial in range(300):
        emissions, g, trie, lm, opts = make_instance(rng)
        opts = dataclasses.replace(opts, merge_mode=("logadd", "max", "off")[trial % 3])
        if trial % 3 == 1:
            emissions[rng.random(emissions.shape) < 0.25] = -np.inf
        res = dec.decode(emissions, g, trie, lm, opts)
        assert res.silence_count == res.letter_path.count(SIL), trial
        assert res.word_count == len(res.words), trial


def test_alpha_zero_invariant_to_lm():
    rng = np.random.default_rng(7)
    emissions, g, trie, lm, _ = make_instance(rng, t=6)

    class OtherLm(HistoryLm):
        def _logp(self, state, token_id):
            return -5.0 - 0.1 * float(token_id)

    opts = dec.DecoderOptions(alpha=0.0, beta=0.3, gamma=0.2,
                              beam_size=100000, beam_score=math.inf)
    a = dec.decode(emissions, g, trie, lm, opts)
    b = dec.decode(emissions, g, trie, OtherLm(list(lm.vocab.tokens[:-3])), opts)
    assert a.words == b.words
    assert a.objective == pytest.approx(b.objective, rel=1e-12)


def test_monotone_in_beam_size():
    rng = np.random.default_rng(8)
    emissions, g, trie, lm, _ = make_instance(rng, t=6)
    objectives = []
    for size in (1, 2, 4, 8, 32, 128, 1024):
        opts = dec.DecoderOptions(alpha=0.5, beta=0.2, gamma=0.1,
                                  beam_size=size, beam_score=math.inf)
        try:
            objectives.append(dec.decode(emissions, g, trie, lm, opts).objective)
        except EmptyBeamError:
            objectives.append(-math.inf)
    assert all(b >= a - 1e-12 for a, b in zip(objectives, objectives[1:]))


def test_determinism():
    rng = np.random.default_rng(9)
    emissions, g, trie, lm, opts = make_instance(rng)
    r1 = dec.decode(emissions, g, trie, lm, opts)
    r2 = dec.decode(emissions, g, trie, lm, opts)
    assert r1 == r2


def test_homophones_fork():
    lexicon = {"won": ["a"], "one": ["a"]}
    trie = dec.build_trie(lexicon, AB)
    lm = HistoryLm(["won", "one"])
    f = np.full((2, len(AB)), -5.0)
    f[:, AB.index("a")] = 5.0
    opts = dec.DecoderOptions(alpha=1.0, beam_size=1000, beam_score=math.inf)
    got = dec.decode(f, np.zeros((len(AB), len(AB))), trie, lm, opts)
    want = exhaustive_decode(f, np.zeros((len(AB), len(AB))), lexicon, AB, lm, opts)
    assert got.words == want.words
    assert got.objective == pytest.approx(want.objective, rel=1e-10)


def test_empty_beam_reports_frame():
    lexicon = {"ab": ["a", "b"]}
    trie = dec.build_trie(lexicon, AB)
    lm = uniform_lm(["ab"])
    f = np.zeros((1, len(AB)))
    f[:, AB.index("a")] = 10.0  # beam of 1 keeps only the mid-word hypothesis
    opts = dec.DecoderOptions(beam_size=1, beam_score=math.inf)
    with pytest.raises(EmptyBeamError) as err:
        dec.decode(f, np.zeros((len(AB), len(AB))), trie, lm, opts)
    assert err.value.frame == 1


def test_merge_and_prune_run_once_per_frame(monkeypatch):
    rng = np.random.default_rng(12)
    emissions, g, trie, lm, opts = make_instance(rng, t=6)
    calls = {"merge": 0, "prune": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dec, "merge_hypotheses", counted("merge", dec.merge_hypotheses))
    monkeypatch.setattr(dec, "prune", counted("prune", dec.prune))
    dec.decode(emissions, g, trie, lm, opts)
    assert calls == {"merge": 6 + 1, "prune": 6}  # merge once more at finalization


class ProtocolOnlyLm:
    """Exposes exactly start_state/score/vocab and logs every lookup."""

    def __init__(self, base):
        self.vocab = base.vocab
        self._base = base
        self.scored = []

    def start_state(self):
        return self._base.start_state()

    def score(self, state, token_id):
        self.scored.append((state, token_id))
        return self._base.score(state, token_id)


def test_decode_scores_each_state_and_word_once():
    rng = np.random.default_rng(13)
    for trial in range(10):
        emissions, g, trie, base, opts = make_instance(rng, t=6)
        lm = ProtocolOnlyLm(base)
        got = dec.decode(emissions, g, trie, lm, opts)
        # sentence ends are scored pairs too, each once
        assert (lm.vocab.end_id in {token for _, token in lm.scored}
                and len(set(lm.scored)) == len(lm.scored)), trial
        want = dec.decode(emissions, g, trie, base, opts)
        assert (got.words, got.objective) == (want.words, want.objective)


def test_lexicon_word_missing_from_lm_is_rejected():
    trie = dec.build_trie({"a": ["a"], "b": ["b"], "<unk>": ["c"]}, AB)
    lm = HistoryLm(["a"])  # has no "b"; the unknown token itself is in every vocabulary
    f = np.zeros((2, len(AB)))
    with pytest.raises(VocabularyError, match="missing from the LM vocabulary: b$"):
        dec.decode(f, np.zeros((len(AB), len(AB))), trie, lm, dec.DecoderOptions())
    dec.decode(f, np.zeros((len(AB), len(AB))), trie, HistoryLm(["a", "b"]),
               dec.DecoderOptions())


class OneWordScoredAs(HistoryLm):
    """HistoryLm, except that `word` is always scored `value`."""

    def __init__(self, words, word, value):
        super().__init__(words)
        self.bad, self.value = self.vocab.id(word), value

    def score(self, state, token_id):
        logp, next_state = super().score(state, token_id)
        return (self.value if token_id == self.bad else logp), next_state


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("word", ["b", "</s>"])
def test_lm_score_of_nan_or_pos_inf_names_the_word(word, value):
    # a NaN score once broke the beam's merge with an IndexError
    trie = dec.build_trie({"a": ["a"], "b": ["b"]}, AB)
    lm = OneWordScoredAs(["a", "b"], word, value)
    f = np.zeros((4, len(AB)))
    with pytest.raises(DomainError, match=f"LM score of '{word}' is {value}"):
        dec.decode(f, np.zeros((len(AB), len(AB))), trie, lm, dec.DecoderOptions(alpha=0.5))


def test_lm_score_of_neg_inf_forbids_the_word():
    trie = dec.build_trie({"a": ["a"], "b": ["b"]}, AB)
    f = np.zeros((4, len(AB)))
    f[:, AB.index("b")] = 1.0  # the acoustics prefer "b"
    g = np.zeros((len(AB), len(AB)))
    opts = dec.DecoderOptions(alpha=0.5)
    assert "b" in dec.decode(f, g, trie, HistoryLm(["a", "b"]), opts).words
    result = dec.decode(f, g, trie, OneWordScoredAs(["a", "b"], "b", -math.inf), opts)
    assert result.words and "b" not in result.words


def test_exhaustive_single_word_lexicon():
    lm = uniform_lm(["b"])
    f = np.full((1, len(AB)), -3.0)
    f[0, AB.index("b")] = 4.0
    opts = dec.DecoderOptions(alpha=1.0, beta=0.5, beam_size=10, beam_score=math.inf)
    res = exhaustive_decode(f, np.zeros((len(AB), len(AB))), {"b": ["b"]}, AB, lm, opts)
    lm_total = lm._logp((), lm.vocab.id("b")) + lm._logp((lm.vocab.id("b"),), lm.vocab.end_id)
    assert res.words == ["b"]
    assert res.objective == pytest.approx(4.0 + 1.0 * lm_total + 0.5, rel=1e-10)


def test_exhaustive_invariant_to_lexicon_order():
    rng = np.random.default_rng(10)
    emissions, g, _, _, opts = make_instance(rng, t=4, lexicon={"a": ["a"], "b": ["b"]})
    lm = HistoryLm(["a", "b"])
    r1 = exhaustive_decode(emissions, g, {"a": ["a"], "b": ["b"]}, AB, lm, opts)
    r2 = exhaustive_decode(emissions, g, {"b": ["b"], "a": ["a"]}, AB, lm, opts)
    assert r1.objective == pytest.approx(r2.objective, rel=1e-12)


def test_exhaustive_capacity_guard():
    lm = uniform_lm(["a"])
    with pytest.raises(ValueError, match="limited to 20 frames"):
        exhaustive_decode(np.zeros((25, len(AB))), np.zeros((len(AB), len(AB))),
                          {"a": ["a"]}, AB, lm, dec.DecoderOptions())


def test_tune_grid_singleton():
    rng = np.random.default_rng(11)
    emissions, g, trie, lm, _ = make_instance(rng, t=5, lexicon={"a": ["a"], "b": ["b"]})
    validation = [(emissions, g, ["a"])]
    best, rows = dec.tune_grid(validation, [0.5], [0.1], [0.2], trie, lm)
    assert (best.alpha, best.beta, best.gamma) == (0.5, 0.1, 0.2)
    assert best.beam_size == 3000 and best.beam_score == 50.0
    assert len(rows) == 2 and rows[-1]["stage"] == 2


def test_tune_grid_finds_planted_optimum():
    # lexicon words "a" and "b"; emissions favor "b" but reference is "a";
    # only a gamma=0 / high-alpha point with an LM preferring "a" can win
    trie = dec.build_trie({"a": ["a"], "b": ["b"]}, AB)

    class BiasedLm(HistoryLm):
        def _logp(self, state, token_id):
            return -0.1 if token_id == self.vocab.id("a") else -8.0

    lm = BiasedLm(["a", "b"])
    f = np.full((3, len(AB)), -2.0)
    f[:, AB.index("b")] = 1.0
    f[:, AB.index("a")] = 0.5
    validation = [(f, np.zeros((len(AB), len(AB))), ["a"])]
    best, rows = dec.tune_grid(validation, [0.0, 4.0], [0.0], [0.0], trie, lm)
    assert best.alpha == 4.0
    by_point = {(r["alpha"], r["stage"]): r["wer"] for r in rows}
    assert by_point[(4.0, 1)] < by_point[(0.0, 1)]


def test_decode_failures_are_counted():
    rng = np.random.default_rng(12)
    emissions, g, trie, lm, opts = make_instance(rng, t=5, lexicon={"a": ["a"], "b": ["b"]})
    empty = np.zeros((0, len(AB)))  # no frames: the beam is empty from the start
    items = [(emissions, g, ["a"]), (empty, g, ["a", "b"])]
    report = dec.decode_and_score(items, trie, lm, opts)
    wer = report.wer
    assert report.decode_failures == 1
    assert wer == dec.items_wer(items, trie, lm, opts)
    # the failed item is scored as an empty hypothesis: both its words deleted
    alone = dec.decode_and_score(items[:1], trie, lm, opts).wer
    assert wer == pytest.approx(100.0 * (alone / 100.0 * 1 + 2) / 3)
    assert report.utterances[1].hypothesis == [] and report.utterances[1].deletions == 2
    _, rows = dec.tune_grid(items, [0.5, 1.0], [0.1], [0.2], trie, lm)
    assert [row["failures"] for row in rows] == [1, 1, 1]


@pytest.mark.parametrize("field, value", [
    ("alpha", math.nan), ("beta", math.nan), ("gamma", math.nan), ("beam_score", math.nan),
    ("alpha", math.inf), ("beta", math.inf), ("gamma", math.inf), ("beam_score", -1.0)])
def test_options_reject_nan_and_infinite_weights(field, value):
    with pytest.raises(ConfigurationError):
        dec.DecoderOptions(**{field: value})


def test_tune_grid_rejects_empty():
    trie = dec.build_trie({"a": ["a"]}, AB)
    with pytest.raises(ConfigurationError, match="validation set is empty"):
        dec.tune_grid([], [1.0], [0.0], [0.0], trie, HistoryLm(["a"]))
    with pytest.raises(ConfigurationError):
        dec.tune_grid([(None, None, ["a"])], [], [0.0], [0.0], None, None)


@pytest.mark.parametrize("grids, lexicon, error", [
    (([], [0.0], [0.0]), {"a": ["a"]}, ConfigurationError),
    (([0.5], [math.nan], [0.0]), {"a": ["a"]}, ConfigurationError),
    (([0.5], [0.0], [-1.0]), {"a": ["a"]}, ConfigurationError),
    (([0.5], [0.0], [0.0]), {"a": ["a"], "zz": ["b"]}, VocabularyError),
], ids=["empty grid", "NaN beta", "negative gamma", "word missing from the LM"])
def test_tune_grid_refuses_before_taking_an_item(grids, lexicon, error):
    taken = []

    def items():
        for item in [(np.zeros((3, len(AB))), np.zeros((len(AB), len(AB))), ["a"])]:
            taken.append(item)
            yield item

    trie = dec.build_trie(lexicon, AB)
    with pytest.raises(error):
        dec.tune_grid(items(), *grids, trie, HistoryLm(["a"]))
    assert taken == []


def test_tune_grid_stages_are_options():
    emissions, g, trie, lm, _ = make_instance(np.random.default_rng(11), t=5,
                                              lexicon={"a": ["a"], "b": ["b"]})
    stage1 = dec.DecoderOptions(beam_size=7, beam_score=3.0, merge_mode="max")
    stage2 = dec.DecoderOptions(alpha=9.0, beam_size=11, beam_score=4.0)
    best, rows = dec.tune_grid([(emissions, g, ["a"])], [0.5, 1.0], [0.1], [0.0], trie, lm,
                               stage1, stage2)
    assert [(r["beam_size"], r["beam_score"], r["stage"]) for r in rows] == [
        (7, 3.0, 1), (7, 3.0, 1), (11, 4.0, 2)]
    # the winner's weights replace stage 2's; its other options are kept
    assert best.alpha in (0.5, 1.0)
    assert best == dec.DecoderOptions(alpha=best.alpha, beta=0.1, gamma=0.0,
                                      beam_size=11, beam_score=4.0)


def test_decode_and_score_of_one_utterance_twice_scores_each_pair_once():
    emissions, g, trie, base, opts = make_instance(np.random.default_rng(17), t=6)
    lm = ProtocolOnlyLm(base)
    report = dec.decode_and_score([(emissions, g, ["a"])] * 2, trie, lm, opts)
    once = ProtocolOnlyLm(base)
    dec.decode(emissions, g, trie, once, opts)
    # the second decode finds every pair, sentence ends included, in the memo
    assert lm.scored == once.scored and lm.vocab.end_id in {token for _, token in lm.scored}
    assert report.utterances[0].hypothesis == report.utterances[1].hypothesis


def test_decode_and_score_shares_lm_lookups():
    # one LM memo per call: across utterances, and across tune_grid's points
    rng = np.random.default_rng(16)
    lexicon = {"a": ["a"], "b": ["b"], "ab": ["a", "b"]}
    trie = dec.build_trie(lexicon, AB)
    base = HistoryLm(list(lexicon))
    items = []
    for _ in range(4):
        emissions, g, _, _, opts = make_instance(rng, t=5, lexicon=lexicon)
        items.append((emissions, g, ["a"]))
    lm = ProtocolOnlyLm(base)
    report = dec.decode_and_score(items, trie, lm, opts)
    assert (lm.vocab.end_id in {token for _, token in lm.scored}
            and len(set(lm.scored)) == len(lm.scored))
    alone = [dec.decode(emissions, g, trie, base, opts).words for emissions, g, _ in items]
    assert [utterance.hypothesis for utterance in report.utterances] == alone
    lm = ProtocolOnlyLm(base)
    _, rows = dec.tune_grid(items, [0.0, 1.0], [0.5], [0.0, 0.3], trie, lm)
    assert len(set(lm.scored)) == len(lm.scored)
    assert [row["wer"] for row in rows] == [
        dec.decode_and_score(items, trie, base, dec.DecoderOptions(
            alpha=row["alpha"], beta=row["beta"], gamma=row["gamma"],
            beam_size=row["beam_size"], beam_score=row["beam_score"])).wer for row in rows]


def _golden_cases():
    """40 seeded decodes over the merge modes, half with impossible letters, a
    quarter with homophones, a fifth under a beam tight enough to fail."""
    homophones = {"won": ["a"], "one": ["a"], "aa": ["a", "a"], "ab": ["a", "b"], "bc": ["b", "c"]}
    long_words = {"ab": ["a", "b"], "bca": ["b", "c", "a"], "cab": ["c", "a", "b"]}
    for case in range(40):
        rng = np.random.default_rng(1000 + case)
        lexicon = homophones if case % 4 == 3 else long_words if case % 5 == 4 else None
        emissions, g, trie, lm, opts = make_instance(rng, t=int(rng.integers(2, 12)),
                                                     lexicon=lexicon)
        if case % 2:
            emissions[rng.random(emissions.shape) < 0.2] = -np.inf
        opts = dataclasses.replace(opts, merge_mode=("logadd", "max", "off")[case % 3])
        if case % 5 == 4:
            opts = dataclasses.replace(opts, beam_size=int(rng.integers(1, 4)),
                                       beam_score=float(rng.uniform(1.0, 5.0)))
        yield emissions, g, trie, lm, opts


def _golden_row(emissions, g, trie, lm, opts) -> dict:
    try:
        res = dec.decode(emissions, g, trie, lm, opts)
    except EmptyBeamError as err:
        return {"empty_beam_at": err.frame}
    return {"words": res.words, "letter_path": res.letter_path, "word_count": res.word_count,
            "silence_count": res.silence_count, "objective": res.objective.hex(),
            "am_component": res.am_component.hex(), "lm_component": res.lm_component.hex()}


def test_decoder_outputs_match_golden_file():
    # decoder_golden.json pins the decoder's outputs; regenerate it (run this
    # file as a script) only for a change that is meant to alter them
    want = json.loads(GOLDEN.read_text())
    got = [_golden_row(*case) for case in _golden_cases()]
    assert len(got) == len(want) == 40
    assert sum("empty_beam_at" in row for row in want) >= 2
    for case, (row, expected) in enumerate(zip(got, want)):
        assert row.keys() == expected.keys(), case
        for name, value in row.items():
            if name in ("objective", "am_component", "lm_component"):
                x, y = float.fromhex(value), float.fromhex(expected[name])
                assert x == y or x == pytest.approx(y, rel=1e-12), (case, name)
            else:
                assert value == expected[name], (case, name)


if __name__ == "__main__":
    rows = [json.dumps(_golden_row(*case)) for case in _golden_cases()]
    GOLDEN.write_text("[\n" + ",\n".join(rows) + "\n]\n")
