import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convspeech.metrics import aggregate, edit_distance_alignment, score_utterance

from oracles import brute_force_edit_counts


def wer(reference, hypothesis) -> float:
    """WER of one utterance, through the same scoring `decode_and_score` uses."""
    return aggregate([score_utterance("u", reference, hypothesis)]).wer


def test_identical_sequences():
    assert edit_distance_alignment(["a", "b"], ["a", "b"]) == (0, 0, 0)


def test_single_deletion():
    s, d, i = edit_distance_alignment("the cat sat".split(), "the cat".split())
    assert (s, d, i) == (0, 1, 0)
    assert wer("the cat sat".split(), "the cat".split()) == pytest.approx(100.0 / 3)


def test_single_insertion():
    assert edit_distance_alignment(["a"], ["a", "b"]) == (0, 0, 1)


def test_substitution_preferred_on_ties():
    # "a" -> "b" could be del+ins or one substitution; substitution wins
    assert edit_distance_alignment(["a"], ["b"]) == (1, 0, 0)


def test_empty_sequences():
    assert edit_distance_alignment([], []) == (0, 0, 0)
    assert edit_distance_alignment(["a", "b"], []) == (0, 2, 0)
    assert edit_distance_alignment([], ["a"]) == (0, 0, 1)


def test_matches_bruteforce_exhaustive():
    vocab = ["x", "y", "z"]
    for ref_len in range(0, 4):
        for hyp_len in range(0, 4):
            for ref in itertools.product(vocab, repeat=ref_len):
                for hyp in itertools.product(vocab, repeat=hyp_len):
                    got = edit_distance_alignment(list(ref), list(hyp))
                    want = brute_force_edit_counts(list(ref), list(hyp))
                    assert sum(got) == sum(want), (ref, hyp)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("xyz"), max_size=6),
       st.lists(st.sampled_from("xyz"), max_size=6))
def test_minimal_cost_property(ref, hyp):
    got = edit_distance_alignment(ref, hyp)
    want = brute_force_edit_counts(ref, hyp)
    assert sum(got) == sum(want)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from("xy"), max_size=5),
       st.lists(st.sampled_from("xy"), max_size=5))
def test_swap_symmetry(ref, hyp):
    s1, d1, i1 = edit_distance_alignment(ref, hyp)
    s2, d2, i2 = edit_distance_alignment(hyp, ref)
    assert s1 == s2
    assert (d1, i1) == (i2, d2)


def test_wer_of_identity_is_zero():
    assert wer(["a", "b", "c"], ["a", "b", "c"]) == 0.0


def test_wer_all_deletions():
    assert wer(["a", "b"], []) == 100.0


def test_wer_can_exceed_100():
    assert wer(["a"], ["b", "c", "d"]) > 100.0


def test_aggregate_consistency():
    scores = [
        score_utterance("u1", ["a", "b"], ["a"]),
        score_utterance("u2", ["c"], ["c", "d"]),
        score_utterance("u3", ["a"], ["b"]),
    ]
    report = aggregate(scores)
    assert report.substitutions == sum(s.substitutions for s in scores)
    assert report.deletions == sum(s.deletions for s in scores)
    assert report.insertions == sum(s.insertions for s in scores)
    assert report.reference_length == 4
    assert report.wer == pytest.approx(100.0 * 3 / 4)
    assert len(report.utterances) == 3


def test_aggregate_cer():
    # "ab cd" against "ab d": one deletion over five characters, the space included
    report = aggregate([score_utterance("u", ["ab", "cd"], ["ab", "d"])])
    assert report.cer == pytest.approx(100.0 / 5)
