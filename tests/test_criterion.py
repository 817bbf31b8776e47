import itertools
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convspeech import criterion as cr
from convspeech.acoustic import AcousticModel, AcousticModelConfig, ConvLayerSpec
from convspeech.errors import (ConfigurationError, DimensionError, DomainError,
                               InfeasibleAlignmentError, VocabularyError)
from convspeech.pipeline import small_model_config

from oracles import (
    brute_force_graph_marginals,
    brute_force_graph_score,
    finite_difference,
    grad_close,
    logsumexp as lse,
    long_double_graph_marginals,
)

AB = cr.Alphabet(("a", "b", "c", "|", "2"))


def random_instance(rng, t, a):
    emissions = rng.normal(size=(t, a))
    transitions = rng.normal(size=(a, a)) * 0.5
    return emissions, transitions


def test_alphabet_validation():
    with pytest.raises(ConfigurationError):
        cr.Alphabet(("a", "a", "|", "2"))
    with pytest.raises(ConfigurationError):
        cr.Alphabet(("a", "b"), silence_token="|")
    assert AB.silence_index == 3 and AB.repetition_index == 4


def test_encode_no_repeats():
    assert cr.encode_target(AB, ["a", "b"]).tolist() == [0, 1]


def test_encode_double_letter():
    # "hello"-style doubling: the repeated letter becomes the repetition token
    got = cr.encode_target(AB, list("abba")).tolist()
    assert got == [0, 1, AB.repetition_index, 0]


def test_encode_triple_letter():
    got = cr.encode_target(AB, list("aaa")).tolist()
    assert got == [0, AB.repetition_index, 0]


def test_encode_unknown_letter():
    with pytest.raises(VocabularyError):
        cr.encode_target(AB, ["z"])


def test_encode_injective_exhaustive():
    # distinct letter sequences get distinct encodings, so an encoding decodes uniquely
    letters = ("a", "b", "c", "|")
    seen = {}
    for length in range(1, 7):
        for combo in itertools.product(letters, repeat=length):
            enc = cr.encode_target(AB, list(combo))
            assert enc.dtype == np.int64
            assert all(enc[i] != enc[i + 1] for i in range(len(enc) - 1))
            assert seen.setdefault(tuple(enc.tolist()), combo) == combo


def test_forward_score_single_frame():
    emissions = np.zeros((1, 3))
    target = np.array([0])
    assert cr.forward_score(emissions, np.zeros((3, 3)), target) == 0.0


def test_forward_score_uniform_two_frames():
    emissions = np.zeros((2, 2))
    score = cr.forward_score(emissions, np.zeros((2, 2)))
    assert score == pytest.approx(math.log(4.0))


def test_forward_score_matches_enumeration():
    rng = np.random.default_rng(0)
    for trial in range(30):
        t = int(rng.integers(1, 6))
        a = int(rng.integers(2, 5))
        emissions, transitions = random_instance(rng, t, a)
        for letters in (None, [0, 1][: min(t, 2)]):
            target = None if letters is None else np.array(letters)
            got = cr.forward_score(emissions, transitions, target)
            want = brute_force_graph_score(emissions, transitions, letters)
            assert got == pytest.approx(want, rel=1e-10)


def test_forward_score_empty_target():
    with pytest.raises(InfeasibleAlignmentError):
        cr.forward_score(np.zeros((3, 3)), np.zeros((3, 3)), np.array([], dtype=np.int64))


def test_forward_score_infeasible_is_neg_inf():
    emissions = np.zeros((1, 3))
    target = np.array([0, 1])
    assert cr.forward_score(emissions, np.zeros((3, 3)), target) == float("-inf")


def test_asg_loss_single_frame_uniform():
    emissions = np.zeros((1, 3))
    loss = cr.asg_loss(emissions, np.zeros((3, 3)), np.array([0]))
    assert loss == pytest.approx(math.log(3.0))


def test_asg_loss_peaked_emissions_near_zero():
    target = cr.encode_target(AB, list("ab|c"))
    t = 8
    a = len(AB)
    emissions = np.full((t, a), -10.0)
    # lay the target monotonically over the frames and peak those letters
    spans = np.array_split(np.arange(t), len(target))
    for letters, span in zip(target, spans):
        emissions[span, letters] = 10.0
    loss = cr.asg_loss(emissions, np.zeros((a, a)), target)
    assert 0.0 <= loss <= 0.01


def test_asg_loss_matches_enumeration():
    rng = np.random.default_rng(1)
    for trial in range(25):
        t = int(rng.integers(2, 6))
        a = int(rng.integers(2, 5))
        emissions, transitions = random_instance(rng, t, a)
        tgt_len = int(rng.integers(1, t + 1))
        encoded = [int(rng.integers(0, a))]
        while len(encoded) < tgt_len:
            nxt = int(rng.integers(0, a))
            if nxt != encoded[-1]:
                encoded.append(nxt)
        target = np.array(encoded)
        want = brute_force_graph_score(emissions, transitions) - brute_force_graph_score(
            emissions, transitions, encoded)
        got = cr.asg_loss(emissions, transitions, target)
        assert got == pytest.approx(want, rel=1e-8)
        assert got >= -1e-12


def test_asg_loss_infeasible_target():
    with pytest.raises(InfeasibleAlignmentError):
        cr.asg_loss(np.zeros((1, 3)), np.zeros((3, 3)), np.array([0, 1]))


def _rel_err(got, want):
    want = np.asarray(want, dtype=np.float64)
    return np.max(np.abs(np.asarray(got) - want)) / max(np.max(np.abs(want)), 1e-12)


@pytest.mark.parametrize(
    "letters, t",
    [
        (list("abba"), 6),  # doubled letter -> repetition token
        (list("aaa"), 5),  # alternating letter / repetition token
        (["c"], 4),  # one-letter target
        (list("ab|c"), 4),  # T == S: a single path
        (list("b|a"), 7),
    ],
)
def test_banded_asg_matches_brute_force(letters, t):
    rng = np.random.default_rng(len(letters) * 10 + t)
    emissions, transitions = random_instance(rng, t, len(AB))
    target = cr.encode_target(AB, letters)
    z_full, full_letter, full_trans = brute_force_graph_marginals(emissions, transitions)
    z_con, con_letter, con_trans = brute_force_graph_marginals(
        emissions, transitions, target)
    loss, d_em, d_g = cr.asg_loss_and_gradients(emissions, transitions, target)
    assert _rel_err(loss, z_full - z_con) <= 1e-10
    assert _rel_err(cr.asg_loss(emissions, transitions, target), z_full - z_con) <= 1e-10
    assert _rel_err(d_em, full_letter - con_letter) <= 1e-10
    assert _rel_err(d_g, full_trans - con_trans) <= 1e-10


def test_asg_gradients_infeasible_target():
    target = cr.encode_target(AB, list("abc"))
    with pytest.raises(InfeasibleAlignmentError):
        cr.asg_loss_and_gradients(np.zeros((2, len(AB))), np.zeros((len(AB),) * 2), target)


def test_gradients_single_letter_alphabet_degenerate():
    # |A| = 2 with a length-T target covering every frame in both graphs is the
    # closest non-trivial analogue: loss stays positive but gradients cancel
    # only in the truly degenerate 1-letter case, which Alphabet forbids.
    emissions = np.zeros((3, 2))
    target = np.array([0, 1, 0])
    _, d_em, d_g = cr.asg_loss_and_gradients(emissions, np.zeros((2, 2)), target)
    assert d_em.shape == (3, 2) and d_g.shape == (2, 2)


def test_emission_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    emissions, transitions = random_instance(rng, 6, 4)
    target = np.array([0, 2, 1])
    _, d_em, _ = cr.asg_loss_and_gradients(emissions, transitions, target)
    assert np.max(np.abs(d_em.sum(axis=1))) <= 1e-8


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for trial in range(12):
        t = int(rng.integers(2, 6))
        a = int(rng.integers(2, 5))
        emissions, transitions = random_instance(rng, t, a)
        encoded = [0] if t == 1 else [0, 1]
        target = np.array(encoded[: min(t, 2)])
        _, d_em, d_g = cr.asg_loss_and_gradients(emissions, transitions, target)
        arrays = {"emissions": emissions, "transitions": transitions}
        numeric = finite_difference(
            lambda: cr.asg_loss(arrays["emissions"], arrays["transitions"], target),
            arrays,
            step=1e-5,
        )
        assert grad_close(d_em, numeric["emissions"], 1e-4)
        assert grad_close(d_g, numeric["transitions"], 1e-4)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_forward_score_enumeration_property(t, a, seed):
    rng = np.random.default_rng(seed)
    emissions, transitions = random_instance(rng, t, a)
    got = cr.forward_score(emissions, transitions)
    want = brute_force_graph_score(emissions, transitions)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("forbid", ["letter", "transition", "transition_row"])
def test_neg_inf_scores_match_enumeration(forbid):
    # a letter no frame may emit, one transition no path may take, and a
    # letter that nothing may follow (every cell of its row -inf, so one
    # log-sum-exp of each pass sees only -inf); the target avoids them all
    rng = np.random.default_rng(40)
    emissions, transitions = random_instance(rng, 5, 4)
    target = np.array([0, 1, 0])
    if forbid == "letter":
        emissions[:, 3] = -np.inf
        cells = (slice(None), 3)
    elif forbid == "transition":
        transitions[1, 2] = -np.inf
        cells = (1, 2)
    else:
        transitions[3, :] = -np.inf
        cells = (3, slice(None))
    z_full, full_letter, full_trans = brute_force_graph_marginals(emissions, transitions)
    z_con, con_letter, con_trans = brute_force_graph_marginals(emissions, transitions, target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, d_em, d_g = cr.asg_loss_and_gradients(emissions, transitions, target)
        scores = (cr.forward_score(emissions, transitions),
                  cr.forward_score(emissions, transitions, target),
                  cr.asg_loss(emissions, transitions, target))
    assert _rel_err(scores, (z_full, z_con, z_full - z_con)) <= 1e-10
    assert _rel_err(loss, z_full - z_con) <= 1e-10
    assert _rel_err(d_em, full_letter - con_letter) <= 1e-10
    assert _rel_err(d_g, full_trans - con_trans) <= 1e-10
    if forbid == "letter":
        assert np.all(d_em[cells] == 0.0)
    else:
        assert np.all(d_g[cells] == 0.0)


def test_asg_loss_is_the_loss_of_the_gradient_pass():
    # one pass per graph: the loss alone reads the alphas that the gradients'
    # pass makes, so the two losses are the same float. The last letter,
    # never in the target, has -inf cells in its emissions and transitions.
    rng = np.random.default_rng(44)
    for trial in range(60):
        t, a = int(rng.integers(1, 40)), int(rng.integers(3, 10))
        emissions, transitions = random_instance(rng, t, a)
        target = rng.integers(0, a - 1, size=int(rng.integers(1, t + 1)))
        emissions[rng.random(t) < 0.5, a - 1] = -np.inf
        transitions[a - 1, rng.random(a) < 0.5] = -np.inf
        transitions[rng.random(a) < 0.5, a - 1] = -np.inf
        loss = cr.asg_loss(emissions, transitions, target)
        assert loss == cr.asg_loss_and_gradients(emissions, transitions, target)[0], trial


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["emission", "transition"])
@pytest.mark.parametrize("band", ["target", "off_target"])
def test_nan_and_pos_inf_scores_are_rejected(value, where, band):
    # one bad cell, either on the target's band (both graphs read it) or off
    # it (only the unconstrained graph does); -inf keeps its meaning above
    rng = np.random.default_rng(41)
    emissions, transitions = random_instance(rng, 6, 4)
    target = np.array([0, 1, 0])
    letter = 1 if band == "target" else 3
    if where == "emission":
        emissions[2, letter] = value
    else:
        transitions[letter, 0] = value
    calls = [lambda: cr.forward_score(emissions, transitions),
             lambda: cr.forward_score(emissions, transitions, target),
             lambda: cr.asg_loss(emissions, transitions, target),
             lambda: cr.asg_loss_and_gradients(emissions, transitions, target)]
    for call in calls:
        with pytest.raises(DomainError, match=r"NaN or \+inf"):
            call()



_SEVEN = np.zeros((7, 7))


@pytest.mark.parametrize("call", [
    lambda: cr.forward_score(np.zeros((0, 7)), _SEVEN),
    lambda: cr.forward_score(np.zeros((0, 7)), _SEVEN, np.array([0])),
    lambda: cr.forward_score(_SEVEN, np.zeros((6, 6))),
    lambda: cr.asg_loss_and_gradients(_SEVEN, np.zeros((6, 6)), np.array([0, 1])),
    lambda: cr.asg_loss(_SEVEN, _SEVEN, np.array([0, 9])),
    lambda: cr.asg_loss(np.zeros(7), _SEVEN, np.array([0])),
], ids=["no_frames", "no_frames_target", "transitions_6", "gradients_transitions_6",
        "letter_9", "one_dim_emissions"])
def test_misshapen_inputs_raise_dimension_error(call):
    # zero frames, transitions that do not fit the emissions' letters, a
    # target letter outside the alphabet and emissions that are not (T, |A|)
    with pytest.raises(DimensionError):
        call()

GOLDEN = Path(__file__).with_name("criterion_golden.json")


def _golden_cases():
    """Seeded 7-letter criterion inputs at T = 1, 2, 9, 55 and 98, then one
    with a letter -inf at every frame and one with -inf transition cells
    (a whole column and a whole row among them)."""
    for case, t in enumerate((1, 2, 9, 55, 98, 30, 30)):
        rng = np.random.default_rng(3000 + case)
        emissions = 2.0 * rng.normal(size=(t, 7))
        transitions = rng.normal(size=(7, 7))
        letters = [int(rng.integers(0, 4))]
        while len(letters) < min(t, 12):
            letters.append((letters[-1] + int(rng.integers(1, 4))) % 4)
        if case == 5:
            emissions[:, 5] = -np.inf
        if case == 6:
            transitions[rng.random((7, 7)) < 0.15] = -np.inf
            transitions[:, 4] = transitions[5, :] = -np.inf
            transitions[letters[:-1], letters[1:]] = 0.5
            transitions[letters, letters] = 0.25
        yield emissions, transitions, np.array(letters)


def _acoustic_golden_cases():
    """A small stack with dropout whose pre-activations reach both tails of
    the sigmoid gate, then the training model at the bench's longest training
    utterance, (8, 86) features, without and with dropout: that width-1
    projection runs through a BLAS path the small stack does not reach."""
    yield 3100, AcousticModelConfig(
        [ConvLayerSpec(4, 6, 3, dropout_rate=0.2), ConvLayerSpec(6, 5, 5)], alphabet_size=7
    ), 40
    trained = small_model_config(8, 7)
    yield 3101, trained, 86
    yield 3102, replace(trained, layers=[replace(spec, dropout_rate=0.2)
                                         for spec in trained.layers]), 86


def _acoustic_golden_row(seed, config, frames) -> dict:
    """One seeded AcousticModel forward and backward."""
    rng = np.random.default_rng(seed)
    model = AcousticModel(config, rng=rng)
    features = 6.0 * rng.normal(size=(config.layers[0].in_channels, frames))
    emissions, cache = model.forward(features, rng=rng, want_cache=True)
    grads, d_features = model.backward(cache, rng.normal(size=emissions.scores.shape))
    return {"emissions": _hexes(emissions.scores), "d_features": _hexes(d_features),
            **{key: _hexes(g) for key, g in sorted(grads.items())}}


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


def _golden_row(emissions, transitions, target) -> dict:
    loss, d_em, d_g = cr.asg_loss_and_gradients(emissions, transitions, target)
    return {"loss": _hexes(loss), "d_emissions": _hexes(d_em), "d_transitions": _hexes(d_g),
            "asg_loss": _hexes(cr.asg_loss(emissions, transitions, target)),
            "full_score": _hexes(cr.forward_score(emissions, transitions)),
            "target_score": _hexes(cr.forward_score(emissions, transitions, target))}


def _golden_rows() -> list[dict]:
    return ([_golden_row(*case) for case in _golden_cases()]
            + [_acoustic_golden_row(*case) for case in _acoustic_golden_cases()])


def test_criterion_outputs_match_golden_file():
    # criterion_golden.json pins the criterion's scores and gradients (to
    # 1e-12 relative) and three acoustic forwards/backwards (bit for bit);
    # regenerate it (run this file as a script) only for a change that is
    # meant to alter them
    want = json.loads(GOLDEN.read_text())
    got = _golden_rows()
    assert len(got) == len(want) == 10
    criterion_rows = len(list(_golden_cases()))
    for case, (row, expected) in enumerate(zip(got, want)):
        assert row.keys() == expected.keys(), case
        if case >= criterion_rows:
            assert row == expected, case
            continue
        for name, values in row.items():
            x = np.array([float.fromhex(v) for v in values])
            y = np.array([float.fromhex(v) for v in expected[name]])
            assert x.shape == y.shape, (case, name)
            assert np.all((x == y) | (np.abs(x - y) <= 1e-12 * np.abs(y))), (case, name)



@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here, so it is no reference")
def test_criterion_matches_a_long_double_forward_backward():
    # the golden inputs (T up to 98, -inf emissions and transitions) against
    # the same sums in extended precision: the float64 loss to 1e-14
    # relative, the emission gradient (marginal differences, each within
    # [-1, 1]) to 1e-12 absolute, and the transition gradient (differences of
    # counts summed over frames) to 1e-12 of its largest entry. First the
    # reference itself, against enumeration on a small graph.
    rng = np.random.default_rng(45)
    emissions, transitions = random_instance(rng, 5, 4)
    transitions[3, :] = -np.inf
    for target in (None, [0, 1, 0]):
        got = long_double_graph_marginals(emissions, transitions, target)
        want = brute_force_graph_marginals(emissions, transitions, target)
        assert all(np.max(np.abs(np.float64(x) - y)) <= 1e-12 for x, y in zip(got, want))
    for case, (emissions, transitions, target) in enumerate(_golden_cases()):
        z_full, full_letter, full_trans = long_double_graph_marginals(emissions, transitions)
        z_con, con_letter, con_trans = long_double_graph_marginals(emissions, transitions,
                                                                   target)
        loss, d_em, d_g = cr.asg_loss_and_gradients(emissions, transitions, target)
        want = float(z_full - z_con)
        assert abs(loss - want) <= 1e-14 * want, case
        assert abs(cr.asg_loss(emissions, transitions, target) - want) <= 1e-14 * want, case
        assert np.max(np.abs(d_em - (full_letter - con_letter))) <= 1e-12, case
        assert _rel_err(d_g, full_trans - con_trans) <= 1e-12, case

if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(row) for row in _golden_rows()) + "\n]\n")
