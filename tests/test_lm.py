import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convspeech import lm as lmod
from convspeech.errors import ArpaParseError, DomainError
from convspeech.gcnn import GcnnConfig, GcnnLm

# Hand-built consistent back-off bigram. Unigrams: a=0.4, b=0.3, </s>=0.2,
# <unk>=0.1. Observed bigrams: P(a|<s>)=0.9, P(b|a)=0.6. Back-off weights make
# each conditional sum to one: bo(<s>) = 0.1/0.6, bo(a) = 0.4/0.7.
HAND_BIGRAM = """\
\\data\\
ngram 1=5
ngram 2=2

\\1-grams:
-99 <s> -0.7781513
-0.3979400 a -0.2430380
-0.5228787 b
-0.6989700 </s>
-1.0000000 <unk>

\\2-grams:
-0.0457575 <s> a
-0.2218487 a b

\\end\\
"""


def hand_model():
    return lmod.load_arpa(io.StringIO(HAND_BIGRAM))


def uniform_unigram(v=10):
    tokens = [f"t{i}" for i in range(v - 2)] + ["</s>", "<unk>"]
    lines = ["\\data\\", f"ngram 1={v + 1}", "", "\\1-grams:", "-99 <s>"]
    lines += [f"{math.log10(1.0 / v):.7f} {tok}" for tok in tokens]
    lines += ["", "\\end\\", ""]
    return lmod.load_arpa(io.StringIO("\n".join(lines)))


def test_load_minimal_unigram():
    text = "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.3 a\n-0.6 b\n-0.9 c\n\n\\end\\\n"
    model = lmod.load_arpa(io.StringIO(text))
    assert model.order == 1
    assert len(model.tables[0]) == 3
    # specials appended to the vocabulary even when absent from the tables
    assert {"<s>", "</s>", "<unk>"} <= set(model.vocab.tokens)


def test_load_count_mismatch():
    text = "\\data\\\nngram 1=5\n\n\\1-grams:\n-0.3 a\n-0.6 b\n-0.9 c\n-0.9 d\n\n\\end\\\n"
    with pytest.raises(ArpaParseError, match=r"\\1-grams"):
        lmod.load_arpa(io.StringIO(text))


def test_load_requires_data_header():
    with pytest.raises(ArpaParseError, match="data"):
        lmod.load_arpa(io.StringIO("\\1-grams:\n-0.3 a\n\\end\\\n"))


def test_load_rejects_non_numeric():
    text = "\\data\\\nngram 1=1\n\n\\1-grams:\nxyz a\n\n\\end\\\n"
    with pytest.raises(ArpaParseError, match="non-numeric"):
        lmod.load_arpa(io.StringIO(text))


def test_load_rejects_positive_logprob():
    text = "\\data\\\nngram 1=1\n\n\\1-grams:\n0.5 a\n\n\\end\\\n"
    with pytest.raises(ArpaParseError, match="positive"):
        lmod.load_arpa(io.StringIO(text))


@pytest.mark.parametrize("entry, message", [
    ("nan a", "log10 probability nan is positive or NaN"),
    ("-0.3 a nan", "back-off weight nan is NaN or +inf"),
    ("-0.3 a inf", "back-off weight inf is NaN or +inf"),
])
def test_load_rejects_nan_and_pos_inf_values(entry, message):
    text = f"\\data\\\nngram 1=1\n\n\\1-grams:\n{entry}\n\n\\end\\\n"
    with pytest.raises(ArpaParseError, match=re.escape(f"line 5: {message}")):
        lmod.load_arpa(io.StringIO(text))


def test_load_keeps_neg_inf_values():
    # -inf is a probability of 0, or no back-off mass
    text = "\\data\\\nngram 1=2\n\n\\1-grams:\n-inf a -inf\n-0.3 b\n\n\\end\\\n"
    model = lmod.load_arpa(io.StringIO(text))
    assert model.score((), model.vocab.id("a"))[0] == -math.inf


def test_load_rejects_orphan_context():
    text = ("\\data\\\nngram 1=1\nngram 2=1\n\n\\1-grams:\n-0.3 a\n\n"
            "\\2-grams:\n-0.2 b a\n\n\\end\\\n")
    with pytest.raises(ArpaParseError):
        lmod.load_arpa(io.StringIO(text))


def test_line_numbers_reported():
    text = "\\data\\\nngram 1=1\n\n\\1-grams:\nbad a\n\n\\end\\\n"
    with pytest.raises(ArpaParseError) as err:
        lmod.load_arpa(io.StringIO(text))
    assert err.value.line_no == 5


def test_stored_bigram_score():
    model = hand_model()
    v = model.vocab
    state = (v.id("a"),)
    logp, next_state = model.score(state, v.id("b"))
    assert logp == pytest.approx(math.log(0.6), rel=1e-6)
    assert next_state == (v.id("b"),)


def test_backoff_score_hand_computed():
    model = hand_model()
    v = model.vocab
    # a->a unseen: back-off weight of "a" times the unigram of "a"
    logp, _ = model.score((v.id("a"),), v.id("a"))
    assert logp == pytest.approx(math.log(0.4 / 0.7) + math.log(0.4), rel=1e-6)
    # context "b" has no back-off entry: weight 1 (log 0)
    logp, _ = model.score((v.id("b"),), v.end_id)
    assert logp == pytest.approx(math.log(0.2), rel=1e-6)


def test_unigram_uniform_scores():
    model = uniform_unigram(4)
    for tok in ("t0", "t1", "</s>"):
        logp, _ = model.score((), model.vocab.id(tok))
        assert logp == pytest.approx(math.log(0.25), rel=1e-6)


def test_conditionals_sum_to_one():
    model = hand_model()
    v = model.vocab
    for context in ((), (v.begin_id,), (v.id("a"),), (v.id("b"),)):
        total = sum(
            math.exp(model.score(context, v.id(tok))[0])
            for tok in v.tokens
            if tok != lmod.SENTENCE_BEGIN
        )
        assert total == pytest.approx(1.0, abs=1e-3)


def test_perplexity_uniform():
    model = uniform_unigram(10)
    corpus = [["t0", "t1"], ["t2"]]
    assert lmod.perplexity(model, corpus) == pytest.approx(10.0, rel=1e-9)


def test_perplexity_deterministic_chain():
    text = ("\\data\\\nngram 1=4\nngram 2=3\n\n\\1-grams:\n-99 <s> 0.0\n"
            "-0.3 x 0.0\n-0.6 y 0.0\n-0.9 </s>\n\n"
            "\\2-grams:\n0.0 <s> x\n0.0 x y\n0.0 y </s>\n\n\\end\\\n")
    model = lmod.load_arpa(io.StringIO(text))
    assert lmod.perplexity(model, [["x", "y"]]) == pytest.approx(1.0)


def test_perplexity_hand_computed():
    model = hand_model()
    logs = [
        math.log(0.9),            # a | <s>
        math.log(0.6),            # b | a
        math.log(0.2),            # </s> | b (back-off weight 1)
        math.log(0.9),            # a | <s>
        math.log(0.4 / 0.7 * 0.2),  # </s> | a via back-off
    ]
    want = math.exp(-sum(logs) / 5)
    got = lmod.perplexity(model, [["a", "b"], ["a"]])
    # the ARPA text rounds log10 values to 7 decimals
    assert got == pytest.approx(want, rel=1e-5)


def test_perplexity_empty_corpus():
    with pytest.raises(DomainError):
        lmod.perplexity(hand_model(), [])


def test_unknown_words_map_to_unk():
    model = hand_model()
    logp, _ = model.score((), model.vocab.id("zzz"))
    assert logp == pytest.approx(math.log(0.1), rel=1e-6)


def test_vocabulary_ids_match_token_positions():
    vocab = lmod.Vocabulary(("b", "</s>", "a", "<unk>", "<s>", "c"))
    for position, token in enumerate(vocab.tokens):
        assert vocab.id(token) == position
    assert vocab.id("zzz") == vocab.unknown_id == 3
    assert (vocab.begin_id, vocab.end_id) == (4, 1)


def test_context_limit_matches_unrestricted_when_long():
    model = hand_model()
    v = model.vocab
    history = tuple(v.id(t) for t in ["<s>", "a", "b", "a"])
    full = lmod.ContextLimitedLM(model, limit=10).score(history, v.id("b"))[0]
    direct = model.score(history, v.id("b"))[0]
    assert full == direct
    assert lmod.ContextLimitedLM(model, 4).score(history, v.id("b"))[0] == full


def test_context_limit_truncates():
    model = hand_model()
    # limit 1 after history ending in "b": context (b), P(a|b) backs off to unigram
    v = model.vocab
    got = lmod.ContextLimitedLM(model, limit=1).score((v.id("a"), v.id("b")), v.id("a"))[0]
    assert got == pytest.approx(math.log(0.4), rel=1e-6)


def test_context_limited_wrapper_states():
    model = lmod.ContextLimitedLM(hand_model(), limit=1)
    v = model.vocab
    state = model.start_state()
    assert state == (v.begin_id,)
    logp, state = model.score(state, v.id("a"))
    assert state == (v.id("a"),)
    assert logp == pytest.approx(math.log(0.9), rel=1e-6)


def test_constant_in_limit_once_covering():
    model = hand_model()
    v = model.vocab
    history = (v.id("a"), v.id("b"))
    scores = {
        limit: lmod.ContextLimitedLM(model, limit).score(history, v.id("a"))[0]
        for limit in (2, 3, 5, 50)
    }
    assert len(set(scores.values())) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "</s>", "<unk>"]), max_size=6),
       st.lists(st.sampled_from(["a", "b"]), max_size=6),
       st.sampled_from(["a", "b", "</s>"]))
def test_equal_state_keys_score_identically(h1, h2, token):
    model = hand_model()
    v = model.vocab
    ids1 = [v.id(t) for t in h1]
    ids2 = [v.id(t) for t in h2]
    s1 = tuple(ids1)[-(model.order - 1):]
    s2 = tuple(ids2)[-(model.order - 1):]
    if s1 == s2:
        assert model.score(tuple(ids1), v.id(token))[0] == model.score(tuple(ids2), v.id(token))[0]


def fitted_bigram():
    corpus = [["go", "north"], ["go", "south"], ["stop"], ["go", "north", "fast"]]
    return lmod.load_arpa(io.StringIO(lmod.fit_bigram_arpa(corpus)))


def conv_lm():
    config = GcnnConfig(num_blocks=2, embed_dim=6, bottleneck_dim=3, mid_kernel_width=3)
    return GcnnLm(fitted_bigram().vocab, config, rng=np.random.default_rng(0))


# each model with N, the number of trailing history tokens its score reads
PROTOCOL_MODELS = {
    "bigram": lambda: (fitted_bigram(), 1),
    "unigram": lambda: (uniform_unigram(6), 0),
    "gcnn": lambda: (conv_lm(), 5),
}


@pytest.mark.parametrize("limit", [None, 1, 3, 8])
@pytest.mark.parametrize("name", sorted(PROTOCOL_MODELS))
def test_score_reads_only_last_n_tokens(name, limit):
    model, n = PROTOCOL_MODELS[name]()
    if limit is not None:
        base, model, n = model, lmod.ContextLimitedLM(model, limit), min(n, limit)
    rng = np.random.default_rng(1)
    size = len(model.vocab)
    for _ in range(40):
        history = tuple(int(t) for t in rng.integers(0, size, int(rng.integers(0, 16))))
        token = int(rng.integers(0, size))
        logp = model.score(history, token)[0]
        assert logp == model.score(history[-n:] if n else (), token)[0]
        if limit is not None:
            assert logp == base.score(history[-limit:], token)[0]


def test_lru_cache_evicts_oldest():
    cache = lmod.LruCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1
    cache.put("c", 3)  # evicts b (least recently used)
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert len(cache) == 2


def test_fit_bigram_round_trips_and_sums_to_one():
    corpus = [["go", "north"], ["go", "south"], ["stop"], ["go", "north", "fast"]]
    model = lmod.load_arpa(io.StringIO(lmod.fit_bigram_arpa(corpus)))
    v = model.vocab
    for context in ((), (v.begin_id,), (v.id("go"),), (v.id("north"),)):
        total = sum(
            math.exp(model.score(context, v.id(tok))[0])
            for tok in v.tokens
            if tok != lmod.SENTENCE_BEGIN
        )
        assert total == pytest.approx(1.0, abs=1e-3)
    # seen continuations outweigh unseen ones
    assert model.score((v.id("go"),), v.id("north"))[0] > model.score(
        (v.id("go"),), v.id("stop")
    )[0]
    assert lmod.perplexity(model, corpus) < lmod.perplexity(model, [["north", "go"]])


@pytest.mark.parametrize("marker", [lmod.SENTENCE_BEGIN, lmod.SENTENCE_END])
def test_fit_bigram_refuses_sentence_markers(marker):
    # <s> would be a second 1-gram that load_arpa refuses, </s> a bigram context
    with pytest.raises(DomainError, match=f"sentence 2 holds the sentence marker {marker}"):
        lmod.fit_bigram_arpa([["go"], ["go", marker, "north"]])
