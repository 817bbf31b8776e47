"""Independent brute-force reference implementations used by the test suite.

Everything here is deliberately naive (scalar loops, full enumeration) and
shares no code with the package under test.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np

NEG_INF = float("-inf")


def naive_preemphasis(x, kernel):
    out = []
    for t in range(len(x)):
        prev = x[t - 1] if t > 0 else 0.0
        out.append(kernel[1] * x[t] + kernel[0] * prev)
    return np.array(out)


def naive_complex_conv_power(x, real, imag):
    k, width = real.shape
    t_conv = len(x) - width + 1
    out = np.zeros((k, t_conv))
    for f in range(k):
        for t in range(t_conv):
            acc_re = 0.0
            acc_im = 0.0
            for w in range(width):
                acc_re += real[f, w] * x[t + w]
                acc_im += imag[f, w] * x[t + w]
            out[f, t] = acc_re**2 + acc_im**2
    return out


def naive_lowpass_decimate(power, window, stride):
    k, t_conv = power.shape
    width = len(window)
    t_out = (t_conv - width) // stride + 1
    out = np.zeros((k, t_out))
    for f in range(k):
        for n in range(t_out):
            out[f, n] = sum(window[w] * power[f, n * stride + w] for w in range(width))
    return out


def naive_conv1d(x, weight, bias, pad_left=0, pad_right=0):
    """Scalar-loop 1-D cross-correlation at stride 1. x: (C_in, T); weight: (C_out, C_in, K)."""
    c_in, t_in = x.shape
    c_out, _, kw = weight.shape
    padded = np.zeros((c_in, t_in + pad_left + pad_right))
    padded[:, pad_left : pad_left + t_in] = x
    t_out = padded.shape[1] - kw + 1
    out = np.zeros((c_out, t_out))
    for o in range(c_out):
        for t in range(t_out):
            acc = bias[o]
            for i in range(c_in):
                for w in range(kw):
                    acc += weight[o, i, w] * padded[i, t + w]
            out[o, t] = acc
    return out


def naive_glu(pre):
    c = pre.shape[0] // 2
    a, b = pre[:c], pre[c:]
    return a * (1.0 / (1.0 + np.exp(-b)))


def logsumexp(values):
    values = [v for v in values]
    m = max(values)
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(sum(math.exp(v - m) for v in values))


def letter_paths(T, alphabet_size, target=None):
    """Every letter path of length T: all alphabet_size**T sequences when
    `target` is None, else each monotonic alignment of the target letter
    list, which starts on its first letter, ends on its last and at each
    frame boundary stays or advances by one. Alignments are enumerated by
    the frames at which they advance, so a target with equal neighbours still
    counts each alignment once."""
    if target is None:
        return list(itertools.product(range(alphabet_size), repeat=T))
    paths = []
    for advances in itertools.combinations(range(1, T), len(target) - 1):
        states = [sum(1 for a in advances if a <= t) for t in range(T)]
        paths.append(tuple(int(target[s]) for s in states))
    return paths


def path_score(emissions, transitions, path):
    s = emissions[0, path[0]]
    for t in range(1, len(path)):
        s += emissions[t, path[t]] + transitions[path[t - 1], path[t]]
    return s


def brute_force_graph_score(emissions, transitions, target=None):
    """log-sum-exp over every path's emission + transition score; the graph
    is the unconstrained one, or the target's alignments when given."""
    T, A = emissions.shape
    scores = [path_score(emissions, transitions, p) for p in letter_paths(T, A, target)]
    if not scores:
        return NEG_INF
    return logsumexp(scores)


def brute_force_graph_marginals(emissions, transitions, target=None):
    """(log partition, letter marginals (T, |A|), expected transition counts
    (|A|, |A|)) by weighting every path of the graph."""
    T, A = emissions.shape
    paths = letter_paths(T, A, target)
    scores = [path_score(emissions, transitions, p) for p in paths]
    log_z = logsumexp(scores)
    letter_marg = np.zeros((T, A))
    trans_marg = np.zeros((A, A))
    for path, s in zip(paths, scores):
        weight = math.exp(s - log_z)
        for t in range(T):
            letter_marg[t, path[t]] += weight
            if t:
                trans_marg[path[t - 1], path[t]] += weight
    return log_z, letter_marg, trans_marg


def finite_difference(loss_fn, arrays, step=1e-5):
    """Central finite differences of a scalar loss over a dict of arrays.

    Mutates copies only; returns a dict of gradient arrays matching shapes.
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            g.reshape(-1)[i] = (up - down) / (2.0 * step)
        grads[name] = g
    return grads


def grad_close(analytic, numeric, rel_tol=1e-4):
    """Relative gradient agreement in the norm sense used throughout."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
    return np.linalg.norm(a - n) / denom <= rel_tol


def repetition_encode(letters, alphabet):
    """Letter indices with each immediate repeat spelled by the repetition
    token; runs alternate letter and token ("aaa" -> a 2 a)."""
    rep = alphabet.letters.index(alphabet.repetition_token)
    out = []
    for i, letter in enumerate(letters):
        if i > 0 and letter == letters[i - 1] and out[-1] != rep:
            out.append(rep)
        else:
            out.append(alphabet.letters.index(letter))
    return out


def _frame_lengths(optional, total):
    """Every way to give each unit a run of frames summing to `total`; a unit
    flagged optional may get 0 frames, every other unit at least 1."""
    if len(optional) == 1:
        if total >= 1 or (total == 0 and optional[0]):
            yield (total,)
        return
    rest_min = sum(0 if o else 1 for o in optional[1:])
    for take in range(0 if optional[0] else 1, total - rest_min + 1):
        for rest in _frame_lengths(optional[1:], total - take):
            yield (take,) + rest


def _letter_paths(spellings, sil, total):
    """Every frame-level letter path of `total` frames that spells the words:
    optional leading and trailing silence, at least one silence frame between
    words, each spelling letter held for one or more frames. No words: all
    silence."""
    if not spellings:
        yield [sil] * total
        return
    units, optional = [sil], [True]
    for i, spelling in enumerate(spellings):
        if i:
            units.append(sil)
            optional.append(False)
        units.extend(spelling)
        optional.extend([False] * len(spelling))
    units.append(sil)
    optional.append(True)
    for lengths in _frame_lengths(optional, total):
        yield [letter for letter, run in zip(units, lengths) for _ in range(run)]


def exhaustive_decode(emissions, transitions, lexicon, alphabet, lm, opts, max_words=4):
    """The decoder's objective maximised by enumerating every word sequence of
    at most `max_words` words and, per sequence, every letter path spelling it.

    A sequence scores the log-sum-exp of its paths' emission + transition
    scores (minus gamma per silence frame) plus alpha times its LM log
    probability (sentence end included) plus beta per word. Returns a
    DecodeResult-like object: words, letter_path (the best single path),
    objective, am_component, lm_component, word_count, silence_count.
    Refuses instances of more than 20 frames or 8 words.
    """
    f = np.asarray(emissions, dtype=np.float64)
    g = np.asarray(transitions, dtype=np.float64)
    T = f.shape[0]
    if T > 20 or len(lexicon) > 8:
        raise ValueError(f"exhaustive decode is limited to 20 frames and 8 words, "
                         f"got {T} frames and {len(lexicon)} words")
    sil = alphabet.letters.index(alphabet.silence_token)
    spelled = {word: repetition_encode(list(s), alphabet) for word, s in lexicon.items()}
    best = None
    for n_words in range(max_words + 1):
        for words in itertools.product(lexicon, repeat=n_words):
            paths = list(_letter_paths([spelled[w] for w in words], sil, T))
            if not paths:
                continue
            scores = [path_score(f, g, p) - opts.gamma * p.count(sil) for p in paths]
            top = max(range(len(paths)), key=lambda i: scores[i])  # first best path
            pooled = logsumexp(scores)
            state, lm_total = lm.start_state(), 0.0
            for word in words:
                logp, state = lm.score(state, lm.vocab.id(word))
                lm_total += logp
            lm_total += lm.finish(state)
            objective = pooled + opts.alpha * lm_total + opts.beta * n_words
            if best is None or objective > best.objective:
                silences = paths[top].count(sil)
                best = SimpleNamespace(
                    words=list(words), letter_path=paths[top], objective=objective,
                    am_component=pooled + opts.gamma * silences, lm_component=lm_total,
                    word_count=n_words, silence_count=silences)
    if best is None:
        raise ValueError(f"no word sequence fits {T} frames")
    return best


def brute_force_edit_counts(ref, hyp):
    """Minimal substitutions+deletions+insertions by exhaustive alignment."""
    best = None

    def walk(i, j, s, d, ins):
        nonlocal best
        if best is not None and s + d + ins >= sum(best):
            return
        if i == len(ref) and j == len(hyp):
            cand = (s, d, ins)
            if best is None or sum(cand) < sum(best):
                best = cand
            return
        if i < len(ref) and j < len(hyp):
            walk(i + 1, j + 1, s + (ref[i] != hyp[j]), d, ins)
        if i < len(ref):
            walk(i + 1, j, s, d + 1, ins)
        if j < len(hyp):
            walk(i, j + 1, s, d, ins + 1)

    walk(0, 0, 0, 0, 0)
    return best
