"""Sequence criterion with learned letter transitions.

Scores letter paths by per-frame emissions plus input-independent transition
scores, normalizing with a log-sum-exp over all paths of an alignment graph.
There are two graphs, the unconstrained one (any letter at any frame) and the
target one (monotonic alignments of the target), and one pass each: a frame
loop that yields alpha and beta together. The loss is the difference between
their scores. There is no blank symbol; doubled letters in targets are
rewritten with a repetition token and silence is an ordinary letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .acoustic import EmissionTable
from .errors import (ConfigurationError, DimensionError, DomainError, InfeasibleAlignmentError,
                     VocabularyError)


@dataclass(frozen=True)
class Alphabet:
    """Ordered letter set including the silence and repetition tokens."""

    letters: tuple[str, ...]
    silence_token: str = "|"
    repetition_token: str = "2"

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise ConfigurationError("alphabet letters must be unique")
        if len(self.letters) < 2:
            raise ConfigurationError("alphabet needs at least 2 letters")
        for tok in (self.silence_token, self.repetition_token):
            if tok not in self.letters:
                raise ConfigurationError(f"special token {tok!r} missing from alphabet")

    @classmethod
    def from_plain_letters(cls, plain: Sequence[str]) -> "Alphabet":
        return cls(tuple(plain) + ("|", "2"))

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def silence_index(self) -> int:
        return self.letters.index(self.silence_token)

    @property
    def repetition_index(self) -> int:
        return self.letters.index(self.repetition_token)

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise VocabularyError(f"letter {letter!r} not in alphabet") from None


def encode_target(alphabet: Alphabet, letters: Sequence[str]) -> np.ndarray:
    """Letter indices (int64) with immediate repeats rewritten as the repetition token.

    Runs alternate letter/repetition ("aaa" -> a 2 a), so the result never has
    identical adjacent indices and decodes back uniquely.
    """
    if len(letters) == 0:
        raise VocabularyError("cannot encode an empty letter sequence")
    rep = alphabet.repetition_index
    out: list[int] = []
    for i, ch in enumerate(letters):
        idx = alphabet.index(ch)
        if i > 0 and ch == letters[i - 1] and out[-1] != rep:
            out.append(rep)
        else:
            out.append(idx)
    return np.asarray(out, dtype=np.int64)


def as_scores(emissions, g) -> tuple[np.ndarray, np.ndarray]:
    """The (T, |A|) score array of an EmissionTable or array-like, and the
    (|A|, |A|) transitions `g` as a float array. Raises DimensionError on other
    shapes, and DomainError on a NaN or +inf score: -inf forbids a letter or a
    transition, but NaN and +inf have no meaning in a path's sum."""
    if isinstance(emissions, EmissionTable):
        emissions = emissions.scores
    f = np.asarray(emissions, dtype=np.float64)
    gmat = np.asarray(g, dtype=np.float64)
    if f.ndim != 2 or gmat.shape != (f.shape[1], f.shape[1]):
        raise DimensionError(f"emissions {f.shape} and transitions {gmat.shape} do not fit: "
                             "expected (frames, |A|) and (|A|, |A|)")
    if not ((f < np.inf).all() and (gmat < np.inf).all()):
        raise DomainError("emissions or transitions contain NaN or +inf")
    return f, gmat


def _full_passes(f, g):
    """(alpha, beta) over the unconstrained graph, where any letter follows any
    letter and every letter may end a path.

    Frame t of alpha and frame T-1-t of beta are log-adds down the columns of
    one (2, |A|, |A|) slab: `heads[t-1]` (alpha[t-1] and f[u] + beta[u] for
    u = T-t) as columns, plus g and g.T. So each frame is 3 numpy calls, and
    logaddexp keeps a column of -inf at exactly -inf. Frame t's log-adds go to
    row t of `lse`, and beta is a reversed view of their second slab.
    """
    t_total, s = f.shape
    heads = np.empty((t_total, 2, s))
    emit = np.stack([f, f[::-1]], axis=1)  # what frame t adds to each slab's result
    lse = np.zeros((t_total, 2, s))  # per frame, slab and column; row 0 holds beta[T-1]
    heads[0] = f[0], f[-1] + 0.0  # alpha[0], and f[T-1] + beta[T-1]
    arcs = np.stack([g, g.T])
    slabs = np.empty((2, s, s))
    for column, row, em, head in zip(heads[:-1, :, :, None], lse[1:], emit[1:], heads[1:]):
        np.add(column, arcs, out=slabs)
        np.logaddexp.reduce(slabs, axis=1, out=row)
        np.add(em, row, out=head)
    return heads[:, 0], lse[::-1, 1]


def _check_feasible(target: np.ndarray, num_frames: int):
    if len(target) > num_frames:
        raise InfeasibleAlignmentError(
            f"target of {len(target)} letters cannot align onto {num_frames} frames"
        )


def _target_tables(f: np.ndarray, g: np.ndarray, target: np.ndarray):
    """Band of the target graph: emissions (T, S), stay (S,) and advance (S-1,) scores."""
    if len(target) == 0:
        raise InfeasibleAlignmentError("empty target")
    return f[:, target], g[target, target], g[target[:-1], target[1:]]


def _target_passes(em, stay, advance):
    """(alpha, beta) over the target graph, where state s is entered from s or
    s-1 and left to s or s+1.

    Row t of `heads` holds alpha[t] and, with the states reversed,
    em[u] + beta[u] for u = T-1-t, so one loop steps both with the same adds,
    in the order of their own recursions. Nothing enters beta's first state:
    its advance score is -inf, which logaddexp adds as exactly 0 (beta is
    never -0.0). `sums` keeps each row before its emissions.
    """
    t_total, s = em.shape
    sums = np.full((t_total, 2 * s), -np.inf)
    heads = np.full((t_total, 2 * s), -np.inf)
    heads[0, 0] = em[0, 0]
    stays = np.concatenate([stay, stay[::-1]])
    advances = np.concatenate([advance, [-np.inf], advance[::-1]])
    emit = np.concatenate([em, em[::-1, ::-1]], axis=1)
    sums[0, s : s + 1] = 0.0  # beta[T-1]: only the last state ends a path
    np.add(sums[0, s:], emit[0, s:], out=heads[0, s:])
    entered = np.empty(2 * s - 1)
    froms, intos = heads[:, :-1], sums[:, 1:]
    for t in range(1, t_total):
        np.add(heads[t - 1], stays, out=sums[t])
        np.add(froms[t - 1], advances, out=entered)
        np.logaddexp(intos[t], entered, out=intos[t])
        np.add(sums[t], emit[t], out=heads[t])
    return heads[:, :s], sums[::-1, s:][:, ::-1]


def _inputs(emissions, g, target):
    """`as_scores` of the emissions and transitions, and `target` as an array;
    raises DimensionError on zero frames or a target letter outside the
    alphabet."""
    f, gmat = as_scores(emissions, g)
    if not len(f):
        raise DimensionError(f"emissions {f.shape} have no frames")
    if target is not None:
        target = np.asarray(target)
        if target.ndim != 1 or not ((0 <= target) & (target < f.shape[1])).all():
            raise DimensionError(
                f"target is not a 1-d sequence of letters 0 .. {f.shape[1] - 1}")
    return f, gmat, target


def forward_score(emissions, g, target: np.ndarray | None = None) -> float:
    """log-sum-exp over all paths of per-frame emission + transition sums.

    With no target the paths are every letter sequence of T frames (the
    unconstrained graph); with one, the monotonic alignments of the target,
    where each frame stays on the current target letter or advances to the
    next. The first frame contributes its emission only; transitions apply
    from the second frame on. Returns -inf when the target has more letters
    than there are frames; raises InfeasibleAlignmentError for an empty
    target, DimensionError on mis-shaped scores, zero frames or a letter
    outside the alphabet, and DomainError on a NaN or +inf score.
    """
    f, gmat, target = _inputs(emissions, g, target)
    if target is None:
        return float(np.logaddexp.reduce(_full_passes(f, gmat)[0][-1]))
    return float(_target_passes(*_target_tables(f, gmat, target))[0][-1, -1])


def asg_loss(emissions, g, target: np.ndarray) -> float:
    """Unconstrained minus target-constrained graph score; always >= 0.
    Raises as `forward_score` does, and InfeasibleAlignmentError when the
    target has more letters than there are frames."""
    f, gmat, target = _inputs(emissions, g, target)
    _check_feasible(target, f.shape[0])
    return forward_score(f, gmat) - forward_score(f, gmat, target)


def _full_marginals(f, gmat):
    """Unconstrained graph: letter marginals (T, |A|), transition marginals
    (|A|, |A|) and the log partition."""
    alpha, beta = _full_passes(f, gmat)
    z = np.logaddexp.reduce(alpha[-1])
    log_edges = alpha[:-1, :, None] + gmat + (f[1:] + beta[1:])[:, None, :]
    log_edges -= z
    trans_marg = np.exp(log_edges, out=log_edges).sum(axis=0)
    return np.exp(alpha + beta - z), trans_marg, float(z)


def _target_marginals(f, gmat, target: np.ndarray):
    """The same three quantities for the target graph, from its band."""
    em, stay, advance = _target_tables(f, gmat, target)
    alpha, beta = _target_passes(em, stay, advance)
    z = alpha[-1, -1]
    post = np.exp(alpha + beta - z)  # (T, S)
    letter_marg = np.zeros_like(f)
    np.add.at(letter_marg, (slice(None), target), post)
    ahead = em[1:] + beta[1:] - z
    stays = np.exp(alpha[:-1] + stay + ahead).sum(axis=0)
    advances = np.exp(alpha[:-1, :-1] + advance + ahead[:, 1:]).sum(axis=0)
    trans_marg = np.zeros_like(gmat)
    np.add.at(trans_marg, (target, target), stays)
    np.add.at(trans_marg, (target[:-1], target[1:]), advances)
    return letter_marg, trans_marg, float(z)


def asg_loss_and_gradients(emissions, g, target: np.ndarray):
    """(loss, emission gradient, transition gradient) in one forward-backward.

    The emission gradient at frame t is the difference between the posterior
    letter marginals of the unconstrained and constrained graphs; the
    transition gradient is the analogous difference of expected edge counts.
    Raises as `asg_loss` does."""
    f, gmat, target = _inputs(emissions, g, target)
    _check_feasible(target, f.shape[0])
    full_letter, full_trans, z_full = _full_marginals(f, gmat)
    con_letter, con_trans, z_con = _target_marginals(f, gmat, target)
    return z_full - z_con, full_letter - con_letter, full_trans - con_trans

