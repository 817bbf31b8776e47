"""Word/character error rates via Levenshtein alignment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class UtteranceScore:
    utterance_id: str
    reference: list[str]
    hypothesis: list[str]
    substitutions: int
    deletions: int
    insertions: int


@dataclass
class EvalReport:
    """Aggregated error counts; wer = 100 * (S+D+I) / reference length.

    With no reference words at all, the rates divide by 1, so insertions
    still count as errors.
    """

    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    reference_length: int = 0
    cer_errors: int = 0
    cer_reference_length: int = 0
    utterances: list[UtteranceScore] = field(default_factory=list)
    decode_failures: int = 0

    @property
    def wer(self) -> float:
        errors = self.substitutions + self.deletions + self.insertions
        return 100.0 * errors / max(self.reference_length, 1)

    @property
    def cer(self) -> float:
        return 100.0 * self.cer_errors / max(self.cer_reference_length, 1)


def edit_distance_alignment(reference: Sequence, hypothesis: Sequence):
    """Minimal (substitutions, deletions, insertions) aligning hyp to ref.

    Ties are resolved preferring substitutions, then deletions, then
    insertions, so the split of a given minimal cost is deterministic.
    """
    n, m = len(reference), len(hypothesis)
    # cost[i][j]: distance between reference[:i] and hypothesis[:j]
    cost = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost[i][0] = i
    for j in range(1, m + 1):
        cost[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            same = reference[i - 1] == hypothesis[j - 1]
            cost[i][j] = min(
                cost[i - 1][j - 1] + (0 if same else 1),
                cost[i - 1][j] + 1,
                cost[i][j - 1] + 1,
            )
    s = d = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] + (
            0 if reference[i - 1] == hypothesis[j - 1] else 1
        ):
            if reference[i - 1] != hypothesis[j - 1]:
                s += 1
            i, j = i - 1, j - 1
        elif i > 0 and cost[i][j] == cost[i - 1][j] + 1:
            d += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return s, d, ins


def score_utterance(utt_id: str, reference: Sequence[str], hypothesis: Sequence[str]) -> UtteranceScore:
    s, d, ins = edit_distance_alignment(list(reference), list(hypothesis))
    return UtteranceScore(utt_id, list(reference), list(hypothesis), s, d, ins)


def aggregate(scores: Sequence[UtteranceScore]) -> EvalReport:
    """Summed word errors, and character errors over each utterance's words
    joined by single spaces."""
    report = EvalReport()
    for sc in scores:
        report.substitutions += sc.substitutions
        report.deletions += sc.deletions
        report.insertions += sc.insertions
        report.reference_length += len(sc.reference)
        report.utterances.append(sc)
        ref_chars, hyp_chars = " ".join(sc.reference), " ".join(sc.hypothesis)
        s, d, ins = edit_distance_alignment(ref_chars, hyp_chars)
        report.cer_errors += s + d + ins
        report.cer_reference_length += len(ref_chars)
    return report
