"""The benchmark's synthetic task: inputs made from a seed, and shared settings.

Every input the program sees is generated here with convspeech's own `synth`
module: WAVs and JSONL manifests for the acoustic side, sentence corpora for
the language models. The same seed gives the same bytes.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np
from convspeech import synth
from convspeech.decoder import DecoderOptions
from convspeech.lm import fit_bigram_arpa, load_arpa

from bootstrap import CHECKPOINT_DIR

SPEC = synth.SyntheticTaskSpec()
BIAS = synth.markov_bias(SPEC)

# The `evaluate` regime of acceptance criterion 5.
DECODE_OPTS = DecoderOptions(alpha=1.0, beta=1.0, beam_size=2500, beam_score=26.0)

TRAINED = "am_trained.json"
UNTRAINED = "am_untrained.json"
SUMS = CHECKPOINT_DIR / "SHA256SUMS"


# Word lengths (in letters) of the sentences in one cycle: 1 to 4 words, 20
# words and 33 letters (4.68 s of audio) per 8 sentences, and each half of the
# cycle holds 10 words. Every seed renders the same cycle, so utterance
# durations, and with them frame counts, FFT sizes and memory, do not change
# from seed to seed; the seed picks the words.
LENGTH_CYCLE = ((1,), (2, 3), (1, 2, 1), (1, 2, 2, 1), (2,), (1, 2), (2, 1, 2), (2, 1, 3, 1))


def cycled_sentences(seed: int, stream: int, count: int) -> list[list[str]]:
    """Sentences with word lengths from LENGTH_CYCLE and words from the task's chain.

    The first word is uniform among words of its length; each next word follows
    the task's word-to-word bias, restricted to words of the required length.
    """
    words = sorted(SPEC.lexicon)
    by_length: dict[int, list[int]] = {}
    for i, w in enumerate(words):
        by_length.setdefault(len(SPEC.lexicon[w]), []).append(i)
    sentences = []
    for n in range(count):
        rng = np.random.default_rng([seed, stream, n])
        sentence: list[int] = []
        for length in LENGTH_CYCLE[n % len(LENGTH_CYCLE)]:
            choices = by_length[length]
            if sentence:
                weights = BIAS[sentence[-1], choices]
                pick = choices[int(rng.choice(len(choices), p=weights / weights.sum()))]
            else:
                pick = choices[int(rng.integers(len(choices)))]
            sentence.append(pick)
        sentences.append([words[i] for i in sentence])
    return sentences


def manifest(seed: int, stream: int, count: int, out_dir: Path, split: str):
    return synth.synthesize_from_sentences(
        SPEC, cycled_sentences(seed, stream, count), out_dir, split, seed=seed)


def corpus(seed: int, count: int) -> list[list[str]]:
    """Text drawn from the task's word chain, for fitting the bigram LM."""
    return synth.synthesize_corpus(SPEC, count, seed=seed, transition_bias=BIAS)


def bigram(sentences):
    return load_arpa(io.StringIO(fit_bigram_arpa(sentences)))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_sums() -> dict[str, str]:
    sums = {}
    for line in SUMS.read_text().splitlines():
        digest, name = line.split()
        sums[name] = digest
    return sums


class ChecksumMismatch(RuntimeError):
    pass


def verified_checkpoint(name: str) -> Path:
    """Path of a frozen checkpoint whose bytes match SHA256SUMS."""
    path = CHECKPOINT_DIR / name
    if not path.is_file():
        raise ChecksumMismatch(f"{path} is missing; regenerate with "
                               "`python3 bench/make_checkpoints.py`")
    want = read_sums().get(name)
    if want is None:
        raise ChecksumMismatch(f"{name} is not listed in {SUMS}")
    got = sha256(path)
    if got != want:
        raise ChecksumMismatch(
            f"{path}: sha256 {got} != {want} in {SUMS}; regenerate with "
            "`python3 bench/make_checkpoints.py` or restore the file")
    return path
