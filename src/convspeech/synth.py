"""Synthetic spoken-letters task: tone words, silence gaps, optional noise.

A desk-scale stand-in for a speech corpus: each letter is a pure tone, words
concatenate letter tones, words are separated by silence gaps, and a noisy
condition adds white Gaussian noise. Everything is deterministic given the
seed, down to the written sample bytes.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .audio_io import write_wav
from .checkpoint import read_text
from .criterion import Alphabet
from .errors import ConfigurationError, ConvSpeechError

SAMPLE_RATE = 16000


@dataclass
class ManifestEntry:
    utt_id: str
    audio: str
    text: str


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class SyntheticTaskSpec:
    # Tones span 300-2400 Hz; the upper four sit 120-140 Hz apart, far finer
    # than the ~700 Hz mel triangles an 8-channel bank has in that band but
    # comfortably above a 400-tap filter's frequency resolution. Clean audio
    # stays separable for both front-ends; under noise the wide fixed bands
    # blur, which is what the learnable front-end is expected to survive.
    letters: tuple[str, ...] = ("a", "b", "c", "d", "e")
    tone_frequencies: tuple[float, ...] = (300.0, 2000.0, 2120.0, 2260.0, 2400.0)
    letter_duration_ms: float = 120.0
    gap_duration_ms: float = 60.0
    noise_level: float = 0.0  # white-noise standard deviation
    amplitude: float = 0.5
    lexicon: dict[str, list[str]] = field(default_factory=dict)
    sentence_words: tuple[int, int] = (1, 4)
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        if len(self.letters) != len(self.tone_frequencies):
            raise ConfigurationError("one tone frequency per letter is required")
        if len(set(self.tone_frequencies)) != len(self.tone_frequencies):
            raise ConfigurationError("tone frequencies must be distinct")
        if max(self.tone_frequencies) > self.sample_rate / 2:
            raise ConfigurationError("tone frequencies must stay below Nyquist")
        if not self.letter_duration_ms >= 10.0:
            raise ConfigurationError("letters must span at least one frame stride")
        if not 0.0 <= self.noise_level < np.inf:
            raise ConfigurationError(f"noise level {self.noise_level} is not finite and >= 0")
        if not self.lexicon:
            self.lexicon = default_lexicon(self.letters)
        if not isinstance(self.lexicon, dict) or not all(
                isinstance(word, str) and isinstance(spelling, (list, tuple)) and spelling
                and all(letter in self.letters for letter in spelling)
                for word, spelling in self.lexicon.items()):
            raise ConfigurationError(
                "lexicon must map each word to a non-empty list of the task's letters")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet.from_plain_letters(self.letters)


def default_lexicon(letters) -> dict[str, list[str]]:
    """Single letters, adjacent pairs, and two triples; no doubled letters."""
    words = list(letters)
    n = len(letters)
    for i in range(n):
        words.append(letters[i] + letters[(i + 1) % n])
    words.append("".join(letters[i % n] for i in range(3)))
    words.append("".join(letters[(i + 2) % n] for i in range(3)))
    return {w: list(w) for w in dict.fromkeys(words)}


def snr_noise_level(spec: SyntheticTaskSpec, snr_db: float) -> float:
    """Noise std giving the requested SNR against the tone RMS."""
    tone_rms = spec.amplitude / np.sqrt(2.0)
    return float(tone_rms / (10.0 ** (snr_db / 20.0)))


def noisy_variant(spec: SyntheticTaskSpec, snr_db: float = 5.0) -> SyntheticTaskSpec:
    return replace(spec, noise_level=snr_noise_level(spec, snr_db))


def normalize_transcript(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    table = str.maketrans("", "", string.punctuation)
    return text.lower().translate(table).split()


def transcript_letters(words, lexicon, silence_token: str) -> list[str]:
    """Letter sequence of a word string with silence between words."""
    letters: list[str] = []
    for i, word in enumerate(words):
        if word not in lexicon:
            raise ConvSpeechError(f"word {word!r} not in the lexicon")
        if i > 0:
            letters.append(silence_token)
        letters.extend(lexicon[word])
    return letters


def render_utterance(spec: SyntheticTaskSpec, words, rng: np.random.Generator) -> np.ndarray:
    """Tone rendering of a word sequence, with optional additive noise."""
    rate = spec.sample_rate
    letter_len = int(round(spec.letter_duration_ms * rate / 1000.0))
    gap_len = int(round(spec.gap_duration_ms * rate / 1000.0))
    freq = dict(zip(spec.letters, spec.tone_frequencies))
    pieces = []
    for i, word in enumerate(words):
        if i > 0:
            pieces.append(np.zeros(gap_len))
        for letter in spec.lexicon[word]:
            t = np.arange(letter_len) / rate
            pieces.append(spec.amplitude * np.sin(2.0 * np.pi * freq[letter] * t))
    samples = np.concatenate(pieces) if pieces else np.zeros(gap_len)
    if spec.noise_level > 0.0:
        samples = samples + rng.normal(0.0, spec.noise_level, samples.shape)
    return samples


def sample_sentence(spec: SyntheticTaskSpec, rng: np.random.Generator,
                    transition_bias: np.ndarray | None = None) -> list[str]:
    """Word sequence with an optional first-order Markov bias between words."""
    words = sorted(spec.lexicon)
    lo, hi = spec.sentence_words
    length = int(rng.integers(lo, hi + 1))
    if transition_bias is None:
        return [words[int(rng.integers(0, len(words)))] for _ in range(length)]
    sentence = [words[int(rng.integers(0, len(words)))]]
    for _ in range(length - 1):
        row = transition_bias[words.index(sentence[-1])]
        sentence.append(words[int(rng.choice(len(words), p=row))])
    return sentence


def markov_bias(spec: SyntheticTaskSpec, seed: int = 7) -> np.ndarray:
    """Fixed random word-to-word transition matrix for corpus generation."""
    words = sorted(spec.lexicon)
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(len(words), 1.0 / 6.0), size=len(words))  # concentration 6


def check_count(count: int, what: str):
    """Refuse a negative size, which would render or draw nothing without saying so."""
    if count < 0:
        raise ConfigurationError(f"{what} must be >= 0, got {count}")


def _write_split(spec: SyntheticTaskSpec, out_dir, split: str, utterances) -> DatasetManifest:
    """Render, write and list each (words, rng) pair of `utterances`, then the manifest."""
    audio_dir = Path(out_dir) / "audio" / split
    audio_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (words, rng) in enumerate(utterances):
        samples = render_utterance(spec, words, rng)
        utt_id = f"{split}-{i:05d}"
        path = audio_dir / f"{utt_id}.wav"
        try:
            write_wav(path, samples, spec.sample_rate)
        except OSError as exc:
            raise ConvSpeechError(f"failed writing {path}: {exc}") from exc
        entries.append(ManifestEntry(utt_id, str(path), " ".join(words)))
    manifest = DatasetManifest(entries)
    save_manifest(Path(out_dir) / f"{split}.jsonl", manifest)
    return manifest


def synthesize_dataset(
    spec: SyntheticTaskSpec,
    out_dir,
    counts: dict[str, int],
    seed: int = 0,
    transition_bias: np.ndarray | None = None,
) -> dict[str, "DatasetManifest"]:
    """Render WAVs and JSONL manifests for each split; deterministic per seed."""
    for split, count in counts.items():
        check_count(count, f"{split} count")
    manifests: dict[str, DatasetManifest] = {}
    for split_idx, (split, count) in enumerate(sorted(counts.items())):
        rngs = (np.random.default_rng([seed, split_idx, i]) for i in range(count))
        manifests[split] = _write_split(
            spec, out_dir, split,
            ((sample_sentence(spec, rng, transition_bias), rng) for rng in rngs))
    return manifests


def synthesize_from_sentences(
    spec: SyntheticTaskSpec, sentences, out_dir, split: str, seed: int = 0
) -> DatasetManifest:
    """Render explicit word sequences instead of sampled ones."""
    return _write_split(spec, out_dir, split,
                        ((words, np.random.default_rng([seed, i]))
                         for i, words in enumerate(sentences)))


def synthesize_corpus(spec: SyntheticTaskSpec, count: int, seed: int = 0,
                      transition_bias: np.ndarray | None = None) -> list[list[str]]:
    """Text-only sentences from the same distribution, for LM training."""
    check_count(count, "sentence count")
    sentences = []
    for i in range(count):
        rng = np.random.default_rng([seed, 999, i])
        sentences.append(sample_sentence(spec, rng, transition_bias))
    return sentences


# Study task for the LM experiments: "ab1" and "ab2" are homophones (same
# spelling), and the anchor word two tokens earlier determines which one a
# sentence contains. Acoustics cannot separate the pair and a context-1 LM
# cannot see the anchor, so WER tracks LM quality and context size directly.
HOMOPHONE_STUDY_LEXICON = {
    "a": ["a"], "b": ["b"], "c": ["c"], "d": ["d"], "e": ["e"],
    "ab1": ["a", "b"], "ab2": ["a", "b"],
}


def homophone_study_spec() -> SyntheticTaskSpec:
    return SyntheticTaskSpec(lexicon=dict(HOMOPHONE_STUDY_LEXICON), sentence_words=(3, 5))


def homophone_study_sentences(count: int, seed: int) -> list[list[str]]:
    check_count(count, "sentence count")
    sentences = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        anchor = "a" if rng.random() < 0.5 else "b"
        variant = "ab1" if anchor == "a" else "ab2"
        tail = [str(rng.choice(["c", "d"])) for _ in range(int(rng.integers(0, 3)))]
        sentences.append([anchor, "e", variant, *tail])
    return sentences


def save_manifest(path, manifest: DatasetManifest):
    lines = [
        json.dumps({"id": e.utt_id, "audio": e.audio, "text": e.text})
        for e in manifest.entries
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_manifest(path) -> DatasetManifest:
    entries = []
    seen = set()
    for no, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConvSpeechError(f"{path}:{no}: invalid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ConvSpeechError(f"{path}:{no}: expected a JSON object, got {line!r}")
        for key in ("id", "audio", "text"):
            if not isinstance(record.get(key), str):
                raise ConvSpeechError(f"{path}:{no}: field {key!r} is missing or not a string")
        if record["id"] in seen:
            raise ConvSpeechError(f"{path}:{no}: duplicate utterance id {record['id']!r}")
        seen.add(record["id"])
        if not Path(record["audio"]).is_file():
            raise ConvSpeechError(f"{path}:{no}: audio file {record['audio']} not readable")
        entries.append(ManifestEntry(record["id"], record["audio"], record["text"]))
    return DatasetManifest(entries)
