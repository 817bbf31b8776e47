"""On-disk containers: checkpoints, emission tables, lexicon files.

Checkpoints are versioned JSON with base64-encoded raw array bytes, so values
round-trip bit-exactly. Emission tables use a small little-endian binary
format for decoder-only interchange; version 2 adds the transition table, so
a decode from the table scores paths as the system that wrote it does.
"""

from __future__ import annotations

import base64
import json
import struct
from pathlib import Path

import numpy as np

from .acoustic import EmissionTable
from .criterion import Alphabet
from .errors import ConfigurationError, VocabularyError

CHECKPOINT_FORMAT = "convspeech-checkpoint"
CHECKPOINT_VERSION = 1

_EMISSION_MAGIC = b"CSEM"
_EMISSION_VERSION = 2


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(entry: dict) -> np.ndarray:
    raw = base64.b64decode(entry["data"])
    arr = np.frombuffer(raw, dtype=np.dtype(entry["dtype"]))
    return arr.reshape(entry["shape"]).copy()


def save_checkpoint(path, kind: str, config: dict, arrays: dict[str, np.ndarray]):
    """Write a named-array container; `config` must be JSON-serializable."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "config": config,
        "arrays": {name: _encode_array(arr) for name, arr in arrays.items()},
    }
    Path(path).write_text(json.dumps(payload))


def read_text(path) -> str:
    """A UTF-8 text file's contents; other bytes raise ConfigurationError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"{path}: not UTF-8 text ({err})") from None


def read_json(path):
    """Parse a JSON file; malformed text raises ConfigurationError naming the file."""
    try:
        return json.loads(read_text(path))
    except ValueError as err:  # JSONDecodeError
        raise ConfigurationError(f"{path}: not valid JSON ({err})") from None


def load_checkpoint(path):
    """Read a container; returns (kind, config, arrays)."""
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigurationError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"{path} has unsupported checkpoint version {payload.get('version')}"
        )
    try:
        arrays = {name: _decode_array(entry) for name, entry in payload["arrays"].items()}
        return payload["kind"], payload["config"], arrays
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigurationError(f"{path}: malformed checkpoint ({type(err).__name__}: {err})") from None


def save_emissions(path, emissions: EmissionTable, alphabet: Alphabet, transitions):
    """Binary emission table (format v2): little-endian header, float64 scores,
    then the float64 (|A|, |A|) transition table the scores are decoded with.

    The two header bytes after the version are written as 0 and ignored on
    reading; earlier writers put a "normalized" flag in the first of them."""
    scores = np.ascontiguousarray(emissions.scores, dtype="<f8")
    t, a = scores.shape
    if a != len(alphabet):
        raise ConfigurationError(
            f"emission table has {a} letters but alphabet has {len(alphabet)}"
        )
    g = np.ascontiguousarray(transitions, dtype="<f8")
    if g.shape != (a, a):
        raise ConfigurationError(f"transition table of shape {g.shape} does not match {a} letters")
    chunks = [
        _EMISSION_MAGIC,
        struct.pack("<HBB", _EMISSION_VERSION, 0, 0),
        struct.pack("<IIHH", t, a, alphabet.silence_index, alphabet.repetition_index),
    ]
    for letter in alphabet.letters:
        encoded = letter.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
    chunks.append(scores.tobytes())
    chunks.append(g.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_emissions(path):
    """Inverse of save_emissions; returns (EmissionTable, Alphabet, transitions).

    Version 1 files carry no transition table; for them `transitions` is None.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != _EMISSION_MAGIC:
        raise ConfigurationError(f"{path}: bad emission-table magic {raw[:4]!r}")
    try:
        (version,) = struct.unpack_from("<H", raw, 4)
        if version not in (1, _EMISSION_VERSION):
            raise ConfigurationError(f"unsupported emission format version {version}")
        t, a, sil_idx, rep_idx = struct.unpack_from("<IIHH", raw, 8)
        offset = 20
        letters = []
        for _ in range(a):
            (length,) = struct.unpack_from("<H", raw, offset)
            offset += 2
            letters.append(raw[offset : offset + length].decode("utf-8"))
            offset += length
        scores = np.frombuffer(raw, dtype="<f8", count=t * a, offset=offset).reshape(t, a)
        transitions = None
        if version >= 2:
            offset += 8 * t * a
            transitions = np.frombuffer(raw, dtype="<f8", count=a * a, offset=offset)
            transitions = transitions.reshape(a, a).copy()
        alphabet = Alphabet(tuple(letters), letters[sil_idx], letters[rep_idx])
    except (struct.error, ValueError, IndexError, ConfigurationError) as err:
        raise ConfigurationError(f"{path}: truncated or corrupt emission table ({err})") from None
    return EmissionTable(scores.copy()), alphabet, transitions


def write_lexicon(path, lexicon: dict[str, list[str]]):
    """One entry per line: word<TAB>letter letter ..."""
    lines = [f"{word}\t{' '.join(spelling)}" for word, spelling in lexicon.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_lexicon(path) -> dict[str, list[str]]:
    lexicon: dict[str, list[str]] = {}
    for no, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise VocabularyError(f"{path}:{no}: expected word<TAB>spelling")
        word, spelling = line.split("\t", 1)
        letters = spelling.split()
        if not letters:
            raise VocabularyError(f"{path}:{no}: empty spelling for {word!r}")
        lexicon[word] = letters
    return lexicon
