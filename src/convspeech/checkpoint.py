"""On-disk containers: checkpoints, emission tables, lexicon files.

Checkpoints are versioned JSON with base64-encoded raw array bytes, so values
round-trip bit-exactly. An emission table is one kind: scores with the alphabet
and transitions they are decoded with, so a decode from the table scores
paths as the system that wrote it does. Every loader interprets a file's
content inside `naming(path)`, so each error it raises names the file.
"""

from __future__ import annotations

import base64
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .acoustic import EmissionTable
from .criterion import Alphabet
from .errors import ConfigurationError, ConvSpeechError, DomainError, VocabularyError
from .util import check_params

CHECKPOINT_FORMAT = "convspeech-checkpoint"
CHECKPOINT_VERSION = 1


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


@contextmanager
def naming(path):
    """Errors raised while the content of `path` (a file, or an item it holds) is
    interpreted name it.

    A ConvSpeechError keeps its type and attributes and gains the prefix
    "{path}: "; a KeyError or a TypeError/ValueError becomes a
    ConfigurationError. Readers that name their file themselves stay outside.
    """
    try:
        yield
    except ConvSpeechError as err:
        err.args = (f"{path}: {err}",)
        raise
    except KeyError as err:
        raise ConfigurationError(f"{path}: lacks key {err}") from None
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"{path}: malformed ({type(err).__name__}: {err})") from None


def load_checkpoint(path, kind: str):
    """Read a container of `kind`; returns (config, arrays). A float array holding
    NaN or +inf is refused."""
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ConfigurationError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"{path} has unsupported checkpoint version {payload.get('version')}"
        )
    with naming(path):
        if payload["kind"] != kind:
            raise ConfigurationError(f"holds a {payload['kind']!r} checkpoint, not {kind!r}")
        if not isinstance(payload["arrays"], dict):
            raise TypeError("arrays is not an object")
        arrays = {name: _decode_array(entry) for name, entry in payload["arrays"].items()}
        for name, arr in arrays.items():  # -inf stays: it forbids a letter or a transition
            if arr.dtype.kind == "f" and not (arr < np.inf).all():
                raise DomainError(f"array {name!r} holds NaN or +inf")
        return payload["config"], arrays


def alphabet_to_json(alphabet: Alphabet) -> dict:
    """The alphabet as checkpoint configs store it."""
    return {"letters": list(alphabet.letters), "silence": alphabet.silence_token,
            "repetition": alphabet.repetition_token}


def alphabet_from_json(entry) -> Alphabet:
    """Inverse of alphabet_to_json; a malformed entry raises ConfigurationError."""
    if not isinstance(entry, dict) or entry.keys() != {"letters", "silence", "repetition"}:
        raise ConfigurationError("alphabet must be an object of letters, silence and repetition")
    letters, silence, repetition = entry["letters"], entry["silence"], entry["repetition"]
    if not isinstance(letters, list) or not all(
            isinstance(tok, str) for tok in [*letters, silence, repetition]):
        raise ConfigurationError("alphabet letters and tokens must be strings")
    return Alphabet(tuple(letters), silence, repetition)


def load_emissions(path):
    """(EmissionTable, Alphabet, transitions) from a checkpoint of kind "emissions":
    the config {"alphabet": alphabet_to_json(...)} and the float64 arrays
    "scores" (T, |A|) and "transitions" (|A|, |A|), which the scores are decoded with."""
    config, arrays = load_checkpoint(path, "emissions")
    with naming(path):
        if not isinstance(config, dict) or config.keys() != {"alphabet"}:
            raise ConfigurationError("emission-table config must hold just the alphabet")
        alphabet = alphabet_from_json(config["alphabet"])
        a = len(alphabet)
        frames = np.shape(arrays.get("scores"))[:1]  # any count, so scores need |A| columns
        check_params(arrays, {"scores": (*frames, a), "transitions": (a, a)}, "emission table")
        if any(arr.dtype != np.float64 for arr in arrays.values()):
            raise ConfigurationError("emission-table arrays must be float64")
    return EmissionTable(arrays["scores"]), alphabet, arrays["transitions"]


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
        if word in lexicon:
            raise VocabularyError(f"{path}:{no}: {word!r} spelled twice")
        lexicon[word] = letters
    return lexicon
