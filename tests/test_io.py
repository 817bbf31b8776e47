import gc
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convspeech import pipeline, synth
from convspeech.acoustic import EmissionTable
from convspeech.audio_io import read_wav, write_wav
from convspeech.checkpoint import (
    load_checkpoint,
    load_emissions,
    read_lexicon,
    save_checkpoint,
    save_emissions,
    write_lexicon,
)
from convspeech.cli import _load_lm, _load_task, _save_task, parse_config_file
from convspeech.criterion import Alphabet
from convspeech.errors import AudioFormatError, ConfigurationError, ConvSpeechError, VocabularyError
from convspeech.gcnn import GcnnConfig, GcnnLm
from convspeech.lm import Vocabulary, fit_bigram_arpa

AB = Alphabet(("a", "b", "|", "2"))


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = np.clip(rng.normal(0, 0.2, 1600), -1, 1)
    path = tmp_path / "x.wav"
    write_wav(path, samples, 16000)
    wave = read_wav(path)
    assert wave.sample_rate == 16000
    assert wave.samples.shape == (1600,)
    # PCM16 quantization error bound (write scales by 32767, read by 32768)
    assert np.max(np.abs(wave.samples - samples)) <= 1.5 / 32768 + 1e-9


def test_wav_write_to_a_directory_raises_cleanly(tmp_path):
    unraisable = []
    hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
    try:
        with pytest.raises(IsADirectoryError):
            write_wav(tmp_path, np.zeros(4))
        gc.collect()  # a half-built writer's __del__ would run here
    finally:
        sys.unraisablehook = hook
    assert unraisable == []


def test_wav_rejects_missing_riff(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"JUNKxxxxWAVE" + b"\x00" * 50)
    with pytest.raises(AudioFormatError, match="RIFF"):
        read_wav(path)


def test_wav_rejects_wrong_form(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFF\x28\x00\x00\x00AVI " + b"\x00" * 50)
    with pytest.raises(AudioFormatError, match="WAVE"):
        read_wav(path)


def test_wav_rejects_truncated(tmp_path):
    path = tmp_path / "tiny.wav"
    path.write_bytes(b"RIFF")
    with pytest.raises(AudioFormatError, match="too short"):
        read_wav(path)


def _wav_bytes(audio_format=1, channels=1, bits=16, rate=16000, payload=b"\x00\x00"):
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate,
                      rate * channels * bits // 8, channels * bits // 8, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def test_wav_rejects_float_encoding(tmp_path):
    path = tmp_path / "f32.wav"
    path.write_bytes(_wav_bytes(audio_format=3))
    with pytest.raises(AudioFormatError, match="not integer PCM"):
        read_wav(path)


def test_wav_rejects_stereo(tmp_path):
    path = tmp_path / "st.wav"
    path.write_bytes(_wav_bytes(channels=2))
    with pytest.raises(AudioFormatError, match="mono"):
        read_wav(path)


def test_wav_rejects_8bit(tmp_path):
    path = tmp_path / "b8.wav"
    path.write_bytes(_wav_bytes(bits=8))
    with pytest.raises(AudioFormatError, match="16-bit"):
        read_wav(path)


def test_wav_rejects_zero_sample_rate(tmp_path):
    path = tmp_path / "r0.wav"
    path.write_bytes(_wav_bytes(rate=0))
    with pytest.raises(AudioFormatError, match="r0.wav: sample rate is 0"):
        read_wav(path)


def test_wav_missing_data_chunk(tmp_path):
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    path = tmp_path / "nodata.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(AudioFormatError, match="data"):
        read_wav(path)


def test_wav_rejects_short_data_chunk(tmp_path):
    path = tmp_path / "cut.wav"
    write_wav(path, np.zeros(1000))
    path.write_bytes(path.read_bytes()[:-500])
    with pytest.raises(AudioFormatError, match=r"cut\.wav.*declares 2000 bytes but only 1500"):
        read_wav(path)


def test_checkpoint_bit_exact_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {
        "weights": rng.normal(size=(3, 4, 5)),
        "bias": rng.normal(size=7),
        "exotic": np.array([np.pi, np.nextafter(1.0, 2.0), 1e-308]),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "acoustic-system", {"layers": 2, "note": "x"}, arrays)
    kind, config, loaded = load_checkpoint(path)
    assert kind == "acoustic-system"
    assert config == {"layers": 2, "note": "x"}
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].tobytes() == arr.tobytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"format": "other"}')
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def _malformed_json(path):
    save_checkpoint(path, "acoustic-system", {}, {"w": np.zeros(2)})
    path.write_text(path.read_text()[:-10])


def _missing_arrays(path):
    path.write_text('{"format": "convspeech-checkpoint", "version": 1, "kind": "x", "config": {}}')


def _truncated_emissions(path):
    save_emissions(path, EmissionTable(np.zeros((5, 4))), AB, np.zeros((4, 4)))
    path.write_bytes(path.read_bytes()[:-9])


def _truncated_emission_scores(path):
    save_emissions(path, EmissionTable(np.zeros((5, 4))), AB, np.zeros((4, 4)))
    path.write_bytes(path.read_bytes()[: -8 * 16 - 9])


def as_version1(path, alphabet_size):
    """Rewrite a saved emission table as format v1: no transition table."""
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<H", 1) + raw[6 : len(raw) - 8 * alphabet_size**2])


@pytest.mark.parametrize("corrupt, load", [
    (_malformed_json, load_checkpoint),
    (_missing_arrays, load_checkpoint),
    (_truncated_emissions, load_emissions),
    (_truncated_emission_scores, load_emissions),
])
def test_corrupt_containers_raise_configuration_error(tmp_path, corrupt, load):
    path = tmp_path / "corrupt.bin"
    corrupt(path)
    with pytest.raises(ConfigurationError, match="corrupt.bin"):
        load(path)


def test_emission_table_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    table = EmissionTable(rng.normal(size=(11, 4)))
    transitions = rng.normal(size=(4, 4))
    path = tmp_path / "e.bin"
    save_emissions(path, table, AB, transitions)
    raw = bytearray(path.read_bytes())
    assert raw[6] == 0  # written as 0; older files may set it, and reading ignores it
    raw[6] = 1
    path.write_bytes(bytes(raw))
    loaded, alphabet, g = load_emissions(path)
    assert np.array_equal(loaded.scores, table.scores)
    assert np.array_equal(g, transitions)
    assert alphabet.letters == AB.letters
    assert alphabet.silence_index == AB.silence_index
    assert alphabet.repetition_index == AB.repetition_index


def test_emission_table_version1_still_readable(tmp_path):
    table = EmissionTable(np.random.default_rng(3).normal(size=(6, 4)))
    path = tmp_path / "e.bin"
    save_emissions(path, table, AB, np.ones((4, 4)))
    as_version1(path, 4)
    loaded, alphabet, g = load_emissions(path)
    assert g is None
    assert np.array_equal(loaded.scores, table.scores)
    assert alphabet.letters == AB.letters


def test_emission_table_rejects_duplicate_letters(tmp_path):
    path = tmp_path / "e.bin"
    save_emissions(path, EmissionTable(np.zeros((3, 4))), AB, np.zeros((4, 4)))
    path.write_bytes(path.read_bytes().replace(b"\x01\x00b", b"\x01\x00a", 1))
    with pytest.raises(ConfigurationError, match="e.bin: .*alphabet letters must be unique"):
        load_emissions(path)


def test_emission_table_rejects_mismatched_transitions(tmp_path):
    with pytest.raises(ConfigurationError, match="transition"):
        save_emissions(tmp_path / "e.bin", EmissionTable(np.zeros((3, 4))), AB, np.zeros((3, 3)))


def test_emission_table_bad_magic(tmp_path):
    path = tmp_path / "e.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 30)
    with pytest.raises(ConfigurationError, match="magic"):
        load_emissions(path)


def test_lexicon_round_trip(tmp_path):
    lexicon = {"ab": ["a", "b"], "ba": ["b", "a"], "a": ["a"]}
    path = tmp_path / "lex.txt"
    write_lexicon(path, lexicon)
    assert read_lexicon(path) == lexicon


def test_lexicon_rejects_missing_tab(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("word a b\n")
    with pytest.raises(VocabularyError, match="TAB"):
        read_lexicon(path)


@pytest.fixture(scope="module")
def pristine_files(tmp_path_factory):
    """Per reader: (file suffix, the bytes of a valid file, the loader)."""
    root = tmp_path_factory.mktemp("pristine")
    rng = np.random.default_rng(20)
    wav = root / "u1.wav"
    write_wav(wav, rng.normal(0.0, 0.2, 200))
    paths = {kind: root / f"{kind}{suffix}" for kind, suffix in
             [("emissions", ".bin"), ("lexicon", ".txt"), ("manifest", ".jsonl"),
              ("arpa", ".arpa"), ("gcnn", ".ckpt"), ("config", ".cfg"), ("task", ".json")]}
    save_emissions(paths["emissions"], EmissionTable(rng.normal(size=(5, 4))), AB,
                   rng.normal(size=(4, 4)))
    write_lexicon(paths["lexicon"], {"ab": ["a", "b"], "ba": ["b", "a"], "a": ["a"]})
    synth.save_manifest(paths["manifest"], synth.DatasetManifest(
        [synth.ManifestEntry("u1", str(wav), "ab ba"), synth.ManifestEntry("u2", str(wav), "a")]))
    paths["arpa"].write_text(fit_bigram_arpa([["ab", "ba"], ["a", "ab"], ["ba"]]))
    vocab = Vocabulary(("ab", "ba", "<s>", "</s>", "<unk>"))
    pipeline.save_gcnn(paths["gcnn"], GcnnLm(vocab, GcnnConfig(
        num_blocks=1, embed_dim=4, bottleneck_dim=2, mid_kernel_width=3)))
    paths["config"].write_text("alpha = 0.5\nmarkov = false  # a comment\nbeam_size=100\n")
    _save_task(paths["task"], synth.SyntheticTaskSpec())
    loaders = {"wav": read_wav, "emissions": load_emissions, "lexicon": read_lexicon,
               "manifest": synth.load_manifest, "arpa": _load_lm, "gcnn": pipeline.load_gcnn,
               "config": parse_config_file, "task": _load_task}
    paths["wav"] = wav
    return {kind: (paths[kind].suffix, paths[kind].read_bytes(), load)
            for kind, load in loaders.items()}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["wav", "emissions", "lexicon", "manifest", "arpa", "gcnn",
                             "config", "task"]),
       data=st.data())
def test_damaged_files_load_or_name_the_file(pristine_files, kind, data):
    suffix, raw, load = pristine_files[kind]
    damaged = bytearray(raw)
    if data.draw(st.booleans(), label="truncate"):
        del damaged[data.draw(st.integers(0, len(raw) - 1), label="length"):]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            damaged[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(
                st.integers(1, 255), label="xor")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"damaged{suffix}"
        path.write_bytes(bytes(damaged))
        try:
            load(path)
        except ConvSpeechError as err:
            assert str(path) in str(err)
