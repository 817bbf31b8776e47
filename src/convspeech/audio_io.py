"""WAV reading and writing (PCM 16-bit signed little-endian, mono).

The reader walks the RIFF structure by hand so header problems surface as
precise AudioFormatError diagnostics instead of generic parse failures.
"""

from __future__ import annotations

import struct
import wave
from pathlib import Path

import numpy as np

from .errors import AudioFormatError
from .frontend import Waveform

_PCM_FORMAT = 1
_SCALE = 32768.0


def write_wav(path, samples: np.ndarray, sample_rate: int = 16000):
    """Write mono PCM16; amplitudes are clipped to [-1, 1] first."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    # wave.open on a path leaves a half-built writer whose __del__ fails when the open does
    with open(path, "wb") as handle, wave.open(handle, "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(sample_rate)
        out.writeframes(pcm.tobytes())


def read_wav(path) -> Waveform:
    """Parse a mono PCM16 WAV file into a float waveform in [-1, 1]."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise AudioFormatError(f"{path}: file of {len(raw)} bytes is too short for a RIFF header")
    if raw[0:4] != b"RIFF":
        raise AudioFormatError(f"{path}: missing RIFF magic, found {raw[0:4]!r}")
    if raw[8:12] != b"WAVE":
        raise AudioFormatError(f"{path}: RIFF form type is {raw[8:12]!r}, not WAVE")
    fmt = None
    data = None
    offset = 12
    while offset + 8 <= len(raw):
        chunk_id = raw[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, offset + 4)
        body = raw[offset + 8 : offset + 8 + chunk_size]
        if len(body) < chunk_size:
            raise AudioFormatError(
                f"{path}: {chunk_id!r} chunk declares {chunk_size} bytes but only "
                f"{len(body)} are present"
            )
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise AudioFormatError(f"{path}: fmt chunk of {chunk_size} bytes is truncated")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        offset += 8 + chunk_size + (chunk_size & 1)
    if fmt is None:
        raise AudioFormatError(f"{path}: no fmt chunk found")
    if data is None:
        raise AudioFormatError(f"{path}: no data chunk found")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if audio_format != _PCM_FORMAT:
        raise AudioFormatError(
            f"{path}: audio format code {audio_format} is not integer PCM"
        )
    if channels != 1:
        raise AudioFormatError(f"{path}: {channels} channels; only mono is supported")
    if bits != 16:
        raise AudioFormatError(f"{path}: {bits}-bit samples; only 16-bit PCM is supported")
    if sample_rate == 0:
        raise AudioFormatError(f"{path}: sample rate is 0")
    if len(data) % 2:
        raise AudioFormatError(f"{path}: data chunk has an odd byte count {len(data)}")
    samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / _SCALE
    return Waveform(samples, sample_rate)
