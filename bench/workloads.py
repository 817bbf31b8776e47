"""The three workloads: set-up, a closed measurement loop, and output checks.

Each workload drives convspeech only through its public entry points, looked
up at call time on their modules (`pipeline.train_acoustic`,
`gcnn.train_gcnn`, `pipeline.load_system`, `SpeechSystem.emissions`,
`decoder.decode`, `audio_io.read_wav`), so the tracer can wrap them. The loop
is closed: one item starts only after the previous one finished. An item is
one decoded utterance, or one training round (train_acoustic, then
train_gcnn) for `train`.
"""

from __future__ import annotations

import math
import shutil
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from convspeech import audio_io, decoder, gcnn, pipeline
from convspeech.decoder import build_trie
from convspeech.frontend import FrontendConfig, num_output_frames
from convspeech.gcnn import GcnnConfig, GcnnLm
from convspeech.lm import Vocabulary
from convspeech.metrics import edit_distance_alignment
from convspeech.synth import normalize_transcript

import task

FRONTEND = FrontendConfig(num_filters=8)
GCNN = GcnnConfig(num_blocks=2, embed_dim=16, bottleneck_dim=8, mid_kernel_width=5)

# Per-size inputs. "full" is what BENCHMARK.json runs; "tiny" is for the smoke test.
SIZES = {
    "full": {"train_utts": 4, "dev_utts": 2, "epochs": 2, "lm_sents": 40,
             "lm_val_sents": 10, "test_utts": 160},
    "tiny": {"train_utts": 4, "dev_utts": 2, "epochs": 2, "lm_sents": 16,
             "lm_val_sents": 8, "test_utts": 8},
}
PEAKY_WER_LIMIT = 7.0  # the trained system scores 2.8-4.8% (mean 4.0%) over seeds 1-20
MEMORY_PROBE_ITEMS = {"train": 1, "decode_peaky": 4, "decode_flat": 4}  # 4: half a length cycle


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    units: int = 0                                    # utterances, or utterance-epochs
    raw_s: list = field(default_factory=list)         # wall seconds per finished item
    ref_s: list = field(default_factory=list)         # the same at reference speed
    kernel_ms: list = field(default_factory=list)     # reference kernel time around each item
    results: list = field(default_factory=list)       # (item index, result) per finished item
    errors: list = field(default_factory=list)
    problems: list = field(default_factory=list)      # failed output checks
    record: dict = field(default_factory=dict)


def closed_loop(workload, seconds: float, clock, limit=None, item_scope=None, **kwargs):
    """Run workload.step back to back for `seconds`, or for `limit` items."""
    out = Outcome()
    start = time.perf_counter()
    clock.restart()
    while (time.perf_counter() - start < seconds) if limit is None else out.attempted < limit:
        i = out.attempted
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            with item_scope(i) if item_scope else nullcontext():
                result = workload.step(i, **kwargs)
        except Exception as exc:  # EmptyBeamError, or a job that does not finish
            out.failed += 1
            out.errors.append(f"item {i}: {exc!r}")
            clock.restart()
            continue
        raw = time.perf_counter() - t0
        out.raw_s.append(raw)
        out.ref_s.append(raw * clock.scale())
        out.kernel_ms.append(clock.bracket_ms[-1])
        out.results.append((i, result))
        out.units += workload.units_per_item
    workload.check(out)
    return out


def memory_probe(workload, items: int) -> float:
    """Peak MB that `items` items allocate beyond what was live before (tracemalloc)."""
    tracemalloc.start()
    try:
        for i in range(items):
            workload.step(i)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _audio_base(manifest) -> dict:
    """Utterance count, front-end frames and audio seconds of a manifest."""
    samples = [len(audio_io.read_wav(e.audio).samples) for e in manifest.entries]
    rate = task.SPEC.sample_rate
    return {"utterances": len(samples),
            "frames": int(sum(num_output_frames(n, FRONTEND, rate) for n in samples)),
            "audio_s": sum(samples) / rate}


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# -- train ---------------------------------------------------------------------------

class Train:
    name = "train"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = SIZES[size]

    def setup(self, work: Path):
        s = self.size
        self.train_m = task.manifest(self.seed, 1, s["train_utts"], work, "train")
        self.dev_m = task.manifest(self.seed, 2, s["dev_utts"], work, "dev")
        self.corpus = task.cycled_sentences(self.seed, 3, s["lm_sents"])
        self.val_corpus = task.cycled_sentences(self.seed, 4, s["lm_val_sents"])
        self.vocab = Vocabulary(tuple(sorted(task.SPEC.lexicon)) + ("<s>", "</s>", "<unk>"))
        self.base = {"train": _audio_base(self.train_m), "dev": _audio_base(self.dev_m),
                     "epochs": s["epochs"], "lm_sentences": len(self.corpus),
                     "lm_tokens": sum(len(x) + 1 for x in self.corpus),
                     "lm_val_sentences": len(self.val_corpus)}
        self.units_per_item = s["train_utts"] * s["epochs"]
        # warm-up: one short job of each kind
        self._train_am(task.manifest(self.seed, 9, 2, work, "warm"), 1, None)
        gcnn.train_gcnn(GcnnLm(self.vocab, GCNN, rng=np.random.default_rng(0)),
                        self.corpus[:8], epochs=1)

    def _train_am(self, manifest, epochs, dev):
        return pipeline.train_acoustic(
            manifest, task.SPEC.lexicon, task.SPEC.alphabet, frontend_kind="learnable",
            frontend_config=FRONTEND, dev_manifest=dev,
            settings=pipeline.TrainSettings(epochs=epochs, lr=0.3, batch_size=4, seed=0))

    def step(self, i: int):
        """One round: train the acoustic system, then the conv LM, from scratch."""
        epochs = self.size["epochs"]
        t0 = time.perf_counter()
        _, am_hist = self._train_am(self.train_m, epochs, self.dev_m)
        t1 = time.perf_counter()
        lm = GcnnLm(self.vocab, GCNN, rng=np.random.default_rng(0))
        lm_hist = gcnn.train_gcnn(lm, self.corpus, self.val_corpus, epochs=epochs,
                                  lr=0.5, clip=0.5, batch_size=8, seed=0)
        return {"am_s": t1 - t0, "lm_s": time.perf_counter() - t1,
                "am": am_hist, "lm": lm_hist}

    def per_unit(self, result) -> float:
        return 1.0 / self.units_per_item

    def check(self, out: Outcome):
        rounds = [r for _, r in out.results]
        for i, r in enumerate(rounds):
            am_losses = [h["train_loss"] for h in r["am"]] + [h["dev_loss"] for h in r["am"]]
            lm_ppls = [h["train_ppl"] for h in r["lm"]] + [h["val_ppl"] for h in r["lm"]]
            if not _finite(am_losses) or not _finite(lm_ppls):
                out.problems.append(f"round {i}: non-finite loss {am_losses} {lm_ppls}")
            if not r["am"][-1]["train_loss"] < r["am"][0]["train_loss"]:
                out.problems.append(f"round {i}: AM train loss did not fall: {am_losses}")
            if not r["lm"][-1]["train_ppl"] < r["lm"][0]["train_ppl"]:
                out.problems.append(f"round {i}: LM train perplexity did not fall: {lm_ppls}")
            if (r["am"], r["lm"]) != (rounds[0]["am"], rounds[0]["lm"]):
                out.problems.append(f"round {i}: training is not deterministic")
        if not rounds:
            return
        am_s = sum(r["am_s"] for r in rounds)
        lm_s = sum(r["lm_s"] for r in rounds)
        last = rounds[-1]
        out.record = {
            "train_am_utt_per_s": out.units / am_s,
            "train_lm_sent_per_s": len(rounds) * self.base["epochs"]
            * self.base["lm_sentences"] / lm_s,
            "am_dev_loss": last["am"][-1]["dev_loss"],
            "lm_val_ppl": last["lm"][-1]["val_ppl"],
            "am_train_loss": [h["train_loss"] for h in last["am"]],
            "lm_train_ppl": [h["train_ppl"] for h in last["lm"]],
            "lm_share_of_round": lm_s / (am_s + lm_s),
        }


# -- decode ------------------------------------------------------------------------------

class Decode:
    """Audio to words over a test manifest: read_wav -> emissions -> decode."""

    units_per_item = 1

    def __init__(self, name: str, checkpoint: str, seed: int, size: str):
        self.name = name
        self.checkpoint = checkpoint
        self.seed = seed
        self.size = SIZES[size]

    def setup(self, work: Path):
        self.test_m = task.manifest(self.seed, 5, self.size["test_utts"], work, "test")
        self.references = [normalize_transcript(e.text) for e in self.test_m.entries]
        self.lm = task.bigram(task.corpus(self.seed, 2000))
        self.trie = build_trie(task.SPEC.lexicon, task.SPEC.alphabet)
        self.system = pipeline.load_system(task.verified_checkpoint(self.checkpoint))
        self.base = _audio_base(self.test_m)
        self.mean_frames = self.base["frames"] / self.base["utterances"]
        self.warm = self.step(0)

    def step(self, i: int, lm=None):
        """Decode test utterance i (cycling through the manifest) from its WAV file."""
        entry = self.test_m.entries[i % len(self.test_m.entries)]
        wave = audio_io.read_wav(entry.audio)
        emissions = self.system.emissions(wave)
        result = decoder.decode(emissions, self.system.transitions, self.trie,
                                lm or self.lm, task.DECODE_OPTS)
        return result, emissions.num_frames, len(wave.samples)

    def per_unit(self, result) -> float:
        """Scales an utterance's time to an utterance of the manifest's mean length."""
        return self.mean_frames / result[1]

    def check(self, out: Outcome):
        count = len(self.test_m.entries)
        errors = ref_words = frames = samples = 0
        first = {0: self.warm[0]}
        opts = task.DECODE_OPTS
        lexicon = set(task.SPEC.lexicon)
        decoded = {i % count for i, _ in out.results}
        for i, (result, n_frames, n_samples) in out.results:
            utt = self.test_m.entries[i % count].utt_id
            reference = self.references[i % count]
            s, d, ins = edit_distance_alignment(reference, result.words)
            errors += s + d + ins
            ref_words += len(reference)
            frames += n_frames
            samples += n_samples
            if not set(result.words) <= lexicon or result.word_count != len(result.words):
                out.problems.append(f"{utt}: hypothesis {result.words} is not a lexicon word string")
            expected = (result.am_component - opts.gamma * result.silence_count
                        + opts.alpha * result.lm_component + opts.beta * result.word_count)
            if not math.isfinite(result.objective) or \
                    abs(result.objective - expected) > 1e-6 * max(1.0, abs(expected)):
                out.problems.append(f"{utt}: objective {result.objective} != {expected}")
            seen = first.setdefault(i % count, result)
            if (seen.words, seen.objective) != (result.words, result.objective):
                out.problems.append(f"{utt}: decoding the same audio twice disagrees")
        # a failed decode scores as an empty hypothesis: every reference word is deleted
        for i in sorted(set(range(out.attempted)) - {j for j, _ in out.results}):
            ref_words += len(self.references[i % count])
            errors += len(self.references[i % count])
        wer = 100.0 * errors / max(ref_words, 1)
        if self.name == "decode_peaky" and wer > PEAKY_WER_LIMIT:
            out.problems.append(f"WER {wer:.2f}% above {PEAKY_WER_LIMIT}% for the trained system")
        out.record = {
            "wer_pct": wer,
            "reference_words": ref_words,
            "decoded_frames": frames,
            "decoded_audio_s": samples / task.SPEC.sample_rate,
            "distinct_utterances": len(decoded),
        }


def make(name: str, seed: int, size: str):
    if name == "train":
        return Train(seed, size)
    if name == "decode_peaky":
        return Decode(name, task.TRAINED, seed, size)
    if name == "decode_flat":
        return Decode(name, task.UNTRAINED, seed, size)
    raise KeyError(name)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile_with_ten_beyond(samples) -> dict:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100.0 >= 10:
            return {"pct": pct, "value": ordered[min(n - 1, math.ceil(n * pct / 100.0) - 1)],
                    "samples": n}
    return {"pct": None, "value": None, "samples": n}
