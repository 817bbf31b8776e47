"""End-to-end orchestration: training, evaluation, and LM studies."""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass

import numpy as np

from . import checkpoint as ckpt
from .acoustic import AcousticModel, AcousticModelConfig, ConvLayerSpec, EmissionTable
from .audio_io import read_wav
from .criterion import Alphabet, asg_loss, asg_loss_and_gradients, encode_target
from .decoder import DecoderOptions, LexiconTrie, decode_and_score
from .errors import ConfigurationError, DimensionError
from .frontend import (FRONTENDS, FrontendConfig, LearnableFrontend, MelFrontend, Waveform,
                       num_output_frames)
from .gcnn import GcnnConfig, GcnnLm
from .lm import ContextLimitedLM, Vocabulary, perplexity
from .metrics import EvalReport
from .optim import SgdOptimizer, TrainSettings, run_epochs
from .synth import DatasetManifest, normalize_transcript, transcript_letters
from .util import check_params, from_fields


@dataclass
class SpeechSystem:
    """Trained front-end + acoustic model + transition table."""

    frontend: LearnableFrontend | MelFrontend
    model: AcousticModel
    transitions: np.ndarray  # (|A|, |A|) letter-to-letter scores
    alphabet: Alphabet

    def emissions(self, wave: Waveform) -> EmissionTable:
        return self.model.forward(self.frontend.forward(wave))

    def arrays(self) -> dict[str, np.ndarray]:
        """The system's own arrays, by checkpoint key: am.*, then fe.*, then transitions."""
        arrays = {f"am.{k}": v for k, v in self.model.params.items()}
        arrays.update({f"fe.{k}": v for k, v in self.frontend.params.items()})
        arrays["transitions"] = self.transitions
        return arrays


def small_model_config(input_channels: int, alphabet_size: int) -> AcousticModelConfig:
    """Compact conv-GLU stack for the synthetic task."""
    return AcousticModelConfig(
        layers=[
            ConvLayerSpec(input_channels, 24, kernel_width=9, dropout_rate=0.0),
            ConvLayerSpec(24, 32, kernel_width=9, dropout_rate=0.0),
        ],
        alphabet_size=alphabet_size,
    )


def naming_utterance(entry):
    """`checkpoint.naming` for a manifest entry: errors name its id and audio file."""
    return ckpt.naming(f"utterance {entry.utt_id} ({entry.audio})")


def _load_training_items(manifest, lexicon, alphabet, frontend_config, sample_rate, split):
    """(waveform, target) per feasible utterance, and the count of infeasible ones.

    A manifest without a feasible utterance is refused."""
    items = []
    skipped = 0
    sil = alphabet.silence_token
    for entry in manifest.entries:
        wave = read_wav(entry.audio)
        words = normalize_transcript(entry.text)
        with naming_utterance(entry):
            if wave.sample_rate != sample_rate:
                raise DimensionError(
                    f"waveform rate {wave.sample_rate} != front-end rate {sample_rate}")
            target = encode_target(alphabet, transcript_letters(words, lexicon, sil))
        frames = num_output_frames(len(wave.samples), frontend_config, sample_rate)
        if len(target) > frames:
            skipped += 1
            continue
        items.append((wave, target))
    if not items:
        raise ConfigurationError(f"no feasible {split} utterances")
    return items, skipped


def train_acoustic(
    train_manifest: DatasetManifest,
    lexicon: dict[str, list[str]],
    alphabet: Alphabet,
    frontend_kind: str = LearnableFrontend.kind,
    frontend_config: FrontendConfig | None = None,
    model_config: AcousticModelConfig | None = None,
    dev_manifest: DatasetManifest | None = None,
    settings: TrainSettings | None = None,
    sample_rate: int = 16000,
    checkpoint_path=None,
):
    """Joint training of front-end (if it has parameters), network, and transitions.

    Returns (SpeechSystem, history). The epochs run in `optim.run_epochs`; each
    record adds the mean `train_loss` and the count of infeasible transcripts
    `skipped` to the loop's fields, and with a dev manifest the mean
    `dev_loss` and the count of infeasible dev transcripts `dev_skipped`.
    """
    if frontend_kind not in FRONTENDS:
        raise ConfigurationError(f"unknown front-end kind {frontend_kind!r}")
    settings = settings or TrainSettings()
    fcfg = frontend_config or FrontendConfig(num_filters=8)
    rng = np.random.default_rng(settings.seed)
    frontend = FRONTENDS[frontend_kind](fcfg, sample_rate, rng=rng)
    mcfg = model_config or small_model_config(fcfg.num_filters, len(alphabet))
    model = AcousticModel(mcfg, rng=rng)
    transitions = np.zeros((len(alphabet), len(alphabet)))
    system = SpeechSystem(frontend, model, transitions, alphabet)

    dev_items = None
    if dev_manifest is not None:  # first: a dev set that cannot be used costs no training audio
        dev_items, dev_skipped = _load_training_items(dev_manifest, lexicon, alphabet, fcfg,
                                                      sample_rate, "dev")
    train_items, skipped = _load_training_items(train_manifest, lexicon, alphabet, fcfg,
                                                sample_rate, "training")

    params = system.arrays()
    optimizer = SgdOptimizer(settings)
    # a front-end without parameters makes the same features every epoch
    fixed = dev_fixed = None
    if not frontend.params:
        fixed = [frontend.forward(wave) for wave, _ in train_items]
        dev_fixed = [frontend.forward(wave) for wave, _ in dev_items or ()]

    def batch(indices):
        losses = []
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        for j in indices:
            wave, target = train_items[j]
            feat, fe_cache = (frontend.forward(wave, want_cache=True) if fixed is None
                              else (fixed[j], None))
            emissions, am_cache = model.forward(feat, rng=rng, want_cache=True)
            loss, d_em, d_g = asg_loss_and_gradients(emissions, transitions, target)
            losses.append(loss)
            am_grads, d_feat = model.backward(am_cache, d_em)
            del am_cache  # freed before the front-end backward allocates its scratch
            for k, v in am_grads.items():
                grads[f"am.{k}"] += v
            for k, v in frontend.backward(fe_cache, d_feat).items():
                grads[f"fe.{k}"] += v
            grads["transitions"] += d_g
            del fe_cache  # freed before the next forward: one utterance's caches at a time
        return losses, {k: g * (1.0 / len(indices)) for k, g in grads.items()}

    def end_epoch(loss_sum):
        train = {"train_loss": loss_sum / len(train_items), "skipped": skipped}
        if dev_items is None:
            return train, {}
        dev_sum = 0.0
        for j, (wave, target) in enumerate(dev_items):
            feat = frontend.forward(wave) if dev_fixed is None else dev_fixed[j]
            dev_sum += asg_loss(model.forward(feat), transitions, target)
        return train, {"dev_loss": dev_sum / len(dev_items), "dev_skipped": dev_skipped}

    history = run_epochs(params, optimizer, settings, rng, len(train_items), batch, end_epoch)
    if checkpoint_path is not None:
        save_system(checkpoint_path, system)
    return system, history


# -- system checkpoints -------------------------------------------------------

def save_system(path, system: SpeechSystem):
    config = {
        "frontend_kind": system.frontend.kind,
        "frontend": asdict(system.frontend.config),
        "sample_rate": system.frontend.sample_rate,
        "model": {
            "layers": [asdict(layer) for layer in system.model.config.layers],
            "alphabet_size": system.model.config.alphabet_size,
        },
        "alphabet": ckpt.alphabet_to_json(system.alphabet),
    }
    ckpt.save_checkpoint(path, "acoustic-system", config, system.arrays())


def load_system(path) -> SpeechSystem:
    config, arrays = ckpt.load_checkpoint(path, "acoustic-system")
    with ckpt.naming(path):
        fcfg = from_fields(FrontendConfig, config["frontend"], "frontend config")
        rate = config["sample_rate"]
        kind = config["frontend_kind"]
        if not isinstance(kind, str) or kind not in FRONTENDS:
            raise ConfigurationError(f"unknown front-end kind {kind!r}")
        frontend_cls = FRONTENDS[kind]
        layers = config["model"]["layers"]
        if not isinstance(layers, list):
            raise ConfigurationError("model layers must be a list")
        for i, layer in enumerate(layers):
            # checkpoints from before the conv stride was removed carry "stride": 1
            stride = layer.pop("stride", 1) if isinstance(layer, dict) else 1
            if stride != 1:
                raise ConfigurationError(
                    f"model layer {i} has stride {stride!r}; conv-GLU layers have stride 1")
        mcfg = AcousticModelConfig(
            layers=[from_fields(ConvLayerSpec, layer, f"model layer {i}")
                    for i, layer in enumerate(layers)],
            alphabet_size=config["model"]["alphabet_size"],
        )
        # the models check their own arrays too; this names each by its key in the file
        shapes = {f"am.{k}": s for k, s in AcousticModel.param_shapes(mcfg).items()}
        shapes["transitions"] = (mcfg.alphabet_size, mcfg.alphabet_size)
        shapes |= {f"fe.{k}": s for k, s in frontend_cls.param_shapes(fcfg, rate).items()}
        check_params(arrays, shapes, "acoustic-system checkpoint")
        frontend = frontend_cls(
            fcfg, rate, params={k[3:]: v for k, v in arrays.items() if k.startswith("fe.")})
        model = AcousticModel(mcfg, params={k[3:]: v for k, v in arrays.items()
                                            if k.startswith("am.")})
        alphabet = ckpt.alphabet_from_json(config["alphabet"])
        if len(alphabet) != mcfg.alphabet_size:
            raise ConfigurationError(
                f"alphabet has {len(alphabet)} letters but the model emits {mcfg.alphabet_size}")
    return SpeechSystem(frontend, model, arrays["transitions"], alphabet)


def save_gcnn(path, lm: GcnnLm):
    config = {"vocab": list(lm.vocab.tokens), "gcnn": asdict(lm.config)}
    ckpt.save_checkpoint(path, "gcnn-lm", config, lm.params)


def load_gcnn(path) -> GcnnLm:
    config, arrays = ckpt.load_checkpoint(path, "gcnn-lm")
    with ckpt.naming(path):
        tokens, gcnn = tuple(config["vocab"]), dict(config["gcnn"])
        # Earlier checkpoints carry the removed GcnnConfig.context_limit, always null.
        if gcnn.pop("context_limit", None) is not None:
            raise ConfigurationError("context_limit is gone; wrap the LM in ContextLimitedLM")
        return GcnnLm(Vocabulary(tokens), from_fields(GcnnConfig, gcnn, "gcnn-lm config"),
                      params=arrays)


# -- evaluation ---------------------------------------------------------------

def emission_items(manifest: DatasetManifest, system: SpeechSystem):
    """(emissions, transitions, reference) per utterance, computed as they are read."""
    for entry in manifest.entries:
        wave = read_wav(entry.audio)
        with naming_utterance(entry):
            emissions = system.emissions(wave)
        yield emissions, system.transitions, normalize_transcript(entry.text)


def eval_items(manifest: DatasetManifest, system: SpeechSystem):
    """Precompute (emissions, transitions, reference) triples for decoding."""
    return list(emission_items(manifest, system))


def evaluate(
    manifest: DatasetManifest,
    system: SpeechSystem,
    trie: LexiconTrie,
    lm,
    opts: DecoderOptions,
) -> EvalReport:
    """Decode every utterance and aggregate WER/CER; deterministic."""
    return decode_and_score(emission_items(manifest, system), trie, lm, opts,
                            ids=[entry.utt_id for entry in manifest.entries])


# -- LM studies ----------------------------------------------------------------

def perplexity_wer_study(checkpoints, items, trie, opts: DecoderOptions, corpus):
    """(perplexity, WER) per LM checkpoint with fixed decoder weights.

    `checkpoints` is a sequence of (label, lm) pairs; at least 3 are required.
    `items` may be any iterable: it is listed once every perplexity is known.
    """
    if len(checkpoints) < 3:
        raise ConfigurationError("perplexity study needs at least 3 checkpoints")
    ppls = [perplexity(lm, corpus) for _, lm in checkpoints]
    items = list(items)
    rows = []
    for (label, lm), ppl in zip(checkpoints, ppls):
        report = decode_and_score(items, trie, lm, opts)
        rows.append({"checkpoint": label, "perplexity": ppl,
                     "wer": report.wer, "failures": report.decode_failures})
    return rows


def context_wer_study(lm, limits, items, trie, opts: DecoderOptions):
    """WER as a function of the LM context window.

    `items` may be any iterable: it is listed once every limit is accepted.
    """
    limits = list(limits)
    if not limits:
        raise ConfigurationError("context study needs at least one context limit")
    if limits != sorted(limits):
        raise ConfigurationError("context limits must be ascending")
    limited = [ContextLimitedLM(lm, limit) for limit in limits]
    items = list(items)
    rows = []
    for limit, limited_lm in zip(limits, limited):
        report = decode_and_score(items, trie, limited_lm, opts)
        rows.append({"context": limit, "wer": report.wer, "failures": report.decode_failures})
    return rows


def write_csv(path, rows):
    """Study output: CSV with a header row of the first row's keys."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]) if rows else [])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
