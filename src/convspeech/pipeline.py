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
from .errors import ConfigurationError
from .frontend import (
    FrontendConfig,
    LearnableFrontend,
    MelFrontend,
    Waveform,
    num_output_frames,
)
from .gcnn import GcnnConfig, GcnnLm
from .lm import Vocabulary, perplexity
from .metrics import EvalReport
from .optim import PlateauScheduler, SgdOptimizer
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


@dataclass
class TrainSettings:
    epochs: int = 15
    lr: float = 0.2
    momentum: float = 0.9
    clip: float = 0.2
    batch_size: int = 8
    seed: int = 0


def small_model_config(input_channels: int, alphabet_size: int) -> AcousticModelConfig:
    """Compact conv-GLU stack for the synthetic task."""
    return AcousticModelConfig(
        layers=[
            ConvLayerSpec(input_channels, 24, kernel_width=9, dropout_rate=0.0),
            ConvLayerSpec(24, 32, kernel_width=9, dropout_rate=0.0),
        ],
        alphabet_size=alphabet_size,
    )


def _load_training_items(manifest, lexicon, alphabet, frontend_config, sample_rate):
    items = []
    skipped = 0
    sil = alphabet.silence_token
    for entry in manifest.entries:
        wave = read_wav(entry.audio)
        words = normalize_transcript(entry.text)
        target = encode_target(alphabet, transcript_letters(words, lexicon, sil))
        frames = num_output_frames(len(wave.samples), frontend_config, sample_rate)
        if len(target) > frames:
            skipped += 1
            continue
        items.append((wave, target, words))
    return items, skipped


def train_acoustic(
    train_manifest: DatasetManifest,
    lexicon: dict[str, list[str]],
    alphabet: Alphabet,
    frontend_kind: str = "learnable",
    frontend_config: FrontendConfig | None = None,
    model_config: AcousticModelConfig | None = None,
    dev_manifest: DatasetManifest | None = None,
    settings: TrainSettings | None = None,
    sample_rate: int = 16000,
    checkpoint_path=None,
):
    """Joint training of front-end (when learnable), network, and transitions.

    Returns (SpeechSystem, history); history has one record per epoch with the
    mean training loss, optional dev loss, learning rate, the count of
    transcripts skipped as infeasible, the mean global gradient norm before
    clipping (`grad_norm`) and the fraction of steps that were clipped
    (`clip_frac`).
    """
    if frontend_kind not in ("learnable", "mel"):
        raise ConfigurationError(f"unknown front-end kind {frontend_kind!r}")
    settings = settings or TrainSettings()
    fcfg = frontend_config or FrontendConfig(num_filters=8)
    rng = np.random.default_rng(settings.seed)
    if frontend_kind == "learnable":
        frontend = LearnableFrontend(fcfg, sample_rate, rng=rng)
    else:
        frontend = MelFrontend(fcfg, sample_rate)
    mcfg = model_config or small_model_config(fcfg.num_filters, len(alphabet))
    model = AcousticModel(mcfg, rng=rng)
    transitions = np.zeros((len(alphabet), len(alphabet)))

    train_items, skipped = _load_training_items(
        train_manifest, lexicon, alphabet, fcfg, sample_rate
    )
    if not train_items:
        raise ConfigurationError("no feasible training utterances")
    dev_items = None
    if dev_manifest is not None:
        dev_items, _ = _load_training_items(dev_manifest, lexicon, alphabet, fcfg, sample_rate)

    params = {f"am.{k}": v for k, v in model.params.items()}
    if frontend_kind == "learnable":
        params.update({f"fe.{k}": v for k, v in frontend.params.items()})
    params["transitions"] = transitions
    optimizer = SgdOptimizer(settings.lr, settings.momentum, settings.clip)
    scheduler = PlateauScheduler(optimizer)

    mel_cache: dict[int, object] = {}
    history = []
    for epoch in range(settings.epochs):
        order = rng.permutation(len(train_items))
        epoch_loss = 0.0
        norms = []
        for start in range(0, len(order), settings.batch_size):
            batch = order[start : start + settings.batch_size]
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            for j in batch:
                wave, target, _ = train_items[j]
                if frontend_kind == "learnable":
                    feat, fe_cache = frontend.forward(wave, want_cache=True)
                else:
                    if j not in mel_cache:
                        mel_cache[j] = frontend.forward(wave)
                    feat, fe_cache = mel_cache[j], None
                emissions, am_cache = model.forward(
                    feat, training=True, rng=rng, want_cache=True
                )
                loss, d_em, d_g = asg_loss_and_gradients(emissions, transitions, target)
                epoch_loss += loss
                am_grads, d_feat = model.backward(am_cache, d_em)
                for k, v in am_grads.items():
                    grads[f"am.{k}"] += v
                if frontend_kind == "learnable":
                    for k, v in frontend.backward(fe_cache, d_feat).items():
                        grads[f"fe.{k}"] += v
                grads["transitions"] += d_g
                del fe_cache, am_cache  # freed before the next forward pass: lower peak memory
            scale = 1.0 / len(batch)
            norms.append(optimizer.step(params, {k: g * scale for k, g in grads.items()}))
        record = {
            "epoch": epoch,
            "train_loss": epoch_loss / len(train_items),
            "lr": optimizer.lr,
            "skipped": skipped,
            "grad_norm": float(np.mean(norms)),
            "clip_frac": float(np.mean(np.asarray(norms) > settings.clip)),
        }
        if dev_items is not None:
            record["dev_loss"] = _mean_loss(dev_items, frontend, model, transitions)
            scheduler.update(record["dev_loss"])
        else:
            scheduler.update(record["train_loss"])
        history.append(record)
    system = SpeechSystem(frontend, model, transitions, alphabet)
    if checkpoint_path is not None:
        save_system(checkpoint_path, system)
    return system, history


def _mean_loss(items, frontend, model, transitions) -> float:
    total = 0.0
    for wave, target, _ in items:
        emissions = model.forward(frontend.forward(wave))
        total += asg_loss(emissions, transitions, target)
    return total / len(items)


# -- system checkpoints -------------------------------------------------------

def save_system(path, system: SpeechSystem):
    config = {
        "frontend_kind": "learnable" if isinstance(system.frontend, LearnableFrontend) else "mel",
        "frontend": asdict(system.frontend.config),
        "sample_rate": system.frontend.sample_rate,
        "model": {
            "layers": [asdict(layer) for layer in system.model.config.layers],
            "alphabet_size": system.model.config.alphabet_size,
        },
        "alphabet": {
            "letters": list(system.alphabet.letters),
            "silence": system.alphabet.silence_token,
            "repetition": system.alphabet.repetition_token,
        },
    }
    arrays = {f"am.{k}": v for k, v in system.model.params.items()}
    arrays.update({f"fe.{k}": v for k, v in system.frontend.params.items()})
    arrays["transitions"] = system.transitions
    ckpt.save_checkpoint(path, "acoustic-system", config, arrays)


def load_system(path) -> SpeechSystem:
    kind, config, arrays = ckpt.load_checkpoint(path)
    if kind != "acoustic-system":
        raise ConfigurationError(f"{path} holds a {kind!r} checkpoint, not an acoustic system")
    try:
        fcfg = from_fields(FrontendConfig, config["frontend"], "frontend config")
        rate = config["sample_rate"]
        if config["frontend_kind"] not in ("learnable", "mel"):
            raise ConfigurationError(f"unknown front-end kind {config['frontend_kind']!r}")
        learnable = config["frontend_kind"] == "learnable"
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
        if learnable:
            shapes |= {f"fe.{k}": s for k, s in LearnableFrontend.param_shapes(fcfg, rate).items()}
        check_params(arrays, shapes, "acoustic-system checkpoint")
        if learnable:
            frontend = LearnableFrontend(
                fcfg, rate, params={k[3:]: v for k, v in arrays.items() if k.startswith("fe.")})
        else:
            frontend = MelFrontend(fcfg, rate)
        model = AcousticModel(mcfg, params={k[3:]: v for k, v in arrays.items()
                                            if k.startswith("am.")})
        alphabet = Alphabet(
            tuple(config["alphabet"]["letters"]),
            config["alphabet"]["silence"],
            config["alphabet"]["repetition"],
        )
        if len(alphabet) != mcfg.alphabet_size:
            raise ConfigurationError(
                f"alphabet has {len(alphabet)} letters but the model emits {mcfg.alphabet_size}")
    except KeyError as err:
        raise ConfigurationError(f"{path}: acoustic-system checkpoint lacks key {err}") from None
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from None
    return SpeechSystem(frontend, model, arrays["transitions"], alphabet)


def save_gcnn(path, lm: GcnnLm):
    config = {"vocab": list(lm.vocab.tokens), "gcnn": asdict(lm.config)}
    ckpt.save_checkpoint(path, "gcnn-lm", config, lm.params)


def load_gcnn(path) -> GcnnLm:
    kind, config, arrays = ckpt.load_checkpoint(path)
    if kind != "gcnn-lm":
        raise ConfigurationError(f"{path} holds a {kind!r} checkpoint, not a conv LM")
    try:
        tokens, gcnn = tuple(config["vocab"]), dict(config["gcnn"])
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigurationError(
            f"{path}: malformed gcnn-lm config ({type(err).__name__}: {err})") from None
    # Earlier checkpoints carry the removed GcnnConfig.context_limit, always null.
    if gcnn.pop("context_limit", None) is not None:
        raise ConfigurationError(f"{path}: context_limit is gone; wrap the LM in ContextLimitedLM")
    try:
        return GcnnLm(Vocabulary(tokens), from_fields(GcnnConfig, gcnn, "gcnn-lm config"),
                      params=arrays)
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from None


# -- evaluation ---------------------------------------------------------------

def _emission_items(manifest: DatasetManifest, system: SpeechSystem):
    """(emissions, transitions, reference) per utterance, computed as they are read."""
    for entry in manifest.entries:
        wave = read_wav(entry.audio)
        yield system.emissions(wave), system.transitions, normalize_transcript(entry.text)


def eval_items(manifest: DatasetManifest, system: SpeechSystem):
    """Precompute (emissions, transitions, reference) triples for decoding."""
    return list(_emission_items(manifest, system))


def evaluate(
    manifest: DatasetManifest,
    system: SpeechSystem,
    trie: LexiconTrie,
    lm,
    opts: DecoderOptions,
) -> EvalReport:
    """Decode every utterance and aggregate WER/CER; deterministic."""
    return decode_and_score(_emission_items(manifest, system), trie, lm, opts,
                            ids=[entry.utt_id for entry in manifest.entries])


# -- LM studies ----------------------------------------------------------------

def perplexity_wer_study(checkpoints, items, trie, opts: DecoderOptions, corpus):
    """(perplexity, WER) per LM checkpoint with fixed decoder weights.

    `checkpoints` is a sequence of (label, lm) pairs; at least 3 are required.
    """
    if len(checkpoints) < 3:
        raise ConfigurationError("perplexity study needs at least 3 checkpoints")
    rows = []
    for label, lm in checkpoints:
        report = decode_and_score(items, trie, lm, opts)
        rows.append({"checkpoint": label, "perplexity": perplexity(lm, corpus),
                     "wer": report.wer, "failures": report.decode_failures})
    return rows


def context_wer_study(lm, limits, items, trie, opts: DecoderOptions):
    """WER as a function of the LM context window."""
    from .lm import ContextLimitedLM

    if list(limits) != sorted(limits):
        raise ConfigurationError("context limits must be ascending")
    rows = []
    for limit in limits:
        report = decode_and_score(items, trie, ContextLimitedLM(lm, limit), opts)
        rows.append({"context": limit, "wer": report.wer, "failures": report.decode_failures})
    return rows


def write_csv(path, rows, fieldnames=None):
    """Study output: CSV with a header row."""
    if rows and fieldnames is None:
        fieldnames = list(rows[0])
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames or [])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
