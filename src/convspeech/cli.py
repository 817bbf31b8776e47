"""Command-line interface: the one way to run the toolkit and its experiments.

Subcommands: synth-data, train-am, train-lm, decode, evaluate, tune,
analyze-frontend, ppl-wer, context-wer; README.md chains them into the clean,
noisy and LM-study experiments. Each flag is declared once: flag groups that
several subcommands share come from one helper each, and list-valued flags are
parsed by their argparse `type`, so a malformed value is a usage error, as is
an abbreviated flag. A line-oriented key=value config file (--config)
supplies defaults for any long flag; explicit flags win. A bad or missing
input file ends the run with one `error:` line and exit code 1, as do bad
settings and unwritable output paths, which are refused before any work.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import pipeline, synth
from .acoustic import AcousticModelConfig, ConvLayerSpec
from .decoder import DecoderOptions, LexiconTrie, build_trie, decode, tune_grid
from .errors import ConfigurationError, ConvSpeechError, EmptyBeamError
from .frontend import FRONTENDS, FrontendConfig, LearnableFrontend, analyze_filters
from .gcnn import GcnnConfig, GcnnLm, train_gcnn
from .lm import SENTENCE_BEGIN, SENTENCE_END, UNKNOWN_TOKEN, Vocabulary, fit_bigram_arpa, load_arpa
from .optim import TrainSettings
from .synth import SyntheticTaskSpec, load_manifest
from .util import from_fields


def parse_config_file(path) -> list[str]:
    """key=value lines -> CLI argument list ('#' starts a comment)."""
    try:
        text = ckpt.read_text(path)
    except OSError as err:
        raise ConfigurationError(f"{path}: config file not readable ({err.strerror})") from None
    args: list[str] = []
    for no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{no}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("_", "-")
        if not key:
            raise ConfigurationError(f"{path}:{no}: no key before '=' in {line!r}")
        if key == "config":
            raise ConfigurationError(f"{path}:{no}: a config file cannot name another config file")
        if key not in _BOOL_DEFAULTS:
            args.extend(["--" + key, value])
            continue
        if value.lower() not in ("true", "yes", "1", "false", "no", "0"):
            raise ConfigurationError(f"{path}:{no}: {key} takes true or false, got {value!r}")
        on = value.lower() in ("true", "yes", "1")
        if on != _BOOL_DEFAULTS[key]:
            args.append("--" + key if on else "--no-" + key)
    return args


# switch flags -> their value when absent; a config value equal to it adds nothing
_BOOL_DEFAULTS = {"markov": True, "no-markov": False}


def _comma_list(cast):
    """argparse type: comma-separated values, each parsed by `cast`."""
    def parse(text: str) -> list:
        return [cast(item) for item in text.split(",") if item != ""]

    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


def _int_pair(text: str) -> tuple[int, int]:
    first, second = text.split(":")
    return int(first), int(second)


def _beam_budget(text: str) -> DecoderOptions:
    size, score = text.split(":")  # argparse passes DecoderOptions' refusal on to main
    return DecoderOptions(beam_size=int(size), beam_score=float(score))


def _add_inputs(p: argparse.ArgumentParser, audio_required: bool = True, lm: bool = True):
    """The --manifest/--am/--lm/--lexicon group of the decoding subcommands."""
    p.add_argument("--manifest", required=audio_required)
    p.add_argument("--am", required=audio_required, help="acoustic system checkpoint")
    if lm:
        p.add_argument("--lm", required=True, help="ARPA file or conv-LM checkpoint")
    p.add_argument("--lexicon", required=True)


def _add_training_flags(p: argparse.ArgumentParser, lr: float, clip: float, batch_size: int):
    """The optimisation group of train-am and train-lm, with that subcommand's defaults."""
    p.add_argument("--epochs", type=int, default=12)
    p.add_argument("--lr", type=float, default=lr)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--clip", type=float, default=clip)
    p.add_argument("--batch-size", type=int, default=batch_size)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", required=True)


def _train_settings(args) -> TrainSettings:
    return TrainSettings(epochs=args.epochs, lr=args.lr, momentum=args.momentum,
                         clip=args.clip, batch_size=args.batch_size, seed=args.seed)


def _add_decoder_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, default=DecoderOptions.alpha)
    p.add_argument("--beta", type=float, default=DecoderOptions.beta)
    p.add_argument("--gamma", type=float, default=DecoderOptions.gamma)
    p.add_argument("--beam-size", type=int, default=DecoderOptions.beam_size)
    p.add_argument("--beam-score", type=float, default=DecoderOptions.beam_score)


def _decoder_opts(args) -> DecoderOptions:
    return DecoderOptions(
        alpha=args.alpha, beta=args.beta, gamma=args.gamma,
        beam_size=args.beam_size, beam_score=args.beam_score,
    )


def _load_task(path) -> SyntheticTaskSpec:
    raw = ckpt.read_json(path)
    # JSON turns the spec's tuples into lists; the lexicon keeps list spellings
    if isinstance(raw, dict):
        raw = {k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()}
    with ckpt.naming(path):
        return from_fields(SyntheticTaskSpec, raw, "task spec")


def _save_task(path, spec: SyntheticTaskSpec):
    Path(path).write_text(json.dumps(asdict(spec), indent=2))


def _load_lm(path):
    with open(path, "rb") as handle:
        head = handle.read(64)
    if str(path).endswith(".arpa") or head.lstrip().startswith(b"\\data\\"):
        text = ckpt.read_text(path)
        with ckpt.naming(path):
            return load_arpa(io.StringIO(text))
    return pipeline.load_gcnn(path)


def _read_corpus(path) -> list[list[str]]:
    """One sentence of words per non-blank line. The sentence markers are the
    LM's own, so a line that holds one is refused."""
    sentences = []
    for no, line in enumerate(ckpt.read_text(path).splitlines(), start=1):
        words = line.split()
        marker = next((w for w in words if w in (SENTENCE_BEGIN, SENTENCE_END)), None)
        if marker:
            raise ConfigurationError(f"{path}:{no}: {marker} is a sentence marker, not a word")
        if words:
            sentences.append(words)
    return sentences


def _write_corpus(path, sentences):
    Path(path).write_text("\n".join(" ".join(s) for s in sentences) + "\n")


def cmd_synth_data(args):
    counts = {"train": args.train, "dev": args.dev, "test": args.test}
    for flag, count in {**counts, "corpus-sentences": args.corpus_sentences}.items():
        synth.check_count(count, f"--{flag}")  # before anything is written
    counts = {k: v for k, v in counts.items() if v > 0}
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    val_count = max(args.corpus_sentences // 10, 10)
    if args.condition == "homophone":
        # the LM-study task, its sentences drawn as in acceptance criterion 7
        spec = synth.homophone_study_spec()
        offsets = {"train": 10, "dev": 11, "test": 12}
        manifests = {
            split: synth.synthesize_from_sentences(
                spec, synth.homophone_study_sentences(count, args.seed + offsets[split]),
                out, split, seed=args.seed)
            for split, count in counts.items()
        }
        corpus = synth.homophone_study_sentences(args.corpus_sentences, args.seed + 20)
        val = synth.homophone_study_sentences(val_count, args.seed + 21)
    else:
        spec = SyntheticTaskSpec()
        if args.condition == "other":
            spec = synth.noisy_variant(spec, args.snr_db)
        bias = synth.markov_bias(spec) if args.markov else None
        manifests = synth.synthesize_dataset(spec, out, counts, seed=args.seed,
                                             transition_bias=bias)
        corpus = synth.synthesize_corpus(spec, args.corpus_sentences, seed=args.seed + 1,
                                         transition_bias=bias)
        val = synth.synthesize_corpus(spec, val_count, seed=args.seed + 2, transition_bias=bias)
    ckpt.write_lexicon(out / "lexicon.txt", spec.lexicon)
    _save_task(out / "task.json", spec)
    _write_corpus(out / "corpus.txt", corpus)
    _write_corpus(out / "corpus-dev.txt", val)
    for split, manifest in manifests.items():
        print(f"{split}: {len(manifest)} utterances")
    print(f"task spec, lexicon, and LM corpora written under {out}")


def cmd_train_am(args):
    settings = _train_settings(args)
    spec = _load_task(args.task)
    manifest = load_manifest(args.manifest)
    dev = load_manifest(args.dev_manifest) if args.dev_manifest else None
    fcfg = FrontendConfig(num_filters=args.filters)
    inputs = [args.filters] + [channels for channels, _ in args.layers]
    model_config = AcousticModelConfig(
        [ConvLayerSpec(c_in, c_out, width, dropout_rate=args.dropout)
         for c_in, (c_out, width) in zip(inputs, args.layers)],
        len(spec.alphabet))
    system, history = pipeline.train_acoustic(
        manifest, spec.lexicon, spec.alphabet, frontend_kind=args.frontend,
        frontend_config=fcfg, model_config=model_config, dev_manifest=dev,
        settings=settings, sample_rate=spec.sample_rate,
        checkpoint_path=args.checkpoint,
    )
    if args.loss_curve:
        pipeline.write_csv(args.loss_curve, history)
    for record in history:
        dev_part = f"  dev {record['dev_loss']:8.3f}" if "dev_loss" in record else ""
        print(f"epoch {record['epoch']:3d}  loss {record['train_loss']:8.3f}{dev_part}"
              f"  lr {record['lr']:.4f}  grad norm {record['grad_norm']:.3f}"
              f"  clipped {record['clip_frac']:.0%}")
    for key, split, use in (("skipped", "training", "training"),
                            ("dev_skipped", "dev", "the dev loss")):
        if history and history[0].get(key):
            print(f"{history[0][key]} {split} utterances have transcripts too long for "
                  f"their audio and are left out of {use}")
    print(f"checkpoint written to {args.checkpoint}")


def cmd_train_lm(args):
    if args.arch == "bigram":  # counts, not SGD: the training flags are unused
        Path(args.checkpoint).write_text(fit_bigram_arpa(_read_corpus(args.corpus)))
        print(f"bigram ARPA written to {args.checkpoint}")
        return
    settings = _train_settings(args)
    corpus = _read_corpus(args.corpus)
    val = _read_corpus(args.val_corpus) if args.val_corpus else None
    if not corpus or val == []:  # train_gcnn's refusal, before --checkpoint-dir is written
        raise ConfigurationError(f"{'validation' if corpus else 'training'} corpus is empty")
    tokens = sorted({tok for sentence in corpus for tok in sentence} - {UNKNOWN_TOKEN})
    vocab = Vocabulary(tuple(tokens) + (SENTENCE_BEGIN, SENTENCE_END, UNKNOWN_TOKEN))
    config = GcnnConfig(num_blocks=args.blocks, embed_dim=args.embed_dim,
                        bottleneck_dim=args.bottleneck_dim,
                        mid_kernel_width=args.kernel_width, dropout_rate=args.dropout)
    lm = GcnnLm(vocab, config, rng=np.random.default_rng(settings.seed))
    ckpt_dir = Path(args.checkpoint_dir) if args.checkpoint_dir else None
    if ckpt_dir:  # the untrained model too: the start of the perplexity-WER trend
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        pipeline.save_gcnn(ckpt_dir / "epoch-start.ckpt", lm)

    def save_epoch(epoch, model, record):
        if ckpt_dir:
            pipeline.save_gcnn(ckpt_dir / f"epoch{epoch:03d}.ckpt", model)

    history = train_gcnn(lm, corpus, val, **asdict(settings), epoch_callback=save_epoch)
    pipeline.save_gcnn(args.checkpoint, lm)
    if args.history:
        pipeline.write_csv(args.history, history)
    for record in history:
        val_part = f"  val ppl {record['val_ppl']:8.3f}" if "val_ppl" in record else ""
        print(f"epoch {record['epoch']:3d}  train ppl {record['train_ppl']:8.3f}{val_part}"
              f"  lr {record['lr']:.4f}  grad norm {record['grad_norm']:.3f}"
              f"  clipped {record['clip_frac']:.0%}")
    print(f"checkpoint written to {args.checkpoint}")


def _read_trie(path, alphabet) -> LexiconTrie:
    """The lexicon file's trie over `alphabet`; a spelling error names the file."""
    lexicon = ckpt.read_lexicon(path)
    with ckpt.naming(path):
        return build_trie(lexicon, alphabet)


def _decode_setup(args):
    """The acoustic system, the lexicon trie over its alphabet, and the manifest."""
    system = pipeline.load_system(args.am)
    return system, _read_trie(args.lexicon, system.alphabet), load_manifest(args.manifest)


def cmd_decode(args):
    opts = _decoder_opts(args)
    if args.emissions:
        if args.manifest or args.am:
            raise ConfigurationError("decode takes --emissions, or --manifest with --am, not both")
        emissions, alphabet, g = ckpt.load_emissions(args.emissions)
        result = decode(emissions, g, _read_trie(args.lexicon, alphabet), _load_lm(args.lm), opts)
        print(" ".join(result.words))
        return
    if not args.manifest:
        raise ConfigurationError("decode needs --emissions, or --manifest with --am")
    if not args.am:
        raise ConfigurationError("decoding a --manifest needs --am")
    system, trie, manifest = _decode_setup(args)
    lm = _load_lm(args.lm)
    for entry, (emissions, g, _) in zip(manifest.entries,
                                        pipeline.emission_items(manifest, system)):
        try:
            result = decode(emissions, g, trie, lm, opts)
            text = " ".join(result.words)
        except EmptyBeamError as err:
            text = f"<decode-failed frame {err.frame}>"
        print(f"{entry.utt_id}\t{text}")


def cmd_evaluate(args):
    system, trie, manifest = _decode_setup(args)
    report = pipeline.evaluate(manifest, system, trie, _load_lm(args.lm), _decoder_opts(args))
    print(f"WER {report.wer:.2f}%  CER {report.cer:.2f}%  "
          f"(S={report.substitutions} D={report.deletions} I={report.insertions} "
          f"N={report.reference_length} failures={report.decode_failures})")
    if args.report:
        rows = [
            {"id": u.utterance_id, "reference": " ".join(u.reference),
             "hypothesis": " ".join(u.hypothesis), "substitutions": u.substitutions,
             "deletions": u.deletions, "insertions": u.insertions}
            for u in report.utterances
        ]
        pipeline.write_csv(args.report, rows)


def cmd_tune(args):
    system, trie, manifest = _decode_setup(args)
    lm = _load_lm(args.lm)
    best, rows = tune_grid(pipeline.emission_items(manifest, system), args.alpha_grid,
                           args.beta_grid, args.gamma_grid, trie, lm, args.stage1, args.stage2)
    if args.out:
        pipeline.write_csv(args.out, rows)
    stage1 = [row["wer"] for row in rows[:-1]]
    print(f"{stage1.count(min(stage1))} of {len(stage1)} stage-1 points share the lowest "
          f"dev WER {min(stage1):.2f}%; the first of them was taken")
    print(f"best: alpha={best.alpha} beta={best.beta} gamma={best.gamma} "
          f"(beam {best.beam_size}/{best.beam_score})")
    print(f"stage-2 WER {rows[-1]['wer']:.2f}% (failures={rows[-1]['failures']})")


def cmd_analyze_frontend(args):
    system = pipeline.load_system(args.am)
    if not isinstance(system.frontend, LearnableFrontend):
        raise ConfigurationError("filter analysis requires a learnable front-end")
    analysis = analyze_filters(system.frontend)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pipeline.write_csv(
        out / "center_frequencies.csv",
        [{"filter_index": i, "center_hz": hz}
         for i, hz in enumerate(analysis.center_frequencies)],
    )
    heat_rows = []
    for i, spectrum in enumerate(analysis.power_spectra):
        for hz, power in zip(analysis.bin_frequencies, spectrum):
            heat_rows.append({"filter_index": i, "bin_hz": hz, "power": power})
    pipeline.write_csv(out / "filter_heatmap.csv", heat_rows)
    print(f"wrote {out / 'center_frequencies.csv'} and {out / 'filter_heatmap.csv'}")


def cmd_ppl_wer(args):
    opts = _decoder_opts(args)
    system, trie, manifest = _decode_setup(args)
    corpus = _read_corpus(args.corpus)
    checkpoints = [(Path(path).stem, pipeline.load_gcnn(path)) for path in args.checkpoints]
    rows = pipeline.perplexity_wer_study(
        checkpoints, pipeline.emission_items(manifest, system), trie, opts, corpus)
    pipeline.write_csv(args.out, rows)
    for row in rows:
        print(f"{row['checkpoint']}: ppl {row['perplexity']:.3f}  wer {row['wer']:.2f}%")


def cmd_context_wer(args):
    opts = _decoder_opts(args)
    system, trie, manifest = _decode_setup(args)
    rows = pipeline.context_wer_study(_load_lm(args.lm), args.limits,
                                      pipeline.emission_items(manifest, system), trie, opts)
    pipeline.write_csv(args.out, rows)
    for row in rows:
        print(f"context {row['context']:3d}: wer {row['wer']:.2f}%")


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: `tune --alpha 1` would otherwise set --alpha-grid
    parser = argparse.ArgumentParser(
        prog="convspeech", allow_abbrev=False,
        description="Fully convolutional speech recognition at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="key=value defaults file")
        p.set_defaults(func=func)
        return p

    p = command("synth-data", cmd_synth_data, "render the synthetic tone task")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--train", type=int, default=500)
    p.add_argument("--dev", type=int, default=50)
    p.add_argument("--test", type=int, default=50)
    p.add_argument("--condition", choices=["clean", "other", "homophone"], default="clean",
                   help="clean tones, tones under noise at --snr-db, or the LM-study task")
    p.add_argument("--snr-db", type=float, default=5.0)
    p.add_argument("--corpus-sentences", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-markov", dest="markov", action="store_false",
                   help="draw words independently instead of from a Markov chain")

    p = command("train-am", cmd_train_am, "train the acoustic model end to end")
    p.add_argument("--manifest", required=True)
    p.add_argument("--dev-manifest")
    p.add_argument("--task", required=True, help="task.json from synth-data")
    p.add_argument("--frontend", choices=list(FRONTENDS), default=LearnableFrontend.kind)
    p.add_argument("--filters", type=int, default=8)
    p.add_argument("--layers", type=_comma_list(_int_pair), default="24:9,32:9",
                   help="conv-GLU stack as channels:width,...")
    _add_training_flags(p, lr=0.3, clip=0.2, batch_size=4)
    p.add_argument("--loss-curve", help="CSV output for the loss history")

    p = command("train-lm", cmd_train_lm, "train a language model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--val-corpus")
    p.add_argument("--arch", choices=["gcnn", "bigram"], default="gcnn")
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--embed-dim", type=int, default=24)
    p.add_argument("--bottleneck-dim", type=int, default=12)
    p.add_argument("--kernel-width", type=int, default=5)
    _add_training_flags(p, lr=0.5, clip=0.1, batch_size=8)
    p.add_argument("--checkpoint-dir",
                   help="save the untrained model and per-epoch checkpoints here")
    p.add_argument("--history", help="CSV output for perplexity history")

    p = command("decode", cmd_decode, "beam-decode a manifest or an emission table")
    _add_inputs(p, audio_required=False)
    p.add_argument("--emissions", help="emission table instead of audio")
    _add_decoder_flags(p)

    p = command("evaluate", cmd_evaluate, "WER/CER over a manifest")
    _add_inputs(p)
    p.add_argument("--report", help="per-utterance CSV output")
    _add_decoder_flags(p)

    p = command("tune", cmd_tune, "two-stage grid search for alpha/beta/gamma")
    _add_inputs(p)
    p.add_argument("--alpha-grid", type=_comma_list(float), default="0,0.5,1")
    p.add_argument("--beta-grid", type=_comma_list(float), default="0,0.5,1")
    p.add_argument("--gamma-grid", type=_comma_list(float), default="0,0.5")
    p.add_argument("--stage1", type=_beam_budget, default=DecoderOptions(),
                   help="beam size:beam score of the grid stage")
    p.add_argument("--stage2", type=_beam_budget, default="3000:50",
                   help="beam size:beam score of the re-evaluation")
    p.add_argument("--out", help="CSV output for the WER grid")

    p = command("analyze-frontend", cmd_analyze_frontend,
                "center frequencies and filter heatmap")
    p.add_argument("--am", required=True)
    p.add_argument("--out-dir", required=True)

    p = command("ppl-wer", cmd_ppl_wer, "perplexity vs WER across LM checkpoints")
    _add_inputs(p, lm=False)
    p.add_argument("--checkpoints", type=_comma_list(str), required=True,
                   help="comma-separated GCNN checkpoints")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_decoder_flags(p)

    p = command("context-wer", cmd_context_wer, "WER as a function of LM context size")
    _add_inputs(p)
    p.add_argument("--limits", type=_comma_list(int), default="1,2,4,8,16")
    p.add_argument("--out", required=True)
    _add_decoder_flags(p)

    return parser


def _check_outputs(args):
    """Refuse an output file that cannot be created, or a history that would
    hold no epoch, before the command does any work."""
    for dest in ("checkpoint", "loss_curve", "history", "report", "out"):
        path = getattr(args, dest, None)
        if path is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if Path(path).is_dir():
            raise ConfigurationError(f"{flag} {path}: is a directory")
        if not Path(path).parent.is_dir():
            raise ConfigurationError(f"{flag} {path}: {Path(path).parent} is not a directory")
        if dest in ("loss_curve", "history") and args.epochs == 0:
            raise ConfigurationError(f"{flag} {path}: --epochs 0 leaves no history to write")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if "--config" in argv:
            idx = argv.index("--config")
            if idx + 1 >= len(argv):
                print("error: --config needs a path", file=sys.stderr)
                return 2
            expanded = parse_config_file(argv[idx + 1])
            del argv[idx : idx + 2]
            # config values go right after the subcommand, so explicit flags parsed later win
            at = next((i + 1 for i, arg in enumerate(argv) if not arg.startswith("-")), 0)
            argv[at:at] = expanded
        args = build_parser().parse_args(argv)
        _check_outputs(args)
        args.func(args)
    except ConvSpeechError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # a missing or unreadable file
        where = f"{err.filename}: " if err.filename else ""
        print(f"error: {where}{err.strerror or err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
