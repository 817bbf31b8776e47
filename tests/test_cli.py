import csv
import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from convspeech import pipeline, synth
from convspeech.audio_io import read_wav, write_wav
from convspeech.checkpoint import load_checkpoint, read_lexicon
from convspeech.cli import _load_task, _save_task, build_parser, main, parse_config_file
from convspeech.errors import ConfigurationError
from convspeech.gcnn import GcnnConfig, GcnnLm
from convspeech.lm import Vocabulary, load_arpa


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main([
        "synth-data", "--out-dir", str(root), "--train", "8", "--dev", "4",
        "--test", "3", "--corpus-sentences", "120", "--seed", "5",
    ])
    assert rc == 0
    rc = main([
        "train-am", "--manifest", str(root / "train.jsonl"),
        "--task", str(root / "task.json"), "--epochs", "2", "--lr", "0.3",
        "--filters", "4", "--checkpoint", str(root / "am.ckpt"),
        "--loss-curve", str(root / "loss.csv"), "--seed", "0",
    ])
    assert rc == 0
    rc = main([
        "train-lm", "--corpus", str(root / "corpus.txt"),
        "--arch", "bigram", "--checkpoint", str(root / "bigram.arpa"),
    ])
    assert rc == 0
    return root


def test_synth_outputs_exist(workspace):
    for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "lexicon.txt",
                 "task.json", "corpus.txt", "corpus-dev.txt"):
        assert (workspace / name).exists(), name
    task = json.loads((workspace / "task.json").read_text())
    assert len(task["letters"]) == 5


def test_train_am_outputs(workspace):
    assert (workspace / "am.ckpt").exists()
    loss_lines = (workspace / "loss.csv").read_text().strip().splitlines()
    assert loss_lines[0] == "epoch,lr,train_loss,skipped,grad_norm,clip_frac"
    assert len(loss_lines) == 3


def test_train_am_dropout_reaches_the_default_layers(workspace, tmp_path):
    path = tmp_path / "am.ckpt"
    rc = main(["train-am", "--manifest", str(workspace / "train.jsonl"),
               "--task", str(workspace / "task.json"), "--filters", "4",
               "--epochs", "0", "--dropout", "0.5", "--checkpoint", str(path)])
    assert rc == 0
    config, _ = load_checkpoint(path, "acoustic-system")
    layers = config["model"]["layers"]
    assert [(layer["out_channels"], layer["kernel_width"]) for layer in layers] == [(24, 9), (32, 9)]
    assert [layer["dropout_rate"] for layer in layers] == [0.5, 0.5]


def test_evaluate_and_report(workspace, capsys):
    rc = main([
        "evaluate", "--manifest", str(workspace / "dev.jsonl"),
        "--am", str(workspace / "am.ckpt"), "--lm", str(workspace / "bigram.arpa"),
        "--lexicon", str(workspace / "lexicon.txt"),
        "--alpha", "0.5", "--beta", "0.5", "--beam-size", "100",
        "--report", str(workspace / "report.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "WER" in out and "CER" in out
    report_lines = (workspace / "report.csv").read_text().strip().splitlines()
    assert report_lines[0].split(",")[0] == "id"
    assert len(report_lines) == 5


def test_decode_prints_transcripts(workspace, capsys):
    rc = main([
        "decode", "--manifest", str(workspace / "dev.jsonl"),
        "--am", str(workspace / "am.ckpt"), "--lm", str(workspace / "bigram.arpa"),
        "--lexicon", str(workspace / "lexicon.txt"), "--beam-size", "100",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert all("\t" in line for line in lines)


def test_decode_prints_the_hypotheses_evaluate_reports(workspace, tmp_path, capsys):
    inputs = ["--manifest", str(workspace / "dev.jsonl"), "--am", str(workspace / "am.ckpt"),
              "--lm", str(workspace / "bigram.arpa"), "--lexicon", str(workspace / "lexicon.txt"),
              "--alpha", "0.5", "--beta", "0.5", "--beam-size", "100"]
    assert main(["decode", *inputs]) == 0
    decoded = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    report = tmp_path / "report.csv"
    assert main(["evaluate", *inputs, "--report", str(report)]) == 0
    with open(report, newline="") as handle:
        listed = [[row["id"], row["hypothesis"]] for row in csv.DictReader(handle)]
    assert decoded == listed and len(listed) == 4


def _emission_decode(workspace, path, capsys):
    rc = main([
        "decode", "--emissions", str(path), "--lm", str(workspace / "bigram.arpa"),
        "--lexicon", str(workspace / "lexicon.txt"), "--beam-size", "50",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    return captured.out.strip(), captured.err


def test_decode_emission_table(workspace, tmp_path, capsys):
    # export an emission table by hand and decode it standalone
    from test_io import save_table

    spec = _load_task(workspace / "task.json")
    alphabet = spec.alphabet
    scores = np.full((4, len(alphabet)), -10.0)
    for t in range(4):
        scores[t, alphabet.index("a")] = 10.0
    path = tmp_path / "emit.ckpt"
    save_table(path, scores, np.zeros((len(alphabet),) * 2), alphabet)
    out, err = _emission_decode(workspace, path, capsys)
    assert out == "a" and err == ""


def test_decode_emission_table_applies_its_transitions(workspace, tmp_path, capsys):
    from test_io import save_table

    spec = _load_task(workspace / "task.json")
    alphabet = spec.alphabet
    a, b = alphabet.index("a"), alphabet.index("b")
    # "a" and "b" tie on every frame; only the transitions tell them apart
    scores = np.full((4, len(alphabet)), -10.0)
    scores[:, [a, b]] = 10.0
    g = np.zeros((len(alphabet), len(alphabet)))
    g[a, b] = g[b, a] = -30.0
    path = tmp_path / "emit.ckpt"
    save_table(path, scores, g, alphabet)
    out, err = _emission_decode(workspace, path, capsys)
    assert out in ("a", "b") and err == ""
    save_table(path, scores, np.zeros_like(g), alphabet)
    out, _ = _emission_decode(workspace, path, capsys)
    assert out == "ab"  # free to switch letters, the bigram prefers the longer word


def test_decode_binary_emission_table_is_an_error_line(workspace, tmp_path, capsys):
    # the little-endian format emission tables had before they became checkpoints
    path = tmp_path / "emit.bin"
    path.write_bytes(b"CSEM\x02\x00\x00\x00" + np.zeros(8).tobytes())
    rc = main(["decode", "--emissions", str(path), "--lm", str(workspace / "bigram.arpa"),
               "--lexicon", str(workspace / "lexicon.txt")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith(f"error: {path}")


LEXICON_DAMAGE = {
    "spelled twice": ("a\ta\nb\tb\na\tb\n", "{}:3: 'a' spelled twice"),
    "foreign letter": ("ab\ta z\n", "{}: letter 'z' not in alphabet"),
    "silence": ("qq\ta |\n", "{}: word 'qq' spelling contains the silence token"),
}


@pytest.mark.parametrize("source", ["--manifest", "--emissions"])
@pytest.mark.parametrize("case", LEXICON_DAMAGE)
def test_lexicon_errors_are_error_lines_naming_the_file(workspace, tmp_path, capsys, case,
                                                        source):
    from test_io import save_table

    text, message = LEXICON_DAMAGE[case]
    lexicon = tmp_path / "lex.txt"
    lexicon.write_text(text)
    if source == "--emissions":
        alphabet = _load_task(workspace / "task.json").alphabet
        table = tmp_path / "emit.ckpt"
        save_table(table, np.zeros((4, len(alphabet))), np.zeros((len(alphabet),) * 2), alphabet)
        inputs = ["--emissions", str(table)]
    else:
        inputs = ["--manifest", str(workspace / "dev.jsonl"), "--am", str(workspace / "am.ckpt")]
    rc = main(["decode", *inputs, "--lm", str(workspace / "bigram.arpa"),
               "--lexicon", str(lexicon)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message.format(lexicon)}\n"


def test_tune_cli(workspace, capsys):
    rc = main([
        "tune", "--manifest", str(workspace / "dev.jsonl"),
        "--am", str(workspace / "am.ckpt"), "--lm", str(workspace / "bigram.arpa"),
        "--lexicon", str(workspace / "lexicon.txt"),
        "--alpha-grid", "0,1", "--beta-grid", "0.5", "--gamma-grid", "0",
        "--stage1", "100:26", "--stage2", "200:50",
        "--out", str(workspace / "grid.csv"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "best:" in out
    lines = (workspace / "grid.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + 2 stage-1 points + 1 stage-2 row
    stage1 = [float(row["wer"]) for row in csv.DictReader(lines) if row["stage"] == "1"]
    assert (f"{stage1.count(min(stage1))} of 2 stage-1 points share the lowest dev WER "
            f"{min(stage1):.2f}%; the first of them was taken") in out


def test_analyze_frontend_cli(workspace):
    rc = main([
        "analyze-frontend", "--am", str(workspace / "am.ckpt"),
        "--out-dir", str(workspace / "analysis"),
    ])
    assert rc == 0
    cf = (workspace / "analysis" / "center_frequencies.csv").read_text().splitlines()
    assert cf[0] == "filter_index,center_hz"
    assert len(cf) == 5  # header + 4 filters
    heat = (workspace / "analysis" / "filter_heatmap.csv").read_text().splitlines()
    assert heat[0] == "filter_index,bin_hz,power"


def test_gcnn_and_studies_cli(workspace, capsys):
    ckpt_dir = workspace / "lm_ckpts"
    rc = main([
        "train-lm", "--corpus", str(workspace / "corpus.txt"),
        "--val-corpus", str(workspace / "corpus-dev.txt"),
        "--blocks", "1", "--embed-dim", "8", "--bottleneck-dim", "4",
        "--kernel-width", "3", "--epochs", "3", "--lr", "0.5",
        "--checkpoint", str(workspace / "gcnn.ckpt"),
        "--checkpoint-dir", str(ckpt_dir),
        "--history", str(workspace / "lm_history.csv"),
    ])
    assert rc == 0
    epoch_lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("epoch")]
    assert len(epoch_lines) == 3
    assert all("val ppl" in ln and "grad norm" in ln and "clipped" in ln for ln in epoch_lines)
    header = (workspace / "lm_history.csv").read_text().splitlines()[0]
    assert header == "epoch,lr,train_ppl,grad_norm,clip_frac,val_ppl"
    checkpoints = sorted(ckpt_dir.glob("epoch0*.ckpt"))
    assert len(checkpoints) == 3
    # epoch-start.ckpt holds the model as initialised, before any update
    start = pipeline.load_gcnn(ckpt_dir / "epoch-start.ckpt")
    fresh = GcnnLm(start.vocab, start.config, rng=np.random.default_rng(0))
    assert all(np.array_equal(start.params[k], fresh.params[k]) for k in fresh.params)
    checkpoints.insert(0, ckpt_dir / "epoch-start.ckpt")
    rc = main([
        "ppl-wer", "--manifest", str(workspace / "dev.jsonl"),
        "--am", str(workspace / "am.ckpt"), "--lexicon", str(workspace / "lexicon.txt"),
        "--checkpoints", ",".join(str(c) for c in checkpoints),
        "--corpus", str(workspace / "corpus-dev.txt"),
        "--alpha", "0.5", "--beam-size", "100",
        "--out", str(workspace / "ppl_wer.csv"),
    ])
    assert rc == 0
    rows = (workspace / "ppl_wer.csv").read_text().strip().splitlines()
    assert rows[0] == "checkpoint,perplexity,wer,failures"
    assert len(rows) == 5 and rows[1].startswith("epoch-start,")
    rc = main([
        "context-wer", "--manifest", str(workspace / "dev.jsonl"),
        "--am", str(workspace / "am.ckpt"), "--lm", str(workspace / "gcnn.ckpt"),
        "--lexicon", str(workspace / "lexicon.txt"), "--limits", "1,2,4",
        "--alpha", "0.5", "--beam-size", "100",
        "--out", str(workspace / "context_wer.csv"),
    ])
    assert rc == 0
    rows = (workspace / "context_wer.csv").read_text().strip().splitlines()
    assert rows[0] == "context,wer,failures"
    assert len(rows) == 4


def test_config_file_defaults(workspace, tmp_path, capsys):
    cfg = tmp_path / "decode.cfg"
    cfg.write_text("alpha=0.5\nbeta = 0.5  # comment\nbeam-size=100\n")
    rc = main([
        "evaluate", "--config", str(cfg),
        "--manifest", str(workspace / "dev.jsonl"),
        "--am", str(workspace / "am.ckpt"), "--lm", str(workspace / "bigram.arpa"),
        "--lexicon", str(workspace / "lexicon.txt"),
        "--beta", "1.0",  # explicit flag overrides the config value
    ])
    assert rc == 0


def test_config_file_before_subcommand_and_false_switch(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("train=3\ndev=0\ntest=0\ncorpus-sentences=40\nmarkov=false\n")
    assert parse_config_file(cfg)[-1] == "--no-markov"
    corpora = {}
    for name, argv in {
        "config": ["--config", str(cfg), "synth-data", "--out-dir", str(tmp_path / "config")],
        "flag": ["synth-data", "--out-dir", str(tmp_path / "flag"), "--train", "3",
                 "--dev", "0", "--test", "0", "--corpus-sentences", "40", "--no-markov"],
        "markov": ["synth-data", "--out-dir", str(tmp_path / "markov"), "--train", "3",
                   "--dev", "0", "--test", "0", "--corpus-sentences", "40"],
    }.items():
        assert main(argv) == 0
        corpora[name] = (tmp_path / name / "corpus.txt").read_text()
    assert len((tmp_path / "config" / "train.jsonl").read_text().splitlines()) == 3
    assert corpora["config"] == corpora["flag"] != corpora["markov"]


def test_task_round_trip(tmp_path):
    spec = synth.noisy_variant(synth.SyntheticTaskSpec(), 5.0)
    _save_task(tmp_path / "task.json", spec)
    assert _load_task(tmp_path / "task.json") == spec


@pytest.mark.parametrize("change", ["missing", "unknown"])
def test_task_rejects_key_mismatch(tmp_path, change):
    path = tmp_path / "task.json"
    _save_task(path, synth.SyntheticTaskSpec())
    raw = json.loads(path.read_text())
    if change == "missing":
        del raw["tone_frequencies"]
    else:
        raw["tone_frequency"] = 440.0
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigurationError, match=r"task\.json.*tone_frequenc"):
        _load_task(path)


def test_task_rejects_invalid_spec(tmp_path):
    path = tmp_path / "task.json"
    _save_task(path, synth.SyntheticTaskSpec())
    raw = json.loads(path.read_text())
    raw["sample_rate"] = 1000  # Nyquist 500 Hz, below the 2,400 Hz top tone
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigurationError, match=r"task\.json: tone frequencies must stay below"):
        _load_task(path)


@pytest.mark.parametrize("lexicon", [{"abc": 5}, [1], {"ab": ["a", "z"]}, {"ab": "ab"}],
                         ids=["int spelling", "list", "foreign letter", "string spelling"])
def test_task_lexicon_of_the_wrong_type_is_an_error_line(workspace, tmp_path, capsys, lexicon):
    task = tmp_path / "task.json"
    raw = json.loads((workspace / "task.json").read_text())
    raw["lexicon"] = lexicon
    task.write_text(json.dumps(raw))
    rc = main(["train-am", "--manifest", str(workspace / "train.jsonl"), "--task", str(task),
               "--filters", "4", "--epochs", "0", "--checkpoint", str(tmp_path / "am.ckpt")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {task}: lexicon must map each word to a non-empty list of the task's letters\n")


def test_transcript_word_missing_from_the_lexicon_names_the_utterance(workspace, tmp_path,
                                                                      capsys):
    entry = synth.load_manifest(workspace / "train.jsonl").entries[0]
    manifest = tmp_path / "train.jsonl"
    synth.save_manifest(manifest, synth.DatasetManifest(
        [synth.ManifestEntry(entry.utt_id, entry.audio, "a zzz")]))
    rc = main(["train-am", "--manifest", str(manifest), "--task", str(workspace / "task.json"),
               "--filters", "4", "--epochs", "0", "--checkpoint", str(tmp_path / "am.ckpt")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: utterance {entry.utt_id} ({entry.audio}): word 'zzz' not in the lexicon\n")


@pytest.mark.parametrize("command", ["train-am", "train-lm"])
@pytest.mark.parametrize("flags", [["--batch-size", "0"], ["--batch-size", "-1"],
                                   ["--epochs", "-2"], ["--momentum", "1"]],
                         ids=["batch 0", "batch -1", "epochs -2", "momentum 1"])
def test_training_sizes_that_train_nothing_are_error_lines(workspace, tmp_path, capsys, command,
                                                           flags):
    if command == "train-am":
        inputs = ["--manifest", str(workspace / "train.jsonl"),
                  "--task", str(workspace / "task.json"), "--filters", "4"]
    else:
        inputs = ["--corpus", str(workspace / "corpus.txt"), "--blocks", "1",
                  "--embed-dim", "4", "--bottleneck-dim", "2"]
    checkpoint = tmp_path / "model.ckpt"
    rc = main([command, *inputs, "--epochs", "1", *flags, "--checkpoint", str(checkpoint)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error: ")
    assert not checkpoint.exists()


@pytest.mark.parametrize("arch", ["gcnn", "bigram"])
@pytest.mark.parametrize("marker", ["<s>", "</s>"])
def test_train_lm_refuses_a_sentence_marker_in_the_corpus(tmp_path, capsys, arch, marker):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(f"a b\n\nb {marker} a\n")
    rc = main(["train-lm", "--corpus", str(corpus), "--arch", arch, "--blocks", "1",
               "--epochs", "1", "--checkpoint", str(tmp_path / "lm.out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {corpus}:3: {marker} is a sentence marker, not a word\n")
    assert not (tmp_path / "lm.out").exists()


@pytest.mark.parametrize("arch", ["gcnn", "bigram"])
def test_train_lm_takes_unk_as_a_word(tmp_path, arch):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b <unk>\nb a\n")
    out = tmp_path / "lm.out"
    rc = main(["train-lm", "--corpus", str(corpus), "--arch", arch, "--blocks", "1",
               "--embed-dim", "4", "--bottleneck-dim", "2", "--epochs", "1",
               "--checkpoint", str(out)])
    assert rc == 0
    if arch == "bigram":
        vocab = load_arpa(io.StringIO(out.read_text())).vocab
    else:
        vocab = pipeline.load_gcnn(out).vocab
    assert vocab.tokens.count("<unk>") == 1 and {"a", "b"} <= set(vocab.tokens)


@pytest.mark.parametrize("flags", [["--batch-size", "0"], ["--momentum", "1"]],
                         ids=["batch 0", "momentum 1"])
def test_train_lm_refused_settings_leave_no_checkpoint(workspace, tmp_path, capsys, flags):
    ckpt_dir = tmp_path / "ck"
    rc = main(["train-lm", "--corpus", str(workspace / "corpus.txt"), "--blocks", "1",
               "--embed-dim", "4", "--bottleneck-dim", "2", "--epochs", "1", *flags,
               "--checkpoint", str(tmp_path / "lm.ckpt"), "--checkpoint-dir", str(ckpt_dir)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "lm.ckpt").exists()
    assert not ckpt_dir.exists() or not any(ckpt_dir.iterdir())


def _refused(monkeypatch, capsys, argv) -> str:
    """Run `argv`, which must end with one `error:` line and exit 1 before any WAV is read."""
    reads = []
    read_wav = pipeline.read_wav
    monkeypatch.setattr(pipeline, "read_wav", lambda path: reads.append(path) or read_wav(path))
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error: "), err
    assert reads == []
    return err[0]


def _gcnn_checkpoint(workspace, path):
    words = sorted(read_lexicon(workspace / "lexicon.txt"))
    pipeline.save_gcnn(path, GcnnLm(Vocabulary((*words, "<s>", "</s>", "<unk>")),
                                    GcnnConfig(num_blocks=1, embed_dim=4, bottleneck_dim=2,
                                               mid_kernel_width=3)))
    return str(path)


@pytest.mark.parametrize("command, flags", [
    ("train-am", ["--lr", "nan"]), ("train-am", ["--clip", "0"]),
    ("train-am", ["--momentum", "1"]),
    ("tune", ["--stage1", "0:26"]), ("tune", ["--stage2", "10:nan"]),
    ("tune", ["--alpha-grid", ""]),
    ("context-wer", ["--beam-size", "0"]), ("context-wer", ["--limits", "0,1"]),
    ("ppl-wer", ["--beam-size", "0"]), ("ppl-wer", ["missing checkpoint"]),
    ("ppl-wer", ["empty corpus"]),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_refused_settings_read_no_audio(workspace, tmp_path, capsys, monkeypatch, command,
                                        flags):
    out = tmp_path / "out.csv"
    if command == "train-am":
        argv = ["train-am", "--manifest", str(workspace / "train.jsonl"),
                "--task", str(workspace / "task.json"), "--filters", "4", "--epochs", "1",
                "--checkpoint", str(tmp_path / "am.ckpt"), *flags]
    elif command == "ppl-wer":
        ckpt = _gcnn_checkpoint(workspace, tmp_path / "lm.ckpt")
        checkpoints = [ckpt, ckpt, ckpt]
        corpus = workspace / "corpus.txt"
        if flags == ["missing checkpoint"]:
            checkpoints[2] = str(tmp_path / "missing.ckpt")
        elif flags == ["empty corpus"]:
            corpus = tmp_path / "empty.txt"
            corpus.write_text("")
        argv = ["ppl-wer", *_study_inputs(workspace), "--checkpoints", ",".join(checkpoints),
                "--corpus", str(corpus), "--out", str(out)]
        if flags[0].startswith("--"):
            argv += flags
    else:
        argv = [command, *_study_inputs(workspace), "--lm", str(workspace / "bigram.arpa"), "--out", str(out),
                *flags]
    _refused(monkeypatch, capsys, argv)
    assert not (tmp_path / "am.ckpt").exists() and not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("train-am", "--checkpoint"), ("train-am", "--loss-curve"), ("train-lm", "--checkpoint"),
    ("train-lm", "--history"), ("tune", "--out"), ("evaluate", "--report"),
    ("context-wer", "--out"), ("ppl-wer", "--out"),
])
@pytest.mark.parametrize("where", ["missing directory", "a directory"])
def test_unwritable_output_paths_are_refused_before_any_work(workspace, tmp_path, capsys,
                                                             monkeypatch, command, flag, where):
    bad = tmp_path / "nodir" / "out.csv" if where == "missing directory" else tmp_path
    checkpoint = tmp_path / "model.ckpt"
    if command == "train-am":
        argv = ["train-am", "--manifest", str(workspace / "train.jsonl"),
                "--task", str(workspace / "task.json"), "--filters", "4", "--epochs", "1",
                "--checkpoint", str(checkpoint)]
    elif command == "train-lm":
        argv = ["train-lm", "--corpus", str(workspace / "corpus.txt"), "--blocks", "1",
                "--embed-dim", "4", "--bottleneck-dim", "2", "--epochs", "1",
                "--checkpoint", str(checkpoint)]
    elif command == "ppl-wer":
        ckpt = _gcnn_checkpoint(workspace, tmp_path / "lm.ckpt")
        argv = ["ppl-wer", *_study_inputs(workspace), "--checkpoints", f"{ckpt},{ckpt},{ckpt}",
                "--corpus", str(workspace / "corpus.txt"), "--out", str(tmp_path / "p.csv")]
    else:
        argv = [command, *_study_inputs(workspace), "--lm", str(workspace / "bigram.arpa")]
        if command == "context-wer":
            argv += ["--out", str(tmp_path / "c.csv")]
    before = sorted(tmp_path.rglob("*"))
    line = _refused(monkeypatch, capsys, [*argv, flag, str(bad)])
    assert line.startswith(f"error: {flag} {bad}: ")
    assert sorted(tmp_path.rglob("*")) == before  # no checkpoint, CSV or report


@pytest.mark.parametrize("command, flag", [("train-am", "--loss-curve"),
                                           ("train-lm", "--history")])
def test_epochs_0_with_a_history_file_is_an_error_line(tmp_path, capsys, command, flag):
    # no epoch, no record: refused before the (here missing) manifest or corpus is read
    missing = str(tmp_path / "missing")
    inputs = (["--manifest", missing, "--task", missing] if command == "train-am"
              else ["--corpus", missing])
    out = tmp_path / "history.csv"
    rc = main([command, *inputs, "--epochs", "0", "--checkpoint", str(tmp_path / "m.ckpt"),
               flag, str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {flag} {out}: --epochs 0 leaves no history to write\n")
    assert list(tmp_path.iterdir()) == []


def test_train_am_counts_the_dev_utterances_too_long_for_their_audio(workspace, tmp_path,
                                                                     capsys):
    entries = synth.load_manifest(workspace / "dev.jsonl").entries[:2]
    entries[1] = synth.ManifestEntry("long", entries[1].audio, " ".join(["abc"] * 40))
    dev = tmp_path / "dev.jsonl"
    synth.save_manifest(dev, synth.DatasetManifest(entries))
    curve = tmp_path / "loss.csv"
    rc = main(["train-am", "--manifest", str(workspace / "train.jsonl"),
               "--dev-manifest", str(dev), "--task", str(workspace / "task.json"),
               "--filters", "4", "--epochs", "1", "--checkpoint", str(tmp_path / "am.ckpt"),
               "--loss-curve", str(curve)])
    assert rc == 0
    assert ("1 dev utterances have transcripts too long for their audio and are left out "
            "of the dev loss") in capsys.readouterr().out.splitlines()
    rows = list(csv.DictReader(curve.open()))
    assert list(rows[0]) == ["epoch", "lr", "train_loss", "skipped", "grad_norm", "clip_frac",
                             "dev_loss", "dev_skipped"]
    assert rows[0]["dev_skipped"] == "1"


def test_train_am_counts_the_training_utterances_too_long_for_their_audio(workspace, tmp_path,
                                                                          capsys):
    entries = synth.load_manifest(workspace / "train.jsonl").entries[:3]
    entries[0] = synth.ManifestEntry("long", entries[0].audio, " ".join(["abc"] * 40))
    train = tmp_path / "train.jsonl"
    synth.save_manifest(train, synth.DatasetManifest(entries))
    curve = tmp_path / "loss.csv"
    rc = main(["train-am", "--manifest", str(train), "--task", str(workspace / "task.json"),
               "--filters", "4", "--epochs", "1", "--checkpoint", str(tmp_path / "am.ckpt"),
               "--loss-curve", str(curve)])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert ("1 training utterances have transcripts too long for their audio and are left "
            "out of training") in out
    assert not any("dev utterances" in line for line in out)
    assert list(csv.DictReader(curve.open()))[0]["skipped"] == "1"


def test_empty_validation_sets_are_error_lines(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    checkpoint = tmp_path / "am.ckpt"
    rc = main(["train-am", "--manifest", str(workspace / "train.jsonl"),
               "--dev-manifest", str(empty), "--task", str(workspace / "task.json"),
               "--filters", "4", "--epochs", "1", "--checkpoint", str(checkpoint)])
    assert rc == 1
    assert capsys.readouterr().err == "error: no feasible dev utterances\n"
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    ckpt_dir = tmp_path / "lm_ckpts"
    rc = main(["train-lm", "--corpus", str(workspace / "corpus.txt"), "--val-corpus", str(empty),
               "--blocks", "1", "--embed-dim", "4", "--bottleneck-dim", "2", "--epochs", "1",
               "--checkpoint", str(checkpoint), "--checkpoint-dir", str(ckpt_dir)])
    assert rc == 1
    assert capsys.readouterr().err == "error: validation corpus is empty\n"
    assert not checkpoint.exists()
    assert list(tmp_path.rglob("*.ckpt")) == []


@pytest.mark.parametrize("command", ["train-am", "evaluate", "decode"])
def test_audio_the_front_end_rejects_names_the_utterance(workspace, tmp_path, capsys, command):
    entry = synth.load_manifest(workspace / "train.jsonl").entries[0]
    wav = tmp_path / "8k.wav"
    write_wav(wav, read_wav(entry.audio).samples, sample_rate=8000)
    manifest = tmp_path / "utts.jsonl"
    synth.save_manifest(manifest, synth.DatasetManifest(
        [synth.ManifestEntry(entry.utt_id, str(wav), entry.text)]))
    if command == "train-am":
        argv = ["train-am", "--task", str(workspace / "task.json"), "--filters", "4",
                "--epochs", "1", "--checkpoint", str(tmp_path / "am.ckpt")]
    else:
        argv = [command, "--am", str(workspace / "am.ckpt"),
                "--lm", str(workspace / "bigram.arpa"), "--lexicon", str(workspace / "lexicon.txt")]
    assert main([*argv, "--manifest", str(manifest)]) == 1
    assert capsys.readouterr().err == (
        f"error: utterance {entry.utt_id} ({wav}): waveform rate 8000 != front-end rate 16000\n")


def test_config_file_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a pair\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(cfg)


@pytest.mark.parametrize("line, problem", [
    ("=5", "no key before '='"),
    ("config = other.cfg", "a config file cannot name another config file"),
])
def test_config_file_refuses_an_empty_key_and_a_nested_config(tmp_path, capsys, line, problem):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"seed = 3\n{line}\n")
    with pytest.raises(ConfigurationError, match=f"bad.cfg:2: {problem}"):
        parse_config_file(cfg)
    assert main(["--config", str(cfg), "synth-data", "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}:2: {problem}")
    assert not (tmp_path / "out").exists()


def test_missing_config_file_is_an_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ConfigurationError, match="missing.cfg"):
        parse_config_file(missing)
    assert main(["--config", str(missing), "evaluate"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.cfg" in err and "Traceback" not in err


def test_cli_error_reporting(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "u", "audio": "/nonexistent/file.wav", "text": "a"}\n')
    rc = main([
        "evaluate", "--manifest", str(bad),
        "--am", str(workspace / "am.ckpt"), "--lm", str(workspace / "bigram.arpa"),
        "--lexicon", str(workspace / "lexicon.txt"),
    ])
    assert rc == 1
    assert "not readable" in capsys.readouterr().err


def _study_inputs(workspace):
    return ["--manifest", str(workspace / "dev.jsonl"), "--am", str(workspace / "am.ckpt"),
            "--lexicon", str(workspace / "lexicon.txt")]


@pytest.mark.parametrize("flag", ["--am", "--lm arpa", "--lm checkpoint", "--manifest",
                                  "--lexicon", "--corpus", "--checkpoints"])
def test_missing_input_file_is_an_error_line(workspace, tmp_path, capsys, flag):
    missing = str(tmp_path / ("missing.arpa" if flag == "--lm arpa" else "missing.ckpt"))
    evaluate = ["evaluate", *_study_inputs(workspace), "--lm", str(workspace / "bigram.arpa")]
    if flag in ("--am", "--manifest", "--lexicon", "--lm arpa"):
        argv = evaluate + [flag.split()[0], missing]  # a repeated flag: the last one wins
    elif flag == "--lm checkpoint":
        argv = ["context-wer", *_study_inputs(workspace), "--lm", missing,
                "--out", str(tmp_path / "ctx.csv")]
    elif flag == "--corpus":
        argv = ["train-lm", "--corpus", missing, "--arch", "bigram",
                "--checkpoint", str(tmp_path / "lm.arpa")]
    else:
        argv = ["ppl-wer", *_study_inputs(workspace), "--corpus", str(workspace / "corpus.txt"),
                "--checkpoints", f"{missing},{missing},{missing}",
                "--out", str(tmp_path / "ppl.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--manifest", "--lexicon", "--lm", "--corpus", "--config"])
def test_non_utf8_input_is_an_error_line(workspace, tmp_path, capsys, flag):
    bad = tmp_path / ("bad.arpa" if flag == "--lm" else "bad.txt")
    bad.write_bytes(b"\\data\\\n\xff\xfe\n")
    if flag == "--corpus":
        argv = ["train-lm", "--corpus", str(bad), "--arch", "bigram",
                "--checkpoint", str(tmp_path / "lm.arpa")]
    elif flag == "--config":
        argv = ["--config", str(bad), "evaluate"]
    else:
        argv = ["evaluate", *_study_inputs(workspace), "--lm", str(workspace / "bigram.arpa"),
                flag, str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad}: not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("with_manifest, flag", [(False, "--emissions"), (True, "--am")])
def test_decode_without_input_source_is_an_error_line(workspace, capsys, with_manifest, flag):
    argv = ["decode", "--lm", str(workspace / "bigram.arpa"),
            "--lexicon", str(workspace / "lexicon.txt")]
    if with_manifest:
        argv += ["--manifest", str(workspace / "dev.jsonl")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("flag", ["--manifest", "--am"])
def test_decode_emissions_with_audio_inputs_is_an_error_line(workspace, tmp_path, capsys, flag):
    path = workspace / ("dev.jsonl" if flag == "--manifest" else "am.ckpt")
    argv = ["decode", "--emissions", str(tmp_path / "emit.ckpt"), flag, str(path),
            "--lm", str(workspace / "bigram.arpa"), "--lexicon", str(workspace / "lexicon.txt")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "--emissions" in err[0]


def test_synth_data_nan_snr_is_an_error_line(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["synth-data", "--out-dir", str(out), "--condition", "other", "--snr-db", "nan",
               "--train", "2", "--dev", "0", "--test", "0", "--corpus-sentences", "10"])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error: ")
    assert not list(out.rglob("*.wav"))


@pytest.mark.parametrize("argv, flag", [
    (["tune", "--manifest", "m", "--am", "a", "--lm", "l", "--lexicon", "x",
      "--stage1", "2500"], "--stage1"),
    (["tune", "--manifest", "m", "--am", "a", "--lm", "l", "--lexicon", "x",
      "--alpha-grid", "a"], "--alpha-grid"),
    (["context-wer", "--manifest", "m", "--am", "a", "--lm", "l", "--lexicon", "x",
      "--out", "o", "--limits", "a"], "--limits"),
    (["train-am", "--manifest", "m", "--task", "t", "--checkpoint", "c",
      "--layers", "24:9,x"], "--layers"),
    # flags the subcommand does not take: tune picks the weights, decoding draws nothing
    (["tune", "--manifest", "m", "--am", "a", "--lm", "l", "--lexicon", "x",
      "--alpha", "1"], "--alpha"),
    (["evaluate", "--manifest", "m", "--am", "a", "--lm", "l", "--lexicon", "x",
      "--seed", "1"], "--seed"),
])
def test_bad_list_values_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and flag in err


def _readme_commands() -> list[list[str]]:
    """Every `convspeech ...` command in README.md, continuation lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        line = line.split(" #", 1)[0].strip()
        if line.startswith("convspeech "):
            commands.append(shlex.split(line)[1:])
    return commands


def test_readme_recipes_parse():
    commands = _readme_commands()
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a usage error exits with code 2 and fails the test
    assert {argv[0] for argv in commands} == {
        "synth-data", "train-am", "train-lm", "decode", "evaluate", "tune",
        "analyze-frontend", "ppl-wer", "context-wer"}


def test_synth_data_homophone(tmp_path):
    rc = main(["synth-data", "--condition", "homophone", "--out-dir", str(tmp_path),
               "--train", "3", "--dev", "2", "--test", "0", "--corpus-sentences", "20"])
    assert rc == 0
    assert _load_task(tmp_path / "task.json") == synth.homophone_study_spec()
    lexicon = read_lexicon(tmp_path / "lexicon.txt")
    assert lexicon["ab1"] == lexicon["ab2"] == ["a", "b"]
    for split, count, seed in (("train", 3, 10), ("dev", 2, 11)):
        texts = [entry.text for entry in synth.load_manifest(tmp_path / f"{split}.jsonl").entries]
        assert texts == [" ".join(s) for s in synth.homophone_study_sentences(count, seed)]
    assert not (tmp_path / "test.jsonl").exists()
    for name, count, seed in (("corpus.txt", 20, 20), ("corpus-dev.txt", 10, 21)):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines == [" ".join(s) for s in synth.homophone_study_sentences(count, seed)]


def _decode_error(workspace, capsys, *flags):
    """The stderr lines of a decode of the dev manifest with `flags` added."""
    argv = ["decode", "--manifest", str(workspace / "dev.jsonl"),
            "--am", str(workspace / "am.ckpt"), "--lexicon", str(workspace / "lexicon.txt"),
            "--lm", str(workspace / "bigram.arpa"), "--alpha", "0.5", *flags]
    assert main(argv) == 1
    return capsys.readouterr().err.splitlines()


def test_nan_lm_values_are_error_lines_naming_the_file(workspace, tmp_path, capsys):
    lines = (workspace / "bigram.arpa").read_text().splitlines()
    at = lines.index("\\1-grams:") + 2
    lines[at] = "nan " + lines[at].split(None, 1)[1]
    arpa = tmp_path / "nan.arpa"
    arpa.write_text("\n".join(lines) + "\n")
    assert _decode_error(workspace, capsys, "--lm", str(arpa)) == [
        f"error: {arpa}: line {at + 1}: log10 probability nan is positive or NaN"]
    words = sorted(read_lexicon(workspace / "lexicon.txt"))
    lm = GcnnLm(Vocabulary((*words, "<s>", "</s>", "<unk>")),
                GcnnConfig(num_blocks=1, embed_dim=4, bottleneck_dim=2, mid_kernel_width=3))
    name = sorted(lm.params)[0]
    lm.params[name].flat[0] = np.nan
    conv = tmp_path / "nan.ckpt"
    pipeline.save_gcnn(conv, lm)
    assert _decode_error(workspace, capsys, "--lm", str(conv)) == [
        f"error: {conv}: array '{name}' holds NaN or +inf"]


def test_nan_emission_table_is_an_error_line_naming_the_file(workspace, tmp_path, capsys):
    from test_io import save_table

    alphabet = _load_task(workspace / "task.json").alphabet
    scores = np.zeros((4, len(alphabet)))
    scores[2, 1] = np.nan
    path = tmp_path / "emit.ckpt"
    save_table(path, scores, np.zeros((len(alphabet),) * 2), alphabet)
    rc = main(["decode", "--emissions", str(path), "--lm", str(workspace / "bigram.arpa"),
               "--lexicon", str(workspace / "lexicon.txt")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: array 'scores' holds NaN or +inf\n"


@pytest.mark.parametrize("flag", ["--train", "--dev", "--test", "--corpus-sentences"])
def test_synth_data_negative_size_is_an_error_line_and_writes_nothing(tmp_path, capsys, flag):
    out = tmp_path / "data"
    sizes = {"--train": "2", "--dev": "0", "--test": "0", "--corpus-sentences": "10"}
    sizes[flag] = "-5"
    rc = main(["synth-data", "--out-dir", str(out), *(x for kv in sizes.items() for x in kv)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {flag} must be >= 0, got -5\n"
    assert not out.exists()


def test_context_wer_without_limits_is_an_error_line(workspace, tmp_path, capsys):
    out = tmp_path / "ctx.csv"
    rc = main(["context-wer", *_study_inputs(workspace), "--lm", str(workspace / "bigram.arpa"),
               "--limits", "", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: context study needs at least one context limit\n"
    assert not out.exists()
