import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from convspeech import pipeline, synth
from convspeech.checkpoint import load_checkpoint, read_lexicon
from convspeech.cli import _load_task, _save_task, build_parser, main, parse_config_file
from convspeech.errors import ConfigurationError
from convspeech.gcnn import GcnnLm


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
    assert loss_lines[0].startswith("epoch")
    assert len(loss_lines) == 3


def test_train_am_dropout_reaches_the_default_layers(workspace, tmp_path):
    path = tmp_path / "am.ckpt"
    rc = main(["train-am", "--manifest", str(workspace / "train.jsonl"),
               "--task", str(workspace / "task.json"), "--filters", "4",
               "--epochs", "0", "--dropout", "0.5", "--checkpoint", str(path)])
    assert rc == 0
    _, config, _ = load_checkpoint(path)
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
    import numpy as np

    from convspeech.checkpoint import save_emissions
    from convspeech.acoustic import EmissionTable

    spec = _load_task(workspace / "task.json")
    alphabet = spec.alphabet
    scores = np.full((4, len(alphabet)), -10.0)
    for t in range(4):
        scores[t, alphabet.index("a")] = 10.0
    path = tmp_path / "emit.bin"
    save_emissions(path, EmissionTable(scores), alphabet, np.zeros((len(alphabet),) * 2))
    out, err = _emission_decode(workspace, path, capsys)
    assert out == "a" and err == ""


def test_decode_emission_table_applies_its_transitions(workspace, tmp_path, capsys):
    import numpy as np

    from convspeech.acoustic import EmissionTable
    from convspeech.checkpoint import save_emissions
    from test_io import as_version1

    spec = _load_task(workspace / "task.json")
    alphabet = spec.alphabet
    a, b = alphabet.index("a"), alphabet.index("b")
    # "a" and "b" tie on every frame; only the transitions tell them apart
    scores = np.full((4, len(alphabet)), -10.0)
    scores[:, [a, b]] = 10.0
    g = np.zeros((len(alphabet), len(alphabet)))
    g[a, b] = g[b, a] = -30.0
    path = tmp_path / "emit.bin"
    save_emissions(path, EmissionTable(scores), alphabet, g)
    out, err = _emission_decode(workspace, path, capsys)
    assert out in ("a", "b") and err == ""
    as_version1(path, len(alphabet))
    out_v1, err_v1 = _emission_decode(workspace, path, capsys)
    assert out_v1 == "ab"  # free to switch letters, the bigram prefers the longer word
    assert len(err_v1.strip().splitlines()) == 1 and "transition table" in err_v1


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
    assert "best:" in capsys.readouterr().out
    lines = (workspace / "grid.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + 2 stage-1 points + 1 stage-2 row


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


def test_config_file_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a pair\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(cfg)


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
