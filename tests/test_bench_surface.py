"""The benchmark's import surface: every name bench/ imports or patches exists.

The benchmark harness lives outside the package and reaches into it by name
(`bench/tracing.py` wraps module functions and methods in place). One test
imports the harness modules and installs and removes the tracer, running no
workload, so a refactor that drops one of those names fails here rather than
in a benchmark run. Another traces one tiny decode, so a traced function whose
arguments or result no longer count hypotheses fails here rather than as a
quietly wrong per-layer figure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, "bench")
import bootstrap
bootstrap.import_convspeech()
import make_checkpoints, tracing, workloads
tracer = tracing.Tracer()
tracing.instrument(tracer)
tracer.restore()
"""


def test_bench_imports_and_instruments():
    # -B: no bytecode written under bench/; a subprocess: no patched names leak here
    done = subprocess.run([sys.executable, "-B", "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


DECODE_SCRIPT = """
import io, json, sys
sys.path.insert(0, "bench")
import bootstrap
bootstrap.import_convspeech()
import numpy as np
import tracing
from convspeech import decoder
from convspeech.criterion import Alphabet
from convspeech.lm import fit_bigram_arpa, load_arpa
alphabet = Alphabet.from_plain_letters(("a", "b", "c"))
lexicon = {"a": ["a"], "ab": ["a", "b"], "ba": ["b", "a"], "cab": ["c", "a", "b"]}
trie = decoder.build_trie(lexicon, alphabet)
lm = load_arpa(io.StringIO(fit_bigram_arpa([["a", "ab"], ["ba", "cab", "a"]])))
rng = np.random.default_rng(0)
emissions = rng.normal(size=(9, len(alphabet)))
transitions = rng.normal(size=(len(alphabet), len(alphabet)))
tracer = tracing.Tracer()
tracing.instrument(tracer)
try:
    decoder.decode(emissions, transitions, trie, lm, decoder.DecoderOptions(alpha=0.5))
finally:
    tracer.restore()
spans = [(name, dict(tracer.attrs.get(i, ()))) for i, name in enumerate(tracer.names)]
print(json.dumps({"layers": tracer.layers(), "spans": spans}))
"""


def test_trace_counts_hypotheses_of_a_decode():
    done = subprocess.run([sys.executable, "-B", "-c", DECODE_SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    traced = json.loads(done.stdout.splitlines()[-1])
    layers = traced["layers"]
    frames = layers["decoder.decode"]["frames"]
    assert frames == 9
    assert layers["decoder.merge"]["calls"] == frames + 1  # once more at finalization
    assert layers["decoder.prune"]["calls"] == frames
    merges = [attrs for name, attrs in traced["spans"] if name == "decoder.merge"]
    prunes = [attrs for name, attrs in traced["spans"] if name == "decoder.prune"]
    assert all(attrs["in"] >= attrs["out"] > 0 for attrs in merges), merges
    assert any(attrs["in"] > attrs["out"] for attrs in merges), merges  # some merging happened
    assert all(attrs["out"] > 0 for attrs in prunes), prunes
    # prune keeps some of a frame's merged hypotheses, and each has a next move
    assert all(m["out"] >= p["out"] for m, p in zip(merges, prunes)), (merges, prunes)
    assert all(m["in"] >= p["out"] for m, p in zip(merges[1:frames], prunes)), (merges, prunes)


TRAIN_MEMORY_SCRIPT = """
import sys
from pathlib import Path
sys.path.insert(0, "bench")
import bootstrap
bootstrap.import_convspeech()
import workloads
workload = workloads.make("train", 1, "tiny")
workload.setup(workloads.fresh_dir(Path(sys.argv[1])))
print(workloads.memory_probe(workload, workloads.MEMORY_PROBE_ITEMS["train"]))
"""


def test_train_round_peak_allocation(tmp_path):
    # the bench's memory probe on one train round at --size tiny, which trains
    # on the same four utterances as the full size: front-end caches keep only
    # what their backward reads, and a cached pass keeps no workspace, so the
    # round peaks at 4.34 MB
    done = subprocess.run([sys.executable, "-B", "-c", TRAIN_MEMORY_SCRIPT, str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.splitlines()[-1]) <= 4.43
