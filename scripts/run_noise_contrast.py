#!/usr/bin/env python3
"""Learnable vs mel front-end on the noisy condition, paired over seeds.

Trains both front-ends on SNR-limited audio with identical budgets and
reports per-seed test WER plus the median paired difference.
"""

import argparse
import io
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from convspeech import synth
from convspeech.decoder import DecoderOptions, build_trie, items_wer_and_failures
from convspeech.frontend import FrontendConfig
from convspeech.lm import fit_bigram_arpa, load_arpa
from convspeech.pipeline import TrainSettings, eval_items, train_acoustic, write_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="runs/noise")
    parser.add_argument("--train", type=int, default=150)
    parser.add_argument("--test", type=int, default=40)
    parser.add_argument("--snr-db", type=float, default=5.0)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--seeds", default="0,1,2")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = synth.noisy_variant(synth.SyntheticTaskSpec(), args.snr_db)
    bias = synth.markov_bias(spec)
    manifests = synth.synthesize_dataset(
        spec, out / "data", {"train": args.train, "test": args.test},
        seed=100, transition_bias=bias,
    )
    corpus = synth.synthesize_corpus(spec, 1500, seed=101, transition_bias=bias)
    lm = load_arpa(io.StringIO(fit_bigram_arpa(corpus)))
    trie = build_trie(spec.lexicon, spec.alphabet)
    opts = DecoderOptions(alpha=1.0, beta=1.0, beam_size=2500, beam_score=26.0)

    seeds = [int(s) for s in args.seeds.split(",")]
    rows = []
    wers = {}
    for kind in ("learnable", "mel"):
        for seed in seeds:
            system, _ = train_acoustic(
                manifests["train"], spec.lexicon, spec.alphabet,
                frontend_kind=kind, frontend_config=FrontendConfig(num_filters=8),
                settings=TrainSettings(epochs=args.epochs, lr=0.3, batch_size=4, seed=seed),
            )
            w, failures = items_wer_and_failures(eval_items(manifests["test"], system),
                                                 trie, lm, opts)
            wers[(kind, seed)] = w
            rows.append({"frontend": kind, "seed": seed, "wer": w, "failures": failures})
            print(f"{kind:10s} seed {seed}: test WER {w:.2f}% ({failures} failed decodes)")
    diffs = [wers[("learnable", s)] - wers[("mel", s)] for s in seeds]
    print(f"median paired difference (learnable - mel): {statistics.median(diffs):+.2f}")
    write_csv(out / "noise_contrast.csv", rows)


if __name__ == "__main__":
    main()
