"""Regenerate the two frozen acoustic systems the decode workloads load.

    python3 bench/make_checkpoints.py

- `am_trained.json`: learnable front-end + `small_model_config`, trained with
  the recipe of acceptance criterion 5 (clean task, 500 utterances, 8 epochs,
  lr 0.3, batch 4, seed 0). It must reach test WER <= 5% on the clean task,
  or the script fails.
- `am_untrained.json`: the same system at its seed-0 initialisation
  (`train_acoustic` with zero epochs), whose flat emissions keep the beam full.

Both are written to bench/checkpoints/ with their sha256 in SHA256SUMS. The
benchmark refuses to run when a checkpoint no longer matches its sum. Takes
about five minutes on two cores.
"""

from __future__ import annotations

import shutil
import sys
import time

import bootstrap

bootstrap.import_convspeech()

from convspeech import synth  # noqa: E402
from convspeech.decoder import build_trie, items_wer  # noqa: E402
from convspeech.frontend import FrontendConfig  # noqa: E402
from convspeech.pipeline import TrainSettings, eval_items, train_acoustic  # noqa: E402

import task  # noqa: E402

DATA_SEED = 0
WER_LIMIT = 5.0


def main() -> int:
    work = bootstrap.BENCH_DIR / "out" / "make_checkpoints"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifests = synth.synthesize_dataset(
            task.SPEC, work, {"train": 500, "test": 50}, seed=DATA_SEED,
            transition_bias=task.BIAS)
        common = dict(lexicon=task.SPEC.lexicon, alphabet=task.SPEC.alphabet,
                      frontend_kind="learnable",
                      frontend_config=FrontendConfig(num_filters=8))
        t0 = time.perf_counter()
        trained, history = train_acoustic(
            manifests["train"], settings=TrainSettings(epochs=8, lr=0.3, batch_size=4, seed=0),
            checkpoint_path=bootstrap.CHECKPOINT_DIR / task.TRAINED, **common)
        print(f"trained 500 x 8 epochs in {time.perf_counter() - t0:.0f} s; "
              f"train loss {history[0]['train_loss']:.2f} -> {history[-1]['train_loss']:.2f}")
        train_acoustic(manifests["train"], settings=TrainSettings(epochs=0, seed=0),
                       checkpoint_path=bootstrap.CHECKPOINT_DIR / task.UNTRAINED, **common)

        lm = task.bigram(task.corpus(1, 2000))
        trie = build_trie(task.SPEC.lexicon, task.SPEC.alphabet)
        wer = items_wer(eval_items(manifests["test"], trained), trie, lm, task.DECODE_OPTS)
        print(f"trained system: test WER {wer:.2f}% on 50 clean utterances")
        if wer > WER_LIMIT:
            print(f"test WER above {WER_LIMIT}%: checkpoints not accepted", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [f"{task.sha256(bootstrap.CHECKPOINT_DIR / name)}  {name}"
             for name in (task.TRAINED, task.UNTRAINED)]
    task.SUMS.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
