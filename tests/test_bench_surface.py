"""The benchmark's import surface: every name bench/ imports or patches exists.

The benchmark harness lives outside the package and reaches into it by name
(`bench/tracing.py` wraps module functions and methods in place). This test
imports the harness modules and installs and removes the tracer, running no
workload, so a refactor that drops one of those names fails here rather than
in a benchmark run.
"""

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
