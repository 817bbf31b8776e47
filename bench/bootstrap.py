"""Locate the convspeech sources next to this directory and pin BLAS threads.

Import this module before numpy. It fixes OpenBLAS to one thread, so that
the benchmark process runs no worker threads of its own. `import_convspeech`
puts the checkout's `src/` first on `sys.path`, so the benchmark always
measures the code it was shipped with, never an installed copy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHECKPOINT_DIR = BENCH_DIR / "checkpoints"


class SourceMissing(RuntimeError):
    """The convspeech sources are not where the benchmark expects them."""


def import_convspeech():
    """Import convspeech from ROOT/src; refuse any other copy."""
    package = SRC / "convspeech" / "__init__.py"
    if not package.is_file():
        raise SourceMissing(f"{package} not found: run the benchmark from a full checkout")
    sys.path.insert(0, str(SRC))
    import convspeech

    if Path(convspeech.__file__).resolve() != package.resolve():
        raise SourceMissing(f"imported convspeech from {convspeech.__file__}, not {package}")
    return convspeech


def _git_commit() -> str:
    """HEAD commit read from .git without starting a process; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas():
    """(config string, thread count) of the OpenBLAS numpy loaded, or Nones."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(libs[0])
    config = threads = None
    for name in ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            config = fn().decode()
            break
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = int(fn())
            break
    return config, threads


def environment_record(seed: int) -> dict:
    import numpy as np

    config, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "openblas": config,
        "openblas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "seed": seed,
    }
