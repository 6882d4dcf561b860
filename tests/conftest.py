import sys
from pathlib import Path

# make the sibling gradcheck helper importable from every test module
sys.path.insert(0, str(Path(__file__).parent))

from avrobust import pipeline  # noqa: E402

# one BLAS thread, as the CLI runs: the op threads carry the parallelism
_set_blas_threads = pipeline._openblas_thread_setter()
if _set_blas_threads is not None:
    _set_blas_threads(1)
