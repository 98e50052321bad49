"""Loss bits must not depend on the BLAS thread count the process starts with.

OpenBLAS splits a GEMM differently for different thread counts, which moves
the low-order bits of the product; importing :mod:`repro` pins every
process to one BLAS thread (:mod:`repro.utils.blas`), so the per-step losses
of an epoch are the same bits whatever ``OPENBLAS_NUM_THREADS`` or the core
count says.  The multiproc backend's loss parity with the in-process
backend rests on this.
"""

import json
import os
import subprocess
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# Large enough that the weight-gradient GEMMs ((128 x ~10k) . (~10k x 64))
# are split across threads when OpenBLAS has more than one.
_EPOCH_SCRIPT = """
import json
from repro.core import RunConfig, SalientPP
from repro.graph.datasets import make_synthetic_dataset

ds = make_synthetic_dataset("blas", num_vertices=20000, avg_degree=10.0,
                            feature_dim=128, num_classes=8, train_frac=0.3,
                            seed=0)
cfg = RunConfig(num_machines=2, replication_factor=0.1, batch_size=512,
                hidden_dim=64, fanouts=(10, 5), seed=0)
report = SalientPP.build(ds, cfg).train_epoch(0).report
print(json.dumps([float(r.loss).hex() for r in report.records]))
"""


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _step_losses(blas_threads: int) -> list:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.path.join(_REPO, "src"))
    proc = subprocess.run([sys.executable, "-c", _EPOCH_SCRIPT],
                          capture_output=True, text=True, timeout=300,
                          env=env, cwd=_REPO)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_pins_one_blas_thread():
    import repro  # noqa: F401  (the import applies the pin)
    from repro.utils.blas import LIBRARY, blas_threads

    assert blas_threads() == (None if LIBRARY is None else 1)


@pytest.mark.skipif(_cores() < 2, reason="needs at least 2 cores: OpenBLAS caps "
                    "its pool at the core count, so with one core both runs "
                    "use one thread and the test cannot tell")
def test_step_losses_independent_of_blas_thread_env():
    one, two = _step_losses(1), _step_losses(2)
    assert len(one) > 1
    assert one == two
