"""Print the bitwise digests of the desk models: the gate for output-preserving changes.

    python3 tests/digests.py

For desk LA, DR and DR_DA at depth 4 on one 8 x 64 copy batch over 64
token ids, in float32 and float64, prints the first 16 hex digits of
`reference.model_digest`: one sha256 over the loss, every gradient, a
greedy decode and the no_grad logits. A change that claims unchanged
outputs prints the same six digests as its parent. Float results depend
on the BLAS thread count, so OpenBLAS is pinned to one thread before
numpy loads.
"""

import os
import sys
from pathlib import Path

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from dreamer.config import desk_config  # noqa: E402
from dreamer.training import TaskSpec, make_batch  # noqa: E402
from reference import model_digest  # noqa: E402


def main():
    for variant in ("LA", "DR", "DR_DA"):
        cfg = desk_config(variant, 4)
        tokens, targets = make_batch(TaskSpec("copy", 64, 64), 0, 8)
        digests = [model_digest(cfg, dtype, tokens, targets)[:16]
                   for dtype in (np.float32, np.float64)]
        print(f"{variant:6s} float32 {digests[0]}  float64 {digests[1]}")


if __name__ == "__main__":
    main()
