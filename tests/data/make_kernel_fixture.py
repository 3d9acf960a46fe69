"""Write the kernel law fixture: samples of the ``advance`` kernel's observables.

    PYTHONPATH=src python tests/data/make_kernel_fixture.py

For each case (model, start) the script advances one block of N_PATHS paths
on [0, 1] to HORIZON and records the sorted hit times and hit values, every
path's crossing count and k_dagger, and the sorted landing positions of
crossings 1..CROSSINGS; a second block is advanced to t = 1 and its surviving
positions are recorded.  The case parameters are stored with the samples, so
``tests/test_kernel_law.py`` can redraw each case with the current kernel and
compare laws.  The committed fixture was written by the one-event-per-
iteration kernel that the multi-event kernel replaced; any later kernel must
reproduce its laws, not its draws.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from interval_avoid import Interval, ModelParams
from interval_avoid._rng import block_stream
from interval_avoid.engine import PathBlock, advance

OUT = Path(__file__).with_name("kernel_fixture.npz")
SEED = 20260901
N_PATHS = 4000
HORIZON = 20.0
CROSSINGS = 3
INTERVAL = Interval(0.0, 1.0)
# (sigma, lam, eta, drift, start): the default model from below, a
# jump-dominated model from above, a drifted model from below
CASES = [
    (2.0**0.5, 1.0, 1.0, 0.0, -1.0),
    (0.7, 3.0, 2.5, 0.0, 2.2),
    (1.0, 0.5, 1.5, 0.4, -0.5),
]


def sample_case(i: int, seed: int, n: int) -> dict:
    """The recorded observables of case ``i`` from the streams (seed, 2i), (seed, 2i+1)."""
    sigma, lam, eta, drift, start = CASES[i]
    model = ModelParams(sigma=sigma, lam=lam, eta=eta, drift=drift)
    pb = PathBlock.start(model, INTERVAL, start, n, block_stream(seed, 2 * i),
                         max_crossings=CROSSINGS)
    advance(pb, HORIZON)
    hit = ~pb.alive
    out = {
        "params": np.array([sigma, lam, eta, drift, start, HORIZON]),
        "hit_time": np.sort(pb.hit_time[hit]),
        "hit_value": np.sort(pb.hit_value[hit]),
        "n_cross": pb.n_cross.astype(np.int16),
        "k_dagger": pb.k_dagger.astype(np.int16),
    }
    for j in range(CROSSINGS):
        pos = pb.cross_pos[:, j]
        out[f"cross_{j + 1}"] = np.sort(pos[~np.isnan(pos)])
    pb1 = PathBlock.start(model, INTERVAL, start, n, block_stream(seed, 2 * i + 1))
    advance(pb1, 1.0)
    out["x1"] = np.sort(pb1.x[pb1.alive])
    out["n1"] = np.array([n])
    return out


def main() -> None:
    arrays = {}
    for i in range(len(CASES)):
        arrays.update({f"c{i}_{k}": v for k, v in sample_case(i, SEED, N_PATHS).items()})
    np.savez_compressed(OUT, **arrays)
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
