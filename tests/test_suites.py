"""The transient5 suite's in-block reduction of its outer sample."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interval_avoid import Interval, ModelParams
from interval_avoid import engine
from interval_avoid._rng import block_stream
from interval_avoid.suites import _hat_moments, _hat_sums, _outer_block

IV = Interval(0.0, 1.0)
# transient5's grids at the default interval, with the pinned anchors a and b
GRID_BELOW = np.append(IV.a - np.arange(0.25, 6.01, 0.25)[::-1], IV.a)
GRID_ABOVE = np.insert(IV.b + np.arange(0.25, 10.01, 0.25), 0, IV.b)

_nodes = st.sampled_from(np.concatenate([GRID_BELOW, GRID_ABOVE]).tolist())
_positions = st.one_of(st.floats(IV.a - 12.0, IV.b + 20.0), _nodes)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(vals_below=st.lists(st.floats(0.0, 1.0), min_size=GRID_BELOW.size - 1,
                           max_size=GRID_BELOW.size - 1),
       vals_above=st.lists(st.floats(0.0, 1.0), min_size=GRID_ABOVE.size - 1,
                           max_size=GRID_ABOVE.size - 1),
       paths=st.lists(st.tuples(_positions, st.booleans()), min_size=1, max_size=200))
def test_hat_moments_match_direct_interpolation(vals_below, vals_above, paths):
    """Sum w and sum w^2 over the alive paths from the hat moments equal the
    sums of the interpolated values, with positions beyond both grid ends,
    inside the interval and on its boundary, and dead paths adding 0."""
    xs, alive = (np.array(v) for v in zip(*paths))
    vb, va = np.append(vals_below, 0.0), np.insert(vals_above, 0, 0.0)
    below = xs < IV.a
    w = np.where(below, np.interp(np.clip(xs, GRID_BELOW[0], GRID_BELOW[-1]), GRID_BELOW, vb),
                 np.interp(np.clip(xs, GRID_ABOVE[0], GRID_ABOVE[-1]), GRID_ABOVE, va))
    w = np.where(alive, w, 0.0)

    live = xs[alive]
    sum_b, sq_b = _hat_sums(_hat_moments(live[live < IV.a], GRID_BELOW), vb)
    sum_a, sq_a = _hat_sums(_hat_moments(live[live >= IV.a], GRID_ABOVE), va)
    assert sum_b + sum_a == pytest.approx(w.sum(), rel=1e-12, abs=1e-300)
    assert sq_b + sq_a == pytest.approx(np.sum(w * w), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("n", [1000, 8192])
def test_outer_block_returns_grid_sized_moments(n):
    """The outer sample's block result is sized by the grids, not by the
    block, and its node weights add up to the block's alive count, on the
    draws of the terminal sample's block."""
    model = ModelParams(drift=0.5)
    below, above = _outer_block(model, IV, 2.0, n, block_stream(14, 0), 1.0,
                                GRID_BELOW, GRID_ABOVE)
    assert below.shape == (3, GRID_BELOW.size) and above.shape == (3, GRID_ABOVE.size)
    _xs, alive = engine._terminal_block(model, IV, 2.0, n, block_stream(14, 0), [1.0], True)
    assert below[0].sum() + above[0].sum() == pytest.approx(np.count_nonzero(alive), rel=1e-12)
