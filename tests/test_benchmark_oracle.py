"""The benchmark's output check calls the package's brute-force oracle in its own form.

``perfbench/check.py`` recomputes sampled rows with
``kraus_sum_output([DepolarizingChannel(q, d) ...], ControlSpec(n, probs),
DensityMatrix.basis_state(d, 0))``. A package change that breaks that call form
would make every benchmark op fail its check, so it is pinned here at N = 1, 2 and 3
against ``holevo_batch``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from check import brute_force  # noqa: E402
from workloads import Point  # noqa: E402

from qnswitch import holevo_batch  # noqa: E402

POINTS = [
    Point(1, 3, (0.4,), None),
    Point(2, 2, (0.3, 0.85), (0.3, 0.7)),
    Point(3, 2, (0.1, 0.5, 0.9), None),
    Point(3, 3, (0.0, 1.0, 0.25), (1.0, 0.0, 2.0, 0.5, 0.0, 0.5)),
]


@pytest.mark.parametrize("point", POINTS, ids=lambda p: f"n{p.n}-d{p.d}")
def test_brute_force_matches_holevo_batch(point):
    got = brute_force(point)
    want = holevo_batch(point.n, [point.d], [point.q], [point.probs()])
    assert np.abs(np.array(got) - np.ravel(want)).max() <= 1e-10
