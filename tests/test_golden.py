"""Byte-identity gate: ``sweep`` output against frozen CSV fixtures.

Each fixture under ``tests/golden`` is the file ``qnswitch sweep`` wrote for
the arguments below with the per-point evaluation path, before sweeps were
evaluated in batches. The grids cover N = 1, 3, 4 and 5 including the
degenerate points q in {0, 1} and definite or partly zero controls, plus
N = 2 grids with interior points only: at an N = 2 point with some q_j = 1
or a definite control the hand-expanded closed form printed exact zeros
where the contraction table leaves rounding residues of order 1e-16.
"""

from pathlib import Path

import pytest

from qnswitch.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"

EDGE_Q = "0,0.3,1"

CASES = {
    "n1_edges": ["--n", "1", "--d", "2,3,7", "--q-linked", "0,0.25,0.5,0.9,1"],
    "n2_interior": [
        "--n", "2", "--d", "2,3,5",
        "--q", "0.05,0.3,0.62,0.97", "--q", "0.1,0.45,0.8",
        "--p", "uniform;0.3,0.7;0.85,0.15",
    ],
    "n2_interior_linked": [
        "--n", "2", "--d", "2,4", "--q-linked", "0.01,0.2,0.5,0.75,0.99",
        "--p", "uniform;0.6,0.4",
    ],
    "n3_edges": [
        "--n", "3", "--d", "2,3",
        "--q", EDGE_Q, "--q", "0,1", "--q", "0.55,1",
        "--p", "uniform;1,0,0,0,0,0;0.5,0,0.5,0,0,0;0.1,0.2,0.3,0.15,0.15,0.1",
    ],
    "n4_edges": [
        "--n", "4", "--d", "2,3",
        "--q", EDGE_Q, "--q", "0,1", "--q", "0.4", "--q", "0.7,1",
        "--p", "uniform;1" + ",0" * 23 + ";0.5" + ",0" * 11 + ",0.5" + ",0" * 11,
    ],
    "n5_edges": [
        "--n", "5", "--d", "2", "--q-linked", "0,0.5,1",
        "--p", "uniform;1" + ",0" * 119,
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_golden_bytes(name, tmp_path):
    out_path = tmp_path / f"{name}.csv"
    assert main(["sweep", *CASES[name], "--out", str(out_path)]) == EXIT_OK
    assert out_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
