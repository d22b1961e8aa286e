"""Byte-identity gate: ``sweep`` and ``holevo`` output against frozen fixtures.

Each sweep fixture under ``tests/golden`` is the file ``qnswitch sweep``
wrote for the arguments below with the per-point evaluation path, before
sweeps were evaluated in batches. The grids cover N = 1, 3, 4 and 5
including the degenerate points q in {0, 1} and definite or partly zero
controls, plus N = 2 grids with interior points only: at an N = 2 point with
some q_j = 1 or a definite control the hand-expanded closed form printed
exact zeros where the contraction table leaves rounding residues of order
1e-16.

Each ``holevo_*`` fixture is what ``qnswitch holevo`` printed for the
arguments below while it still evaluated its point apart from the sweep
pipeline. They cover N = 1..5, q in {0, 1} and interior values, uniform,
definite and partly zero controls, and a 14-digit Dirichlet draw whose sum
is off by 7e-15, so its entries are divided by their exact sum.

The ``table1`` fixtures are what ``qnswitch table1`` printed by default and
with ``--d-max 15`` before each contraction became a read of the
contraction table.

The ``verify_seed*`` fixtures are what ``qnswitch verify`` printed for seeds 42
and 7 while its oracles still took per-point channel and control objects; their
deviations are rounding residues, so they follow the BLAS kernel too.

The ``GRID_CASES`` have no fixture: their reference is the CSV written one
point at a time, each q tuple of the grid by each control as its own
1 x 1 x 1 grid of ``holevo_batch``.
"""

import math
from itertools import product
from pathlib import Path

import pytest

import qnswitch.cli as cli
from qnswitch.cli import EXIT_OK, main
from qnswitch.holevo import holevo_batch
from qnswitch.switch import ControlSpec
from blas_core import openblas_core

GOLDEN = Path(__file__).resolve().parent / "golden"
# Every byte check's failure message: rounding residues in the files follow the BLAS kernel.
KERNEL = f"bytes differ under the OpenBLAS {openblas_core()} kernel"

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

# A Dirichlet draw (random.Random(1), 24 unit gamma variates) at 14 digits.
DIRICHLET_24 = (
    "0.0062579741245047,0.081543298135897,0.062582269061585,0.01277103563067,"
    "0.029667964327306,0.025888369793149,0.045729144624034,0.067423194088625,"
    "0.0042746389955463,0.0012472062408038,0.07834695017026,0.024590427770353,"
    "0.062308739623104,9.143688469857e-05,0.025566255594603,0.055448345986254,"
    "0.011265855541361,0.12600671202068,0.1004877998191,0.001347418003212,"
    "0.0011178833046952,0.033811811949459,0.12140830024438,0.020816968065726"
)

HOLEVO_CASES = {
    "holevo_n1_opaque": ["--n", "1", "--d", "2", "--q", "0"],
    "holevo_n1_interior": ["--n", "1", "--d", "3", "--q", "0.5"],
    "holevo_n2_erased": ["--n", "2", "--d", "2", "--q", "0,0", "--p", "uniform"],
    "holevo_n2_transparent": ["--n", "2", "--d", "2", "--q", "1,1"],
    "holevo_n2_skewed": ["--n", "2", "--d", "5", "--q", "0.3,0.8", "--p", "0.25,0.75"],
    "holevo_n3_uniform": ["--n", "3", "--d", "2", "--q", "0,0,0"],
    "holevo_n3_definite": ["--n", "3", "--d", "3", "--q", "0.2,1,0.6", "--p", "0,0,1,0,0,0"],
    "holevo_n3_partly_zero": [
        "--n", "3", "--d", "2", "--q", "0.1,0.5,0.9", "--p", "0.5,0,0.25,0,0.25,0",
    ],
    "holevo_n4_dirichlet": [
        "--n", "4", "--d", "2", "--q", "0.15,0.35,0.55,0.75", "--p", DIRICHLET_24,
    ],
    "holevo_n4_edges": [
        "--n", "4", "--d", "4", "--q", "0,1,0.45,1",
        "--p", "0.5" + ",0" * 11 + ",0.5" + ",0" * 11,
    ],
    "holevo_n5_uniform": ["--n", "5", "--d", "2", "--q", "0,0.5,1,0.25,0.75"],
    "holevo_n5_definite": [
        "--n", "5", "--d", "3", "--q", "0.6,0.6,0.6,0.6,0.6",
        "--p", ",".join(["0"] * 6 + ["1"] + ["0"] * 113),
    ],
}


TABLE1_CASES = {"table1": [], "table1_d15": ["--d-max", "15"]}
VERIFY_SEEDS = [42, 7]


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_golden_bytes(name, tmp_path):
    out_path = tmp_path / f"{name}.csv"
    assert main(["sweep", *CASES[name], "--out", str(out_path)]) == EXIT_OK
    assert out_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes(), KERNEL


@pytest.mark.parametrize(
    "constant,value",
    [
        ("SWEEP_CHUNK_ENTRIES", 1),
        ("SWEEP_CHUNK_ENTRIES", 1 << 30),
        ("SWEEP_FORMAT_ROWS", 1),
        ("SWEEP_FORMAT_ROWS", 1 << 30),
    ],
    ids=["1", "1073741824", "format-rows-1", "format-rows-1073741824"],
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_bytes_do_not_depend_on_chunk_size(name, constant, value, tmp_path, monkeypatch):
    # One point per batch, then the whole grid of each d in one batch; then
    # the default chunks formatted one row per "%" call, then whole.
    monkeypatch.setattr(cli, constant, value)
    out_path = tmp_path / f"{name}.csv"
    assert main(["sweep", *CASES[name], "--out", str(out_path)]) == EXIT_OK
    assert out_path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes(), KERNEL


def test_sweep_bytes_when_one_q_row_spans_batches(tmp_path, monkeypatch):
    # n3_edges has 4 controls and n!(5 n! + d + 1) = 198 or 204 entries a
    # point, so 600 entries fit 3 points at d = 2 and 2 at d = 3: each q row's
    # controls are split over two batches, unevenly at d = 2.
    real = cli.holevo_batch
    shapes = set()

    def recording(n, ds, q, probs):
        shapes.add((*ds, len(q), len(probs)))
        return real(n, ds, q, probs)

    monkeypatch.setattr(cli, "SWEEP_CHUNK_ENTRIES", 600)
    monkeypatch.setattr(cli, "holevo_batch", recording)
    out_path = tmp_path / "n3_edges.csv"
    assert main(["sweep", *CASES["n3_edges"], "--out", str(out_path)]) == EXIT_OK
    assert shapes == {(2, 1, 3), (2, 1, 1), (3, 1, 2)}
    assert out_path.read_bytes() == (GOLDEN / "n3_edges.csv").read_bytes(), KERNEL


@pytest.mark.parametrize("name", sorted(HOLEVO_CASES))
def test_holevo_matches_golden_bytes(name, capsys):
    assert main(["holevo", *HOLEVO_CASES[name]]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"{name}.csv").read_bytes(), KERNEL


@pytest.mark.parametrize("name", sorted(TABLE1_CASES))
def test_table1_matches_golden_bytes(name, capsys):
    assert main(["table1", *TABLE1_CASES[name]]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"{name}.csv").read_bytes(), KERNEL


@pytest.mark.parametrize("seed", VERIFY_SEEDS)
def test_verify_matches_golden_bytes(seed, capsys):
    assert main(["verify", "--seed", str(seed)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"verify_seed{seed}.txt").read_bytes(), KERNEL


# (n, dimensions, per-channel q lists or None, linked q list or None, controls).
# "one_point" is the grid that holevo evaluates: every axis has length 1.
GRID_CASES = {
    "one_point": (4, [2], [[0.1], [0.2], [0.3], [1.0]], None, ["uniform"]),
    "length_one_axes": (2, [2, 5], [[0.25], [0.75]], None, ["uniform", "0.3,0.7", "1,0"]),
    "linked": (3, [2, 3], None, [0.0, 0.35, 1.0], ["uniform", "0,1,0,0,0,0"]),
    "linked_one_channel": (1, [2, 7], None, [0.0, 0.5, 1.0], ["uniform"]),
    "per_channel": (
        3, [2, 3], [[0.0, 0.5, 1.0], [0.2, 1.0], [0.7]], None,
        ["uniform", "1,0,0,0,0,0", "0.5,0,0.5,0,0,0"],
    ),
    "empty_q_list": (2, [2], [[0.5], []], None, ["uniform"]),
    "empty_linked": (2, [2], None, [], ["uniform"]),
    "empty_p": (2, [2, 3], [[0.5], [0.5]], None, []),
}


def _fmt(value):
    return format(float(value) + 0.0, ".6g")


def _control(n, text):
    if text == "uniform":
        return ControlSpec.uniform(n).probs
    values = [float(v) for v in text.split(",")]
    return tuple(v / math.fsum(values) for v in values)


def per_point_csv(n, dims, axes, linked, controls):
    """The sweep's CSV, one ``holevo_batch`` call per row: d slowest, then q, then p."""
    nf = math.factorial(n)
    header = ["n", "d", *(f"q{j}" for j in range(1, n + 1)), *(f"p{k}" for k in range(1, nf + 1))]
    lines = [",".join(header + ["h_min", "h_control", "chi"])]
    q_rows = list(product(*axes)) if linked is None else [(v,) * n for v in linked]
    probs = [_control(n, text) for text in controls]
    for d in dims:
        for q in q_rows:
            for p in probs:
                entropies = tuple(float(v[0, 0, 0]) for v in holevo_batch(n, [d], [q], [p]))
                lines.append(",".join([str(n), str(d), *map(_fmt, q + p + entropies)]))
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("entries", [1, 36, 600, 4096])
@pytest.mark.parametrize("name", sorted(GRID_CASES))
def test_sweep_bytes_are_the_per_point_rows(name, entries, tmp_path, monkeypatch):
    # 1: one point per batch; 36: one point a batch from N = 2 on, 4 and 2 at
    # N = 1 (d = 2 and 7); 600: one q row's controls split over batches at
    # N = 3 (3 points a batch at d = 2, 2 at d = 3); 4096: each grid here in
    # one batch per d, as with the default.
    n, dims, axes, linked, controls = GRID_CASES[name]
    argv = ["sweep", "--n", str(n), "--d", ",".join(map(str, dims))]
    if linked is None:
        for axis in axes:
            argv += ["--q", ",".join(map(str, axis))]
    else:
        argv += ["--q-linked", ",".join(map(str, linked))]
    argv += ["--p", ";".join(controls)]
    monkeypatch.setattr(cli, "SWEEP_CHUNK_ENTRIES", entries)
    out_path = tmp_path / f"{name}.csv"
    assert main([*argv, "--out", str(out_path)]) == EXIT_OK
    assert out_path.read_text() == per_point_csv(n, dims, axes, linked, controls), KERNEL

