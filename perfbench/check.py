"""Output checks behind ``fail_frac``, run after the timed loop.

Every row an op prints is parsed: the header, the echoed inputs, finite
entropies, 0 <= chi <= log2 d and chi = log2 d + h_control - h_min, each at
the CSV's printed precision (6 significant digits). A seeded sample of rows
is then recomputed from the brute-force generalized-Kraus sum
``qnswitch.switch.kraus_sum_output``, which multiplies Kraus operators
directly and uses none of the contraction, assembly or closed-form code
that produces the rows: for
rho = |0><0| the output entropy is H_min (every pure input gives the same
spectrum, and the minimum is reached on pure inputs), and the entropy of the
control partial trace is H(control). ``verify`` must print PASS on every
line, and ``table1`` must reproduce the published chi table.

``bias`` is added to every reference value. The harness self-test sets it
to show that the check fails when the reference is wrong.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Op, Point

# chi in bits for two and three fully depolarizing channels under uniform
# control, d = 2..10, as published: 4 decimals, truncated.
PUBLISHED_CHI = {
    2: (0.0487, 0.0980),
    3: (0.0183, 0.0339),
    4: (0.0085, 0.0159),
    5: (0.0046, 0.0087),
    6: (0.0027, 0.0053),
    7: (0.0018, 0.0034),
    8: (0.0012, 0.0023),
    9: (0.0008, 0.0016),
    10: (0.0006, 0.0012),
}
PUBLISHED_STEP = 1e-4
RATIO_MEAN_RANGE = (1.86, 2.00)
SLACK = 1e-12


class CheckFailed(Exception):
    pass


def _fmt(value: float) -> str:
    return format(float(value) + 0.0, ".6g")


def _tol(text: str) -> float:
    """Half a unit in the last printed digit of a %.6g value."""
    value = abs(float(text))
    if value == 0.0:
        return SLACK
    return 0.5 * 10.0 ** (math.floor(math.log10(value)) - 5) + SLACK


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(text: str, reference: float, what: str) -> None:
    _expect(
        abs(float(text) - reference) <= _tol(text),
        f"{what}: printed {text}, reference {reference!r}",
    )


def header(n: int) -> str:
    nf = math.factorial(n)
    cols = [f"q{j}" for j in range(1, n + 1)] + [f"p{k}" for k in range(1, nf + 1)]
    return ",".join(["n", "d"] + cols + ["h_min", "h_control", "chi"])


def check_rows(text: str, points: tuple[Point, ...]) -> list[list[str]]:
    """Parse a holevo/sweep CSV and check each row against its grid point."""
    lines = text.split("\n")
    _expect(lines[-1] == "", "output does not end with a newline")
    lines = lines[:-1]
    _expect(len(lines) == len(points) + 1, f"{len(lines) - 1} rows for {len(points)} points")
    _expect(lines[0] == header(points[0].n), f"bad header {lines[0][:60]!r}")
    rows = []
    for index, (line, point) in enumerate(zip(lines[1:], points)):
        fields = line.split(",")
        echo = [str(point.n), str(point.d)]
        echo += [_fmt(v) for v in point.q] + [_fmt(v) for v in point.probs()]
        _expect(fields[:-3] == echo, f"row {index}: inputs {fields[:-3]} != {echo}")
        h_min, h_control, chi = fields[-3:]
        values = [float(v) for v in fields[-3:]]
        _expect(all(math.isfinite(v) for v in values), f"row {index}: non-finite value")
        cap = math.log2(point.d)
        _expect(
            -_tol(chi) <= values[2] <= cap + _tol(chi), f"row {index}: chi {chi} out of range"
        )
        _expect(
            abs(values[2] - (cap + values[1] - values[0]))
            <= _tol(chi) + _tol(h_control) + _tol(h_min),
            f"row {index}: chi != log2 d + h_control - h_min",
        )
        rows.append(fields)
    return rows


def _entropy(matrix: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(matrix)
    vals = vals[vals > 0.0]
    return float(-(vals * np.log2(vals)).sum())


def brute_force(point: Point) -> tuple[float, float, float]:
    """(h_min, h_control, chi) from the generalized-Kraus sum."""
    from qnswitch.channels import DensityMatrix, DepolarizingChannel
    from qnswitch.switch import ControlSpec, kraus_sum_output

    n, d = point.n, point.d
    nf = math.factorial(n)
    out = kraus_sum_output(
        [DepolarizingChannel(q, d) for q in point.q],
        ControlSpec(n, point.probs()),
        DensityMatrix.basis_state(d, 0),
    )
    marginal = np.einsum("kaja->kj", out.reshape(nf, d, nf, d))
    h_min = _entropy(out)
    h_control = _entropy(marginal)
    return h_min, h_control, math.log2(d) + h_control - h_min


def check_against_oracle(fields: list[str], point: Point, bias: float) -> None:
    for text, ref, what in zip(fields[-3:], brute_force(point), ("h_min", "h_control", "chi")):
        _close(text, ref + bias, f"{what} vs brute force at {point}")


def check_verify(text: str) -> None:
    lines = text.rstrip("\n").split("\n")
    checks, summary = lines[:-1], lines[-1]
    _expect(bool(checks), "verify printed no checks")
    for line in checks:
        _expect(line.startswith("PASS "), f"verify: {line}")
    _expect(summary == f"{len(checks)}/{len(checks)} checks passed", f"verify: {summary}")


def check_table1(text: str, bias: float, oracle: bool) -> None:
    lines = text.rstrip("\n").split("\n")
    _expect(lines[0] == "d,chi_q2s,chi_q3s,ratio", f"table1 header {lines[0]!r}")
    body = [line.split(",") for line in lines[1 : 1 + len(PUBLISHED_CHI)]]
    _expect([int(r[0]) for r in body] == list(PUBLISHED_CHI), "table1: d column")
    for d, chi2, chi3, ratio in body:
        for text_value, published in zip((chi2, chi3), PUBLISHED_CHI[int(d)]):
            excess = float(text_value) - (published + bias)
            _expect(
                -SLACK <= excess < PUBLISHED_STEP,
                f"table1 d={d}: {text_value} does not truncate to {published + bias}",
            )
        # The ratio is printed from unrounded chi, so widen by their rounding.
        x2, x3 = float(chi2), float(chi3)
        slack = _tol(ratio) + (x3 / x2) * (_tol(chi2) / x2 + _tol(chi3) / x3)
        _expect(abs(float(ratio) - x3 / x2) <= slack, f"table1 d={d}: ratio {ratio}")
    low, high = RATIO_MEAN_RANGE
    tail = lines[1 + len(PUBLISHED_CHI) :]
    _expect(len(tail) == 2 and tail[0].startswith("ratio_mean,,,"), "table1: summary rows")
    _expect(low <= float(tail[0].split(",")[-1]) <= high, f"table1: {tail[0]}")
    if oracle:
        for n, text_value in ((2, body[0][1]), (3, body[0][2])):
            chi = brute_force(Point(n, 2, (0.0,) * n, None))[2]
            _close(text_value, chi + bias, f"table1 d=2 n={n} chi vs brute force")


def check_op(op: Op, outputs: list[str], csv_text: str | None, sample: int | None,
             bias: float) -> None:
    """Raise CheckFailed unless the op's outputs are right.

    ``sample`` is the index of the row to recompute by brute force, or None.
    """
    commands = [argv[0] for argv in op.commands]
    if commands == ["verify", "table1"]:
        check_verify(outputs[0])
        check_table1(outputs[1], bias, sample is not None)
        return
    text = csv_text if commands == ["sweep"] else outputs[0]
    _expect(text is not None, "no CSV output")
    rows = check_rows(text, op.points)
    if sample is not None:
        check_against_oracle(rows[sample], op.points[sample], bias)
