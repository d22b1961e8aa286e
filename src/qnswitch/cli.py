"""Command-line front end: holevo, table1, sweep, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error
(a failed write to stdout too), 4 internal numerical failure (the eigensolver
did not converge or returned a negative spectrum). All numeric CSV output is
printed with 6 significant digits, so repeated runs with identical flags are byte-identical.

``holevo`` is a one-point grid through the pipeline of ``sweep``, with the
same checks: the channel count first, then the library's rules for d (an
integer in 2..32768) and q (in [0, 1]), one q list per channel, and the library's
control-vector rule (n! nonnegative entries whose exact sum is within 1e-12
of 1; they are then divided by that sum). The grid is evaluated in chunks of at
most SWEEP_CHUNK_ENTRIES // (n! (5 n! + d + 1)) points, the floats a point holds
inside ``holevo_batch`` (blocks, eigen stack and spectra), so one budget bounds
memory at every N and d: whole q rows by every control (one q row's controls in
parts if they alone are over), one ``holevo_batch`` call each, and one format call
per SWEEP_FORMAT_ROWS rows of it; an N = 2 plane takes one call per d, and
``table1`` one call per N over every d. No Python code runs once per row: a chunk's
q rows are a range of flat grid indices, unravelled into one index per q axis
(``--q-linked`` is one axis shared by every channel), each q value is formatted once
per axis, and numpy's object loop joins each row's q texts. ``sweep`` streams its
rows to a temporary file next to the output and renames it into place only when
every row is written, so a failed sweep leaves any previous output untouched;
``holevo`` prints nothing if it fails. A config file only fills the ``sweep`` flags
left unset, so it meets the flags' rules.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .channels import _check_dimension, _check_transparencies
from .errors import NumericalError
from .holevo import holevo_batch
from .switch import MAX_ASSEMBLE_CHANNELS, ControlSpec, _check_probabilities
from .symgroup import _check_channel_count
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

# Floats that one chunk of a grid holds inside holevo_batch: n!*(5*n! + d + 1) a point
# (the [2, n!, n!] blocks, the [3, n!, n!] eigen stack, and n!*(d + 1) spectra with
# `rest` tiled d - 1 times). A chunk is whole q rows by every control, or one q row's
# controls in parts. Memory stays flat at every N and d: 14 points at N = 5, d = 2,
# 355 at N = 4, d = 2, and a whole 41 x 41 x 3 N = 2 plane per d in one call.
SWEEP_CHUNK_ENTRIES = 1 << 20
# Rows per "%" call when a chunk is formatted: its Python strings and floats stay
# bounded however many rows the chunk has.
SWEEP_FORMAT_ROWS = 1 << 10


def _fmt(value: float) -> str:
    return format(float(value) + 0.0, ".6g")


def _parse_list(text: str, kind: type = float) -> list:
    """A comma-separated list of ``kind`` values; blank text is an empty list."""
    text = text.strip()
    if not text:
        return []
    try:
        return [kind(part) for part in text.split(",")]
    except ValueError as exc:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"not a comma-separated list of {noun}: {text!r}") from exc


def _resolve_probs(text: str, n: int) -> tuple[float, ...]:
    """'uniform', or n! probabilities passing ``_check_probabilities``, divided by their sum."""
    if text.strip() == "uniform":
        return ControlSpec.uniform(n).probs
    values = _parse_list(text)
    _check_probabilities(np.array([values]), n)
    total = math.fsum(values)
    return tuple(v / total for v in values)


# ---------------------------------------------------------------------------
# the grid pipeline, and holevo as its one-point grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A rectangular parameter grid, as checked by ``_grid_spec``.

    The q rows are the cartesian product of ``q_axes`` (the first axis
    slowest), and channel j reads axis ``channel_axis[j]``: one axis per
    channel, or with ``--q-linked`` one axis read by every channel.
    """

    n: int
    d_values: tuple[int, ...]
    q_axes: tuple[tuple[float, ...], ...]
    channel_axis: tuple[int, ...]
    p_vectors: tuple[tuple[float, ...], ...]


def _grid_spec(
    n: int, d_values: Sequence[int], q_axes: Sequence[Sequence[float]], linked: bool,
    p_texts: Iterable[str]
) -> SweepSpec:
    """The CLI's only input check: n, d, q, the q-list count, then each p text.

    n comes first, so no n!-long vector is built for an n the assembly
    cannot take. ``q_axes`` is one q list per channel, or one shared list if ``linked``.
    """
    _check_channel_count(n, MAX_ASSEMBLE_CHANNELS)
    d_values = tuple(_check_dimension(d) for d in d_values)
    q_axes = tuple(tuple(axis) for axis in q_axes)
    _check_transparencies(list(chain(*q_axes)))
    if not linked and len(q_axes) != n:
        raise ValueError(f"expected one q per channel (n={n}), got {len(q_axes)}")
    channel_axis = (0,) * n if linked else tuple(range(n))
    p_vectors = tuple(_resolve_probs(text, n) for text in p_texts)
    return SweepSpec(n, d_values, q_axes, channel_axis, p_vectors)


def _csv_chunks(spec: SweepSpec) -> Iterator[str]:
    """The CSV text: the header, then one string per chunk of rows, d slowest, then q, then p."""
    n = spec.n
    nf = math.factorial(n)
    qcols = ",".join(f"q{j}" for j in range(1, n + 1))
    pcols = ",".join(f"p{k}" for k in range(1, nf + 1))
    yield f"n,d,{qcols},{pcols},h_min,h_control,chi\n"
    shape = tuple(map(len, spec.q_axes))
    q_values = [np.array(axis, dtype=float) for axis in spec.q_axes]
    q_texts = [np.array([_fmt(v) for v in axis], dtype=object) for axis in spec.q_axes]
    q_count = math.prod(shape) if spec.p_vectors else 0  # with no control, no batch runs
    probs = np.array(spec.p_vectors)
    p_texts = np.array([",".join(map(_fmt, p)) for p in spec.p_vectors], dtype=object)
    for d in spec.d_values:
        points = max(1, SWEEP_CHUNK_ENTRIES // (nf * (5 * nf + d + 1)))
        p_step = min(len(p_texts), points) or 1
        q_step = points // p_step
        # "%.6g" formats a float exactly as _fmt does; adding 0.0 turns
        # -0.0 into 0.0 there and here.
        row = f"{n},{d},%s,%s,%.6g,%.6g,%.6g\n"
        for start in range(0, q_count, q_step):
            index = np.unravel_index(np.arange(start, min(start + q_step, q_count)), shape)
            q = np.stack([q_values[a][index[a]] for a in spec.channel_axis], axis=1)
            # One q text per row, joined by numpy's object loop: a %s slot per q
            # value made the heap grow over repeated sweeps in one process.
            q_text = q_texts[0][index[0]]
            for a in spec.channel_axis[1:]:
                q_text = q_text + "," + q_texts[a][index[a]]
            for lo in range(0, len(p_texts), p_step):
                values = np.stack(holevo_batch(n, (d,), q, probs[lo : lo + p_step])) + 0.0
                values = values.reshape(3, -1)
                controls = p_texts[lo : lo + p_step]
                q_rows, p_rows = q_text.repeat(len(controls)), np.tile(controls, len(q))
                for first in range(0, len(q_rows), SWEEP_FORMAT_ROWS):
                    block = slice(first, first + SWEEP_FORMAT_ROWS)
                    fields = [None] * (5 * len(q_rows[block]))
                    fields[0::5] = q_rows[block].tolist()
                    fields[1::5] = p_rows[block].tolist()
                    fields[2::5], fields[3::5], fields[4::5] = values[:, block].tolist()
                    yield (row * (len(fields) // 5)) % tuple(fields)


def cmd_holevo(args: argparse.Namespace) -> int:
    q = _parse_list(args.q)
    spec = _grid_spec(args.n, (args.d,), [(v,) for v in q], False, [args.p])
    # join() consumes every row before print() runs: a failed point prints nothing.
    print("".join(_csv_chunks(spec)), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def cmd_table1(args: argparse.Namespace) -> int:
    ds = range(2, _check_dimension(args.d_max) + 1)
    chi2 = holevo_batch(2, ds, [(0.0, 0.0)], [(0.5, 0.5)])[2].ravel()
    chi3 = holevo_batch(3, ds, [(0.0, 0.0, 0.0)], [(1.0 / 6,) * 6])[2].ravel()
    ratios = chi3 / chi2
    print("d,chi_q2s,chi_q3s,ratio")
    for d, x2, x3, ratio in zip(ds, chi2, chi3, ratios):
        print(f"{d},{_fmt(x2)},{_fmt(x3)},{_fmt(ratio)}")
    print(f"ratio_mean,,,{_fmt(ratios.mean())}")
    print(f"ratio_stddev,,,{_fmt(ratios.std(ddof=1) if ratios.size > 1 else 0.0)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
                key, _, value = (part.strip() for part in line.partition("="))
                if key in values:
                    raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
                values[key] = value
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


def _fill_from_config(args: argparse.Namespace) -> None:
    """Set each sweep flag left unset from the config key that names it.

    The keys are n, d, q1..qN (``--q``, in order), q_linked, p and output (``--out``);
    the file's q keys count only when no q flag is set.
    """
    config = _read_config(args.config)
    q_keys = [f"q{j}" for j in range(1, len(config) + 1) if f"q{j}" in config]
    unknown = set(config) - {"n", "d", "q_linked", "p", "output", *q_keys}
    if unknown:
        raise ValueError(f"unknown config key {min(unknown)!r} (n, d, q1..qN, q_linked, p, output)")
    if q_keys and "q_linked" in config:
        raise ValueError("config keys q1..qN and q_linked are mutually exclusive")
    if q_keys != [f"q{j}" for j in range(1, len(q_keys) + 1)]:
        raise ValueError(f"config q keys must be q1..qN, got {', '.join(q_keys)}")
    if args.n is None and "n" in config:
        try:
            args.n = int(config["n"])
        except ValueError:
            raise ValueError(f"config key 'n' must be an integer, got {config['n']!r}") from None
    if args.q is None and args.q_linked is None:
        args.q = [config[key] for key in q_keys] or None
        args.q_linked = config.get("q_linked")
    args.d = config.get("d") if args.d is None else args.d
    args.p = args.p or ([config["p"]] if "p" in config else None)
    args.out = config.get("output") if args.out is None else args.out


def _write_atomically(path: str, chunks: Iterable[str]) -> None:
    """Stream text chunks into a temporary file beside ``path``, then rename it.

    On any failure, even one raised while ``chunks`` is produced, the
    temporary file is removed and ``path`` keeps its old contents.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    # O_EXCL never opens an existing file; the kernel applies the umask to 0o666, as open() does.
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.config:
        _fill_from_config(args)
    if args.n is None:
        raise ValueError("the number of channels is required (--n or config key 'n')")
    if args.d is None:
        raise ValueError("dimension list is required (--d or config key 'd')")
    if args.q and args.q_linked is not None:
        raise ValueError("--q and --q-linked are mutually exclusive")
    if args.q is None and args.q_linked is None:
        raise ValueError("a q grid is required (--q per channel, --q-linked, or config)")
    linked = args.q_linked is not None
    q_axes = [_parse_list(text) for text in ([args.q_linked] if linked else args.q)]
    p_texts = [vec for chunk in args.p or ["uniform"] for vec in chunk.split(";") if vec.strip()]
    spec = _grid_spec(args.n, _parse_list(args.d, int), q_axes, linked, p_texts)
    if not args.out:
        raise ValueError("an output path is required (--out or config key 'output')")
    try:
        _write_atomically(args.out, _csv_chunks(spec))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(seed=args.seed)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failures += 0 if res.passed else 1
        print(f"{status}  {res.name}: {res.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse gets a new namespace."""
    parser = argparse.ArgumentParser(
        prog="qnswitch",
        description=(
            "Holevo information of N depolarizing channels applied in a "
            "coherently controlled superposition of causal orders."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    holevo = sub.add_parser("holevo", help="one evaluation, CSV row on stdout")
    holevo.add_argument("--n", type=int, required=True, help="number of channels")
    holevo.add_argument("--d", type=int, required=True, help="target dimension")
    holevo.add_argument("--q", required=True, help="comma list of transparencies q_j")
    holevo.add_argument(
        "--p", default="uniform", help="'uniform' or comma list of n! order probabilities"
    )
    holevo.set_defaults(func=cmd_holevo)

    table1 = sub.add_parser(
        "table1", help="chi for 2 and 3 fully depolarizing channels over d"
    )
    table1.add_argument("--d-max", type=int, default=10, help="largest dimension")
    table1.set_defaults(func=cmd_table1)

    sweep = sub.add_parser("sweep", help="grid sweep, CSV written to a file")
    sweep.add_argument("--config", help="key = value file; flags override it")
    sweep.add_argument("--n", type=int, help="number of channels")
    sweep.add_argument("--d", help="comma list of dimensions")
    sweep.add_argument("--q", action="append", help="per-channel grid; repeat once per channel")
    sweep.add_argument("--q-linked", help="shared grid with q1 = ... = qN")
    sweep.add_argument(
        "--p", action="append", help="'uniform' or probability vectors, ';'-separated in one flag"
    )
    sweep.add_argument("--out", help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="run the built-in verification suites")
    verify.add_argument("--seed", type=int, default=42, help="seed for randomized checks")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"error: internal numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # stdout closed or full
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
