import contextlib
import io
import math
import os
import re
import stat
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qnswitch.cli import (
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    main,
)
from qnswitch.errors import NumericalError
from qnswitch.switch import ControlSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestHolevoCommand:
    def test_erased_qubit_pair(self, capsys):
        code, out, _ = run(
            capsys, "holevo", "--n", "2", "--d", "2", "--q", "0,0", "--p", "uniform"
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["n", "d", "q1", "q2", "p1", "p2", "h_min", "h_control", "chi"]
        row = dict(zip(header, rows[0]))
        assert float(row["chi"]) == pytest.approx(0.0487, abs=5e-4)
        assert float(row["h_min"]) == pytest.approx(1.9056, abs=1e-3)

    def test_transparent_channels(self, capsys):
        code, out, _ = run(capsys, "holevo", "--n", "2", "--d", "2", "--q", "1,1")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0][-1]) == pytest.approx(1.0, abs=1e-12)

    def test_three_channels(self, capsys):
        code, out, _ = run(
            capsys, "holevo", "--n", "3", "--d", "2", "--q", "0,0,0", "--p", "uniform"
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0][-1]) == pytest.approx(0.0980, abs=1e-3)

    def test_rejects_out_of_range_q(self, capsys):
        code, _, err = run(capsys, "holevo", "--n", "2", "--d", "2", "--q", "0,2")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_rejects_wrong_q_count(self, capsys):
        code, _, err = run(capsys, "holevo", "--n", "3", "--d", "2", "--q", "0,0")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_rejects_unnormalized_p(self, capsys):
        code, _, err = run(
            capsys, "holevo", "--n", "2", "--d", "2", "--q", "0,0", "--p", "0.7,0.7"
        )
        assert code == EXIT_USAGE
        assert "error" in err

    def test_single_channel(self, capsys):
        code, out, _ = run(capsys, "holevo", "--n", "1", "--d", "2", "--q", "0.5")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["n", "d", "q1", "p1", "h_min", "h_control", "chi"]
        assert rows[0][-1] == "0.188722"

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "holevo", "--n", "2", "--d", "2", "--bogus", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("n", [0, 6, 30])
    def test_channel_count_checked_first(self, capsys, n):
        # n! probabilities are never built for an n the assembly cannot take.
        code, out, err = run(
            capsys, "holevo", "--n", str(n), "--d", "2", "--q", ",".join(["0.5"] * n)
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: this computation supports 1..5 channels, got n={n}\n"


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "holevo" in capsys.readouterr().out


class TestTable1Command:
    def test_default_rows(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["d", "chi_q2s", "chi_q3s", "ratio"]
        data = {row[0]: row for row in rows}
        assert set(data) == {str(d) for d in range(2, 11)} | {
            "ratio_mean",
            "ratio_stddev",
        }
        d2 = data["2"]
        assert float(d2[1]) == pytest.approx(0.0487, abs=1e-3)
        assert float(d2[2]) == pytest.approx(0.0980, abs=1e-3)
        assert float(d2[3]) == pytest.approx(2.0123, abs=0.02)
        assert abs(float(data["9"][3]) - 2.0) < 0.1
        assert 1.86 <= float(data["ratio_mean"][3]) <= 2.00

    def test_restricted_range(self, capsys):
        code, out, _ = run(capsys, "table1", "--d-max", "2")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        data_rows = [r for r in rows if r[0] not in ("ratio_mean", "ratio_stddev")]
        assert len(data_rows) == 1

    def test_rejects_d_max_below_two(self, capsys):
        code, out, err = run(capsys, "table1", "--d-max", "1")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: dimension must be an integer >= 2, got 1\n"

    def test_repeated_runs_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "table1", "--d-max", "4")
        _, second, _ = run(capsys, "table1", "--d-max", "4")
        assert first == second


class TestDimensionLimit:
    @pytest.mark.parametrize(
        "argv",
        [
            ["holevo", "--n", "2", "--d", "1" + "0" * 400, "--q", "0.5,0.5"],
            ["sweep", "--n", "2", "--d", "40000", "--q-linked", "0.5"],
            ["table1", "--d-max", "40000"],
        ],
    )
    def test_too_large_dimension_is_a_usage_error(self, capsys, tmp_path, argv):
        out_path = tmp_path / "x.csv"
        if argv[0] == "sweep":
            argv = [*argv, "--out", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: dimension must be at most 32768, got ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out_path.exists()

    def test_largest_dimension_is_accepted(self, capsys):
        code, out, err = run(capsys, "holevo", "--n", "2", "--d", "32768", "--q", "0.5,0.5")
        assert code == EXIT_OK and err == ""
        _, rows = parse_csv(out)
        assert [row[1] for row in rows] == ["32768"]


class TestSweepCommand:
    def test_linked_grid(self, capsys, tmp_path):
        out_path = tmp_path / "curve.csv"
        points = ",".join(f"{v:.2f}" for v in [i / 100 for i in range(0, 101)])
        code, _, _ = run(
            capsys,
            "sweep",
            "--n",
            "2",
            "--d",
            "2",
            "--q-linked",
            points,
            "--p",
            "0.5,0.5",
            "--out",
            str(out_path),
        )
        assert code == EXIT_OK
        header, rows = parse_csv(out_path.read_text())
        assert len(rows) == 101
        chis = [float(r[-1]) for r in rows]
        assert chis[0] == pytest.approx(0.0487, abs=5e-4)
        assert chis[-1] == pytest.approx(1.0, abs=1e-9)
        interior_min = min(range(len(chis)), key=chis.__getitem__)
        assert 0 < interior_min < len(chis) - 1
        assert all(0.0 - 1e-12 <= c <= 1.0 + 1e-9 for c in chis)

    def test_per_channel_grid_order(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys,
            "sweep",
            "--n",
            "2",
            "--d",
            "2,3",
            "--q",
            "0,1",
            "--q",
            "0.5",
            "--out",
            str(out_path),
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out_path.read_text())
        key = [(r[1], r[2], r[3]) for r in rows]
        assert key == [
            ("2", "0", "0.5"),
            ("2", "1", "0.5"),
            ("3", "0", "0.5"),
            ("3", "1", "0.5"),
        ]

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        out_path = tmp_path / "out.csv"
        cfg.write_text(
            "# two-channel scan\n"
            "n = 2\n"
            "d = 2\n"
            "q1 = 0,1\n"
            "q2 = 0.25\n"
            "p = 0.5,0.5; 1,0\n"
            f"output = {tmp_path/'ignored.csv'}\n"
        )
        code, _, _ = run(
            capsys, "sweep", "--config", str(cfg), "--out", str(out_path)
        )
        assert code == EXIT_OK
        assert out_path.exists()
        _, rows = parse_csv(out_path.read_text())
        assert len(rows) == 4  # 2 q1-values x 1 q2-value x 2 p-vectors

    def test_empty_grid_writes_header_only(self, capsys, tmp_path):
        # An empty axis of any kind (dimensions, controls, linked or one
        # per-channel q) is a grid of no points: exit 0 and a header-only CSV.
        for i, axes in enumerate(
            (
                ("--d", "", "--q-linked", "0.5"),
                ("--d", "2", "--q-linked", "0.5", "--p", ";"),
                ("--d", "2", "--q-linked", ""),
                ("--d", "2", "--q", "", "--q", "0.5"),
            )
        ):
            out_path = tmp_path / f"empty{i}.csv"
            code, _, err = run(capsys, "sweep", "--n", "2", *axes, "--out", str(out_path))
            assert (code, err) == (EXIT_OK, "")
            assert out_path.read_text() == "n,d,q1,q2,p1,p2,h_min,h_control,chi\n"

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sweep",
            "--n",
            "2",
            "--d",
            "2",
            "--q-linked",
            "0.5",
            "--out",
            str(tmp_path / "missing" / "out.csv"),
        )
        assert code == EXIT_IO
        assert "error" in err

    def test_deterministic_output(self, capsys, tmp_path):
        args = [
            "sweep",
            "--n",
            "3",
            "--d",
            "2",
            "--q-linked",
            "0,0.3,0.9",
            "--p",
            "uniform",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(first))[0] == EXIT_OK
        assert run(capsys, *args, "--out", str(second))[0] == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_missing_required_keys(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--n", "2", "--d", "2")
        assert code == EXIT_USAGE
        assert "error" in err

    @pytest.mark.parametrize("n", ["0", "6", "30"])
    def test_channel_count_checked_first(self, capsys, tmp_path, n):
        out_path = tmp_path / "x.csv"
        code, _, err = run(
            capsys, "sweep", "--n", n, "--d", "2", "--q-linked", "0.5", "--out", str(out_path)
        )
        assert code == EXIT_USAGE
        assert err == f"error: this computation supports 1..5 channels, got n={n}\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_integer_channel_count_in_config(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n = x\nd = 2\nq_linked = 0.5\n")
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(out_path))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and err.count("\n") == 1
        assert "config key 'n'" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("d", ["2.6", "2,3.0", "two"])
    def test_non_integer_dimension_rejected(self, capsys, tmp_path, d):
        out_path = tmp_path / "x.csv"
        base = ["sweep", "--n", "2", "--q-linked", "0.5", "--out", str(out_path)]
        code, _, err = run(capsys, *base, "--d", d)
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "integers" in err
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"d = {d}\n")
        code, _, err = run(capsys, *base, "--config", str(cfg))
        assert code == EXIT_USAGE
        assert err.startswith("error:") and "integers" in err
        assert not out_path.exists()

    def test_conflicting_q_flags(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sweep",
            "--n",
            "2",
            "--d",
            "2",
            "--q",
            "0.5",
            "--q-linked",
            "0.5",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE
        assert "exclusive" in err

    @pytest.mark.parametrize(
        "error,code", [(NumericalError, EXIT_NUMERICAL), (ValueError, EXIT_USAGE)]
    )
    def test_failed_sweep_keeps_previous_output(
        self, capsys, tmp_path, monkeypatch, error, code
    ):
        import qnswitch.cli as cli

        out_path = tmp_path / "curve.csv"
        out_path.write_bytes(b"previous contents\n")
        real = cli.holevo_batch
        calls = []

        def second_chunk_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise error("injected failure in the second chunk")
            return real(*args)

        # One point per chunk, so the first row is already written when the
        # second chunk fails.
        monkeypatch.setattr(cli, "SWEEP_CHUNK_ENTRIES", 1)
        monkeypatch.setattr(cli, "holevo_batch", second_chunk_fails)
        args = ["sweep", "--n", "3", "--d", "2", "--q-linked", "0,0.2,0.4,0.6"]
        result, _, err = run(capsys, *args, "--out", str(out_path))
        assert result == code
        assert len(calls) == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert out_path.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]

        monkeypatch.setattr(cli, "holevo_batch", real)
        assert run(capsys, *args, "--out", str(out_path))[0] == EXIT_OK
        _, rows = parse_csv(out_path.read_text())
        assert len(rows) == 4
        assert [p.name for p in tmp_path.iterdir()] == ["curve.csv"]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out_path.stat().st_mode) == 0o666 & ~umask

    def test_three_channel_linked_curve(self, capsys, tmp_path):
        out_path = tmp_path / "n3.csv"
        points = ",".join(f"{i / 100:.2f}" for i in range(101))
        code, _, _ = run(
            capsys,
            "sweep",
            "--n",
            "3",
            "--d",
            "2",
            "--q-linked",
            points,
            "--out",
            str(out_path),
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out_path.read_text())
        assert len(rows) == 101
        assert float(rows[0][-1]) == pytest.approx(0.0980, abs=1e-3)
        assert float(rows[-1][-1]) == pytest.approx(1.0, abs=1e-9)


class TestConfigFile:
    """A config file fills the sweep flags the user left unset, and meets their rules."""

    NOISE_MAP = (  # README's noise_map.cfg
        "# noise_map.cfg\n"
        "n = 2\n"
        "d = 2\n"
        "q1 = 0,0.25,0.5,0.75,1\n"
        "q2 = 0,0.25,0.5,0.75,1\n"
        "p = 0,1; 0.25,0.75; 0.5,0.5; 0.75,0.25; 1,0\n"
        "output = {out}\n"
    )

    @staticmethod
    def both_routes(capsys, tmp_path, config, config_flags, flags):
        """The bytes of the config sweep and of the flag sweep, which must both succeed."""
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(config.format(out=tmp_path / "from_config.csv"))
        code, _, err = run(capsys, "sweep", "--config", str(cfg), *config_flags)
        assert (code, err) == (EXIT_OK, "")
        flag_out = tmp_path / "from_flags.csv"
        code, _, err = run(capsys, "sweep", *flags, "--out", str(flag_out))
        assert (code, err) == (EXIT_OK, "")
        return (tmp_path / "from_config.csv").read_bytes(), flag_out.read_bytes()

    def test_readme_noise_map(self, capsys, tmp_path):
        grid = "0,0.25,0.5,0.75,1"
        flags = ["--n", "2", "--d", "2", "--q", grid, "--q", grid,
                 "--p", "0,1; 0.25,0.75; 0.5,0.5; 0.75,0.25; 1,0"]
        from_config, from_flags = self.both_routes(capsys, tmp_path, self.NOISE_MAP, [], flags)
        assert from_config == from_flags
        assert len(parse_csv(from_config.decode())[1]) == 125

    def test_linked_grid_at_three_channels(self, capsys, tmp_path):
        config = "n = 3\nd = 2,3\nq_linked = 0,0.3,1\np = uniform; 1,0,0,0,0,0\noutput = {out}\n"
        flags = ["--n", "3", "--d", "2,3", "--q-linked", "0,0.3,1", "--p", "uniform; 1,0,0,0,0,0"]
        from_config, from_flags = self.both_routes(capsys, tmp_path, config, [], flags)
        assert from_config == from_flags
        assert len(parse_csv(from_config.decode())[1]) == 12

    def test_flags_override_p_and_output(self, capsys, tmp_path):
        override = ["--p", "0.3,0.7", "--out", str(tmp_path / "from_config.csv")]
        config = self.NOISE_MAP.replace("output = {out}", f"output = {tmp_path / 'ignored.csv'}")
        grid = "0,0.25,0.5,0.75,1"
        flags = ["--n", "2", "--d", "2", "--q", grid, "--q", grid, "--p", "0.3,0.7"]
        from_config, from_flags = self.both_routes(capsys, tmp_path, config, override, flags)
        assert from_config == from_flags
        assert not (tmp_path / "ignored.csv").exists()

    @pytest.mark.parametrize(
        "keys,message",
        [
            ("n = 2\nd = 2\nq_linked = 0.5\noutptu = x.csv\n", "unknown config key 'outptu'"),
            ("n = 2\nd = 2\nq1 = 0.1\nq2 = 0.2\nq_linked = 0.5\n", "mutually exclusive"),
            ("n = 2\nd = 2\nq1 = 0.1\nq2 = 0.2\nq3 = 0.3\n", "expected 2 per-channel q lists, got 3"),
            ("n = 2\nd = 2\nq1 = 0.1\nq3 = 0.3\n", "must be q1..qN, got q1, q3"),
            ("n = 2\nd = 2\nq_linked = 0.5\nn = 3\n", "sweep.cfg:4: duplicate key 'n'"),
        ],
        ids=["unknown-key", "both-q-kinds", "q3-at-n2", "missing-q2", "duplicate-key"],
    )
    def test_misconfiguration_is_a_usage_error(self, capsys, tmp_path, keys, message):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(keys)
        code, out, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.count("error:") == 1 and err.count("\n") == 1 and message in err
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.cfg"]


def test_sweep_leaves_the_process_umask_alone(capsys, tmp_path, monkeypatch):
    """Reading the umask by setting it would open a window in which other threads' files
    are created world-writable."""

    def no_umask(mask):
        raise AssertionError("os.umask called during a sweep")

    monkeypatch.setattr(os, "umask", no_umask)
    out_path = tmp_path / "out.csv"
    code, _, err = run(capsys, "sweep", "--n", "2", "--d", "2", "--q-linked", "0.5",
                       "--out", str(out_path))
    assert (code, err) == (EXIT_OK, "")
    assert out_path.exists()


class TestProbabilityRule:
    """One rule for control probabilities, wherever they enter.

    n! nonnegative entries whose exact sum is within 1e-12 of 1; the CLI
    then divides them by that sum and prints the result.
    """

    OFF_BY_1E10 = "0.5,0.5000000001"
    # Sums to 1 + 1e-14. The first entry lies just above the point where
    # 6 significant digits round up, so the printed value shows whether it
    # was divided by the sum: 0.123457 as given, 0.123456 divided.
    OFF_BY_1E14 = "0.12345650000000004,0.8765435000000099"
    NEGATIVE = "-0.1,1.1"
    NAN = "nan,1"
    # Finite entries whose exact sum is beyond the float range.
    OVERFLOW = "1e308,1e308"

    SURFACES = ["holevo", "sweep-flag", "sweep-config", "ControlSpec"]

    @staticmethod
    def submit(surface, text, capsys, tmp_path, reason=""):
        """The printed p fields if ``text`` is accepted, else None.

        A rejection must name ``reason`` in its message.
        """
        if surface == "ControlSpec":
            try:
                ControlSpec(2, tuple(float(v) for v in text.split(",")))
            except ValueError as exc:
                assert reason in str(exc)
                return None
            return []
        out_path = tmp_path / "out.csv"
        if surface == "holevo":
            # "--p=" keeps a leading minus sign from reading as an option.
            argv = ["holevo", "--n", "2", "--d", "2", "--q", "0.3,0.6", f"--p={text}"]
        else:
            argv = ["sweep", "--n", "2", "--d", "2", "--q-linked", "0.3", "--out", str(out_path)]
            if surface == "sweep-flag":
                argv.append(f"--p={text}")
            else:
                cfg = tmp_path / "sweep.cfg"
                cfg.write_text(f"p = {text}\n")
                argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        if code != EXIT_OK:
            assert code == EXIT_USAGE
            assert out == "" and not out_path.exists()
            assert err.startswith("error:") and err.count("\n") == 1
            assert reason in err
            return None
        _, rows = parse_csv(out if surface == "holevo" else out_path.read_text())
        assert len(rows) == 1
        return rows[0][4:6]

    @pytest.mark.parametrize("surface", SURFACES)
    def test_sum_off_by_1e10_is_rejected(self, capsys, tmp_path, surface):
        assert self.submit(surface, self.OFF_BY_1E10, capsys, tmp_path) is None

    @pytest.mark.parametrize("surface", SURFACES)
    def test_negative_entry_is_rejected(self, capsys, tmp_path, surface):
        assert self.submit(surface, self.NEGATIVE, capsys, tmp_path) is None

    @pytest.mark.parametrize("surface", SURFACES)
    def test_nan_entry_is_rejected(self, capsys, tmp_path, surface):
        fields = self.submit(surface, self.NAN, capsys, tmp_path, reason="nonnegative")
        assert fields is None

    @pytest.mark.parametrize("surface", SURFACES)
    def test_overflowing_sum_is_rejected(self, capsys, tmp_path, surface):
        fields = self.submit(surface, self.OVERFLOW, capsys, tmp_path, reason="sum to 1")
        assert fields is None

    @pytest.mark.parametrize("surface", SURFACES)
    def test_sum_off_by_1e14_is_accepted_and_divided(self, capsys, tmp_path, surface):
        fields = self.submit(surface, self.OFF_BY_1E14, capsys, tmp_path)
        assert fields is not None
        values = [float(v) for v in self.OFF_BY_1E14.split(",")]
        total = math.fsum(values)
        assert 0 < abs(total - 1.0) < 1e-13
        assert format(values[0], ".6g") == "0.123457"
        if surface != "ControlSpec":
            assert fields == [format(v / total, ".6g") for v in values]
            assert fields == ["0.123456", "0.876544"]


@pytest.mark.parametrize(
    "argv",
    [
        ["holevo", "--n", "2.0", "--d", "2", "--q", "0.5,0.5"],
        ["sweep", "--n", "2.0", "--d", "2", "--q-linked", "0.5"],
    ],
)
def test_non_integer_channel_count_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.splitlines()[-1].endswith("error: argument --n: invalid int value: '2.0'")


class BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestStdoutFailure:
    """A failed write to stdout is an I/O error: exit 3 and one error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--d-max", "3"],
            ["holevo", "--n", "2", "--d", "2", "--q", "0.5,0.5"],
            ["verify"],
        ],
    )
    def test_broken_pipe(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        code, _, err = run(capsys, *argv)
        assert code == EXIT_IO
        assert err == "error: [Errno 32] Broken pipe\n"


# Values the fuzz gate puts in place of a valid field or list entry.
MALFORMED = ["", ";", " ", "x", "nan", "inf", "-1", "1e308", "1.5", "2.0", "1" + "0" * 400]


@st.composite
def cli_argvs(draw):
    """(argv, --out value) for one CLI call: a small valid call, often with one field broken.

    n <= 3, d <= 8, --d-max <= 12 and at most 2 x 8 x 2 sweep points keep it fast.
    """
    command = draw(st.sampled_from(["holevo", "sweep", "table1", "verify"]))
    n = draw(st.integers(1, 3))
    nf = math.factorial(n)

    def units(lo, hi):
        values = st.sampled_from(["0", "0.25", "0.5", "1"])
        return st.lists(values, min_size=lo, max_size=hi).map(",".join)

    probs = st.one_of(
        st.just("uniform"),
        st.just(",".join([repr(1 / nf)] * nf)),
        st.just(",".join(["1e308"] * nf)),  # finite entries whose sum overflows
        st.integers(0, nf - 1).map(lambda k: ",".join("1" if j == k else "0" for j in range(nf))),
    )
    dims = st.lists(st.integers(2, 8).map(str), min_size=1, max_size=2).map(",".join)
    out = None
    if command == "table1":
        argv = ["table1", f"--d-max={draw(st.integers(2, 12))}"]
    elif command == "verify":  # a valid seed runs every check, so the seed is always broken
        argv = ["verify", f"--seed={draw(st.sampled_from(MALFORMED))}"]
    elif command == "holevo":
        argv = ["holevo", f"--n={n}", f"--d={draw(st.integers(2, 8))}", f"--q={draw(units(n, n))}"]
        argv.append(f"--p={draw(probs)}")
    else:
        if draw(st.booleans()):
            q = [f"--q={draw(units(0, 2))}" for _ in range(n)]
        else:
            q = [f"--q-linked={draw(units(0, 4))}"]
        p = ";".join(draw(st.lists(probs, min_size=1, max_size=2)))
        out = draw(st.sampled_from(["out.csv", "missing/out.csv", ".", ""]))
        argv = ["sweep", f"--n={n}", f"--d={draw(dims)}", *q, f"--p={p}", f"--out={out}"]
    if command != "verify" and draw(st.booleans()):
        i = draw(st.integers(1, len(argv) - (2 if out is not None else 1)))
        flag, _, value = argv[i].partition("=")
        entries = value.split(",")
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(MALFORMED))
        broken = [f"{flag}={','.join(entries)}", f"{flag}={draw(st.sampled_from(MALFORMED))}"]
        argv[i : i + 1] = draw(st.sampled_from([broken[:1], broken[1:], [], ["--bogus"]]))
    return argv, out


@settings(max_examples=150, deadline=None)
@given(cli_argvs())
@example((["holevo", "--n=2", "--d=2", "--q=0.5,0.5", "--p=1e308,1e308"], None))
@example((["sweep", "--n=2", "--d=2", "--q-linked=0.5", "--p=1e308,1e308", "--out=out.csv"],
          "out.csv"))
def test_cli_fuzz_fails_cleanly(drawn):
    """Any argv exits with a known code, no traceback and one final error line.

    A failed sweep leaves nothing in its output directory.
    """
    argv, out = drawn
    with tempfile.TemporaryDirectory() as work:
        if out:  # a name relative to a new directory
            argv = [arg.replace("--out=", f"--out={work}/", 1) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert code in (EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_IO, EXIT_NUMERICAL)
        assert "Traceback" not in err + stdout.getvalue()
        if err:
            assert re.match(r"(qnswitch( \w+)?: )?error: ", err.splitlines()[-1])
        if argv[0] == "sweep":
            written = ["out.csv"] if code == EXIT_OK and out == "out.csv" else []
            assert os.listdir(work) == written


class TestParserReuse:
    """The parser is built once per process; no call leaves state for the next."""

    def test_parser_is_built_once(self):
        import qnswitch.cli as cli

        assert cli._build_parser() is cli._build_parser()

    def test_calls_share_no_state(self, capsys, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        code, _, _ = run(
            capsys, "sweep", "--n", "2", "--d", "2", "--q", "0.1", "--q", "0.2",
            "--p", "0.3,0.7", "--out", str(first),
        )
        assert code == EXIT_OK
        code, out, _ = run(capsys, "sweep", "--n", "2", "--q", "0.4", "--bogus")
        assert code == EXIT_USAGE and out == ""
        code, _, _ = run(
            capsys, "sweep", "--n", "2", "--d", "3", "--q", "0.5", "--q", "0.6",
            "--out", str(second),
        )
        assert code == EXIT_OK
        _, rows = parse_csv(second.read_text())
        assert [row[:6] for row in rows] == [["2", "3", "0.5", "0.6", "0.5", "0.5"]]
        code, out, _ = run(capsys, "holevo", "--n", "1", "--d", "2", "--q", "0.5")
        assert code == EXIT_OK
        assert parse_csv(out)[1] == [["1", "2", "0.5", "1", "0.811278", "0", "0.188722"]]


class TestNumericalFailures:
    """Internal eigensolver failures exit with their own code, one line."""

    ARGS = ("holevo", "--n", "3", "--d", "2", "--q", "0.1,0.2,0.3")

    def test_eigensolver_does_not_converge(self, capsys, monkeypatch):
        import qnswitch.holevo as hv

        def diverges(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(hv.np.linalg, "eigvalsh", diverges)
        code, out, err = run(capsys, *self.ARGS)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "did not converge" in err

    def test_negative_spectrum(self, capsys, monkeypatch):
        import qnswitch.holevo as hv

        def negative(matrix):
            return np.full(matrix.shape[:-1], -1e-3)

        monkeypatch.setattr(hv.np.linalg, "eigvalsh", negative)
        code, out, err = run(capsys, *self.ARGS)
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "negative eigenvalue" in err


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        # The visible output is frozen: every check by name and in order,
        # the detail texts that do not depend on the seed, and the summary.
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_OK
        *lines, summary = out.splitlines()
        assert [line.partition(": ")[0] for line in lines] == [
            "PASS  causal orders",
            "PASS  weyl basis identities",
            "PASS  kraus completeness",
            "PASS  switch kraus completeness",
            "PASS  assembled blocks vs brute-force sum",
            "PASS  contraction tables",
            "PASS  closed forms vs assembly",
            "PASS  closed-form vs eigensolver entropy",
            "PASS  chi bounds and definite-order comparison",
        ]
        assert lines[0] == "PASS  causal orders: enumeration, labels, subsets, round-trips"
        assert lines[5] == "PASS  contraction tables: all tabulated pairs match"
        assert summary == "9/9 checks passed"

    def test_seed_independence(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "7")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_repeated_run_gives_equal_results(self):
        # Orders and subsets are built once per process; no check result is kept.
        from qnswitch.verify import run_verification

        assert run_verification(42) == run_verification(42)

    def test_injected_fault(self, capsys, monkeypatch):
        import qnswitch.cli as cli
        from qnswitch.verify import CheckResult

        real = cli.run_verification
        monkeypatch.setattr(
            cli, "run_verification",
            lambda seed: real(seed) + [CheckResult("injected fault", False, "deliberate")],
        )
        code, out, _ = run(capsys, "verify")
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL" in out


class TestVerifyGatesTheSweepStages:
    # verify's oracles read the block and spectral stages that every sweep,
    # holevo and table1 run, so corrupting either one fails its check.
    @staticmethod
    def failed(monkeypatch, module, name, corrupt):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: corrupt(real(*args)))
        from qnswitch.verify import run_verification

        return {res.name for res in run_verification(42) if not res.passed}

    def test_spectral_stage(self, monkeypatch):
        import qnswitch.holevo as hv

        failed = self.failed(
            monkeypatch, hv, "_block_entropies", lambda out: (out[0] + 1e-6, out[1])
        )
        assert "closed-form vs eigensolver entropy" in failed

    @staticmethod
    def scale_one_pair(factor):
        def scale(blocks):
            blocks[:, 0, 0, 1] *= factor  # one off-diagonal a pair, kept symmetric
            blocks[:, 0, 1, 0] *= factor
            return blocks

        return scale

    def test_block_stage(self, monkeypatch):
        import qnswitch.switch as sw

        failed = self.failed(monkeypatch, sw, "_switch_blocks", self.scale_one_pair(1.0 + 1e-9))
        assert "closed forms vs assembly" in failed

    def test_block_stage_beyond_oracle_tolerance(self, monkeypatch):
        import qnswitch.switch as sw

        # Shrunk, so every point stays positive, and by more than the brute-force
        # check's 1e-10 tolerance.
        failed = self.failed(monkeypatch, sw, "_switch_blocks", self.scale_one_pair(1.0 - 1e-6))
        assert {"closed forms vs assembly", "assembled blocks vs brute-force sum"} <= failed

    def test_realized_output(self, monkeypatch):
        import qnswitch.switch as sw

        def shift_one_entry(dense):
            dense[:, 0, 0] += 1e-9
            return dense

        failed = self.failed(monkeypatch, sw, "_realize", shift_one_entry)
        assert "assembled blocks vs brute-force sum" in failed

    def test_two_channel_closed_form_stage(self, monkeypatch):
        import qnswitch.switch as sw

        # Shrunk, so every point stays positive.
        failed = self.failed(
            monkeypatch, sw, "_closed_form_n2_blocks", self.scale_one_pair(1.0 - 1e-6)
        )
        assert {"closed forms vs assembly", "closed-form vs eigensolver entropy"} <= failed


class TestEveryChiRespectsBounds:
    def test_table_rows_within_bounds(self, capsys):
        code, out, _ = run(capsys, "table1", "--d-max", "6")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        for row in rows:
            if row[0] in ("ratio_mean", "ratio_stddev"):
                continue
            d = int(row[0])
            for chi in (float(row[1]), float(row[2])):
                assert -1e-9 <= chi <= math.log2(d) + 1e-9
