"""The package's public surface: ``__all__`` and the README's library example."""

import re
from pathlib import Path

import qnswitch

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "ControlSpec",
    "DensityMatrix",
    "DepolarizingChannel",
    "NumericalError",
    "SizeLimitError",
    "assemble_blocks",
    "closed_form_n2",
    "closed_form_n3",
    "completeness_defect",
    "enumerate_orders",
    "holevo_batch",
    "kraus_set",
    "kraus_sum_output",
    "min_output_entropy_n2",
    "random_density",
    "realize",
    "weyl_basis",
    "zero_subsets",
]


def test_all_is_pinned():
    # A name added to or dropped from the surface fails here, so it is a visible change.
    assert qnswitch.__all__ == PUBLIC_NAMES
    assert all(hasattr(qnswitch, name) for name in PUBLIC_NAMES)


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and 0.0 < float(printed[0]) < 1.0
