"""Simulator for N depolarizing channels under coherent control of causal order.

The package computes the exact output of the channel switch as an
n! x n! array of a*I + b*rho blocks, cross-checks it against a brute-force
generalized-Kraus sum, and evaluates the Holevo information of the
resulting channel.
"""

from .channels import (
    DensityMatrix,
    DepolarizingChannel,
    kraus_set,
    random_density,
    weyl_basis,
)
from .errors import NumericalError, SizeLimitError
from .holevo import holevo_batch, min_output_entropy_n2
from .switch import (
    ControlSpec,
    assemble_blocks,
    closed_form_n2,
    closed_form_n3,
    completeness_defect,
    kraus_sum_output,
    realize,
)
from .symgroup import enumerate_orders, zero_subsets

__version__ = "0.1.0"

__all__ = [
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
