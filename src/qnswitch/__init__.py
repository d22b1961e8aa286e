"""Simulator for N depolarizing channels under coherent control of causal order.

The package computes the exact output of the channel switch as an
n! x n! array of a*I + b*rho blocks, cross-checks it against a brute-force
generalized-Kraus sum, and evaluates the Holevo information of the
resulting channel.
"""

from .channels import (
    DensityMatrix,
    DepolarizingChannel,
    UnitaryBasis,
    kraus_set,
    random_density,
    weyl_basis,
)
from .errors import NumericalError, SizeLimitError
from .holevo import (
    HolevoReport,
    holevo_information,
    min_output_entropy,
    min_output_entropy_n2,
    von_neumann_entropy,
)
from .switch import (
    ControlSpec,
    SwitchBlockMatrix,
    assemble_blocks,
    closed_form_n2,
    closed_form_n3,
    completeness_defect,
    contract_pair,
    kraus_sum_output,
    realize,
)
from .symgroup import (
    Permutation,
    ZeroSubset,
    apply_order,
    enumerate_orders,
    zero_subsets,
)

__version__ = "0.1.0"

__all__ = [
    "ControlSpec",
    "DensityMatrix",
    "DepolarizingChannel",
    "HolevoReport",
    "NumericalError",
    "Permutation",
    "SizeLimitError",
    "SwitchBlockMatrix",
    "UnitaryBasis",
    "ZeroSubset",
    "apply_order",
    "assemble_blocks",
    "closed_form_n2",
    "closed_form_n3",
    "completeness_defect",
    "contract_pair",
    "enumerate_orders",
    "holevo_information",
    "kraus_set",
    "kraus_sum_output",
    "min_output_entropy",
    "min_output_entropy_n2",
    "random_density",
    "realize",
    "von_neumann_entropy",
    "weyl_basis",
    "zero_subsets",
]
