"""Group-level anonymization of statistical microfiles.

The library conceals sensitive distribution features of respondent groups
(extremums of count or concentration signals over an ordered parameter
attribute) by redistributing the signal's wavelet approximation while
keeping its details, then realizes the modified signal in the table through
record-pair parameter swaps chosen to minimally distort influential
attributes.
"""

from .errors import (
    ConfigError,
    ConstraintError,
    GroupAnonError,
    InfeasibleError,
    ParseError,
    RemapError,
    SchemaError,
    SignalError,
    StageError,
    UnboundedError,
    WaveletError,
)
from .microfile import (
    Attribute,
    GroupSpec,
    Microfile,
    load_microfile,
    members,
    write_microfile,
)
from .redistribute import (
    ConstraintSpec,
    Objective,
    build_constraints,
    check_solution,
    make_nonnegative,
    normalize_mean_std,
    reassemble,
    round_to_integers,
    satisfies,
    solve_constraints,
)
from .remap import InfluentialWeights, SwapPlan, apply_swaps, influential_metric, plan_swaps
from .signals import (
    GoalSignal,
    concentration_signal,
    concentration_to_quantity,
    difference_signal,
    quantity_signal,
)
from .wavelet import (
    FILTERS,
    FilterPair,
    WaveletDecomposition,
    approximation_component,
    conv_down,
    decompose,
    detail_component,
    get_filter,
    reconstruct,
    reconstruction_matrix,
    up_conv,
)

__version__ = "0.1.0"
