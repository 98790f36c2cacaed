"""Goal signals: one-dimensional distribution views of a respondent group.

Three kinds are supported, all aligned with a group's ordered parameter
values:

* quantity        - member counts per parameter value,
* concentration   - quantity divided by the superset population counts,
* difference      - componentwise difference of two concentration signals.

``concentration_to_quantity`` maps a (possibly modified) concentration
signal back into an integer quantity signal with a prescribed total, which
is how concentration-domain edits become realizable in the microfile.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import SignalError
from .microfile import GroupSpec, Microfile, group_census
from .redistribute import round_to_integers

__all__ = [
    "GoalSignal",
    "quantity_signal",
    "concentration_signal",
    "difference_signal",
    "concentration_to_quantity",
]

logger = logging.getLogger(__name__)

KINDS = ("quantity", "concentration", "difference")


@dataclass(frozen=True)
class GoalSignal:
    """Signal values over an ordered parameter axis.

    Concentration signals retain their denominators so they can later be
    converted back into quantities.
    """

    kind: str
    values: np.ndarray
    parameter_order: tuple[str, ...]
    denominators: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SignalError(f"unknown signal kind {self.kind!r}")
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size != len(self.parameter_order):
            raise SignalError(f"signal length {values.size} does not match the "
                              f"{len(self.parameter_order)} values of the parameter order")
        if self.kind == "quantity":
            if np.any(values < 0) or np.any(values != np.floor(values)):
                raise SignalError("quantity signals must hold non-negative integers")
        if self.denominators is not None:
            den = np.asarray(self.denominators, dtype=float)
            object.__setattr__(self, "denominators", den)
            if den.shape != values.shape or np.any(den <= 0):
                raise SignalError("denominators must be positive and match the signal length")
        elif self.kind == "concentration":
            raise SignalError("concentration signals must carry denominators")
        values.setflags(write=False)
        if self.denominators is not None:
            self.denominators.setflags(write=False)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def total(self) -> float:
        return float(self.values.sum())


def quantity_signal(m: Microfile, g: GroupSpec) -> GoalSignal:
    """Count group members at each declared parameter value.

    ``group_census`` raises if any member carries a parameter value missing
    from the order, so the total always equals the number of members.
    """
    positions, member, _ = group_census(m, g)
    return GoalSignal("quantity", np.bincount(positions[member], minlength=len(g.parameter_order)),
                      g.parameter_order)


def concentration_signal(m: Microfile, g: GroupSpec) -> GoalSignal:
    """Member counts divided by superset counts, per parameter value."""
    if g.superset_vital is None:
        raise SignalError("concentration signal requires a superset population")
    positions, member, superset = group_census(m, g)
    n = len(g.parameter_order)
    q = np.bincount(positions[member], minlength=n)
    rho = np.bincount(positions[superset & (positions >= 0)], minlength=n)
    zero = np.flatnonzero(rho == 0)
    if zero.size:
        value = g.parameter_order[int(zero[0])]
        raise SignalError(
            f"superset population is empty at parameter value {value!r}; "
            "concentration undefined"
        )
    return GoalSignal("concentration", q / rho, g.parameter_order, denominators=rho)


def difference_signal(main: GoalSignal, subordinate: GoalSignal) -> GoalSignal:
    """Componentwise difference of two concentration signals over one axis.

    The result keeps the main signal's denominators so it can be pushed
    back into the main group's quantity domain.
    """
    if main.kind != "concentration" or subordinate.kind != "concentration":
        raise SignalError("difference requires two concentration signals")
    if main.parameter_order != subordinate.parameter_order:
        raise SignalError("signals are built over different parameter orders")
    return GoalSignal(
        "difference",
        main.values - subordinate.values,
        main.parameter_order,
        denominators=main.denominators,
    )


def concentration_to_quantity(c_target: GoalSignal, total: int,
                              warn=logger.warning) -> GoalSignal:
    """Integer quantity signal proportional to concentration times denominator.

    Negative values are clamped to zero, and ``warn`` receives one message
    that counts them (the module logger by default; a run passes its group
    report's).  The result sums exactly to ``total`` via largest-remainder
    rounding.  A quantity signal converts as its own concentration over unit
    denominators.
    """
    if c_target.denominators is None:
        raise SignalError("conversion requires a signal with denominators")
    if total <= 0:
        raise SignalError("total to distribute must be positive")
    c = c_target.values
    if negative := int((c < 0).sum()):
        warn(f"clamping {negative} negative value(s) to zero before conversion")
        c = np.where(c < 0, 0.0, c)
    mass = c * c_target.denominators
    if not mass.any():
        raise SignalError("no mass to distribute: every value is zero")
    scaled = mass * (total / mass.sum())
    counts = round_to_integers(scaled, total)
    return GoalSignal("quantity", counts, c_target.parameter_order)
