"""Redistribution: move a signal's mass under linear constraints.

Bounds on chosen positions of the low-frequency component become a small
linear program over replacement approximation coefficients.  Solving it,
reassembling with the original details, shifting into non-negative range,
restoring the original sum and rounding yields a publishable counts vector
whose extremums have moved, while the high-frequency behaviour of the
signal is untouched.
"""

import numpy as np

from groupanon.redistribute import (
    ConstraintSpec,
    Objective,
    build_constraints,
    check_solution,
    make_nonnegative,
    reassemble,
    solve_constraints,
)
from groupanon.reference import (
    AREA_CODES,
    QUANTITY,
    QUANTITY_FINAL,
    QUANTITY_SHIFT,
    QUANTITY_SOLUTION,
    QUANTITY_SYSTEM,
)
from groupanon.signals import GoalSignal, concentration_to_quantity
from groupanon.wavelet import FILTERS, decompose

dec = decompose(QUANTITY, FILTERS["db2"], level=2)

# the bundled constraint system, one column per field: caps where the signal
# must not grow, floors where mass is welcome
positions, relations, bounds, _ = zip(*QUANTITY_SYSTEM)
spec = ConstraintSpec(positions, relations, bounds)
lp = build_constraints(dec, spec)
print("constraint system:")
for i in range(lp.sign.size):
    print(" ", lp.describe_row(i))

coeffs = solve_constraints(lp, warm_start=dec.approx)
print("\nsolver feasible point:", np.round(coeffs, 3))

# the bundled reference solution, checked row by row
checks = check_solution(lp, QUANTITY_SOLUTION)
print(f"reference solution satisfies all rows: {checks.satisfied.all()}")

qhat = reassemble(dec, QUANTITY_SOLUTION)
print("\nreassembled signal:", np.round(qhat, 3))

# a run converts every signal kind the same way: a quantity signal is its own
# concentration over unit denominators, rescaled to the member total and rounded
shifted, shift = make_nonnegative(qhat, QUANTITY_SHIFT)
unit = GoalSignal("concentration", shifted, AREA_CODES, denominators=np.ones(QUANTITY.size))
final = concentration_to_quantity(unit, int(QUANTITY.sum())).values.astype(np.int64)
print(f"shift {shift:g}, restored sum {final.sum()}")
print("final counts:", final)
print("matches bundled reference:", np.array_equal(final, QUANTITY_FINAL))
print("old spike position:", int(np.argmax(QUANTITY)) + 1,
      "-> new maximum position:", int(np.argmax(final)) + 1)

# operators can also force mass somewhere explicitly; an "original" row keeps
# the current low-frequency value at its position as the bound
forced = ConstraintSpec(
    (1, 2, 15, 16), ("<=",) * 4, np.zeros(4), original=np.ones(4, dtype=bool),
    objective=Objective("maximize", (8, 9)),
)
lp2 = build_constraints(dec, forced)
coeffs2 = solve_constraints(lp2)
print("\nmaximizing positions 8-9 instead:", np.round(reassemble(dec, coeffs2), 1))
