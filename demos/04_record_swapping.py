"""Record swapping: realize a modified counts vector in the actual table.

A swap exchanges only the parameter values (here: area codes) of a group
member and a close non-member from the superset population, so group
counts move while population counts per area, every other attribute and
the file-wide multiset of area codes all stay put.  Closeness is the
weighted influential metric; for each donor→recipient block of the flow
the planner takes the cheapest remaining pairs, so the plan is a
deterministic function of the inputs.
"""

import collections
import time

import numpy as np

from groupanon.reference import AREA_CODES, QUANTITY_FINAL, fixture_group, load_quantity_microfile
from groupanon.remap import InfluentialWeights, apply_swaps, influential_metric, plan_swaps
from groupanon.signals import GoalSignal, concentration_signal, quantity_signal

microfile = load_quantity_microfile()
group = fixture_group()
weights = InfluentialWeights.from_attributes(microfile.attributes)
print("metric weights:", weights.ordinal, weights.nominal)

a, b = ({attr.name: microfile.column(attr.name)[i] for attr in microfile.attributes}
        for i in (0, 1))
print(f"distance between records 0 and 1: {influential_metric(a, b, weights):.4f}")

target = GoalSignal("quantity", QUANTITY_FINAL.astype(float), AREA_CODES)
start = time.perf_counter()
plan = plan_swaps(microfile, group, target, weights)
print(f"\nplanned {len(plan)} swaps in {time.perf_counter() - start:.2f}s, "
      f"total cost {plan.total_cost:.3f}")
print("first three swaps:", tuple(map(tuple, plan.swaps[:3].tolist())))

modified = apply_swaps(microfile, plan)
after = quantity_signal(modified, group)
print("\nrealized counts:", after.values.astype(int))
print("matches target exactly:", np.array_equal(after.values, QUANTITY_FINAL))

same_elsewhere = all(
    np.array_equal(modified.column(name), microfile.column(name))
    for name in ("military_service", "sex", "age", "income")
)
print("non-parameter columns untouched:", same_elsewhere)
print("area multiset unchanged:",
      collections.Counter(modified.column("area")) == collections.Counter(microfile.column("area")))

rho_before = concentration_signal(microfile, group).denominators
rho_after = concentration_signal(modified, group).denominators
print("population counts per area unchanged:", np.array_equal(rho_before, rho_after))
