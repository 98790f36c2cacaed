"""Goal signals: turn a microfile group into one-dimensional distributions.

Loads the bundled military fixture, builds the quantity signal (member
counts per statistical area) and the concentration signal (counts relative
to the male population), and renders both as SVG charts.  The spike at the
last area is the kind of feature the rest of the pipeline exists to hide.
"""

from pathlib import Path

import numpy as np

from groupanon.charts import svg_line_chart
from groupanon.reference import build_concentration_microfile, fixture_group, load_quantity_microfile
from groupanon.signals import concentration_signal, difference_signal, quantity_signal

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

microfile = load_quantity_microfile()
group = fixture_group()
q = quantity_signal(microfile, group)
print(f"fixture: {microfile.n_records} records, {int(q.total)} group members")

print("quantity signal:", q.values.astype(int))
print(f"  total {int(q.total)}, spike at position {int(np.argmax(q.values)) + 1} "
      f"({q.parameter_order[int(np.argmax(q.values))]})")
svg_line_chart(q.parameter_order, q.values, OUT / "quantity_signal.svg",
               title="Group members per statistical area")

c = concentration_signal(microfile, group)
print("concentration signal:", np.round(c.values, 3))
svg_line_chart(c.parameter_order, c.values, OUT / "concentration_signal.svg",
               title="Group concentration within the male population")

# a larger synthetic population whose concentrations match the bundled
# reference values at three decimals
big = build_concentration_microfile()
c_ref = concentration_signal(big, group)
print(f"reference-scale population: {big.n_records} records")
print("concentrations:", np.round(c_ref.values, 3))

# difference of two concentration signals: the protected group against a
# comparison group drawn from the same population
from groupanon.microfile import GroupSpec

comparison = GroupSpec.create({"military_service": {"3"}}, "area", q.parameter_order,
                              superset_vital={"sex": {"1"}})
c_other = concentration_signal(big, comparison)
delta = difference_signal(c_ref, c_other)
print("difference signal:", np.round(delta.values, 3))
svg_line_chart(delta.parameter_order, delta.values, OUT / "difference_signal.svg",
               title="Concentration difference against the comparison group")
print(f"charts written to {OUT}")
