"""The whole pipeline through the command-line interface.

Writes a working directory with the bundled fixture and a JSON config,
then drives `groupanon run` and `groupanon verify` exactly as an operator
would, and checks the published table realizes the modified signal.  It
also runs the one group alone with `run --group` into a second output,
which must write the same table, and runs the table rewritten with every
cell quoted, which the loader's csv path reads instead of its byte path:
that run, too, must write the same table.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import groupanon
from groupanon.microfile import load_microfile
from groupanon.reference import (
    AREA_CODES,
    FIXTURE_SCHEMA,
    QUANTITY_FINAL,
    QUANTITY_SOLUTION,
    QUANTITY_SYSTEM,
    fixture_group,
    fixture_path,
)
from groupanon.signals import quantity_signal

workdir = Path(__file__).parent / "output" / "pipeline"
workdir.mkdir(parents=True, exist_ok=True)
shutil.copy(fixture_path(), workdir / "military.csv")
with open(fixture_path(), newline="") as src, \
        open(workdir / "military_quoted.csv", "w", newline="") as dst:
    csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))

config = {
    "input": "military.csv",
    "output": "modified.csv",
    "report_dir": "report",
    "schema": [
        {"name": "area", "kind": "nominal", "role": "parameter"},
        {"name": "military_service", "kind": "nominal", "role": "vital", "weight": 1.0},
        {"name": "sex", "kind": "nominal", "role": "plain"},
        {"name": "age", "kind": "ordinal", "role": "influential", "weight": 1.0},
        {"name": "income", "kind": "ordinal", "role": "influential", "weight": 1.0},
    ],
    "groups": [
        {
            "name": "active-duty",
            "vital": {"military_service": ["1"]},
            "parameter": "area",
            "parameter_order": list(AREA_CODES),
            "superset": {"sex": ["1"]},
            "signal": "quantity",
            "wavelet": {"family": "db2", "level": 2},
            "constraints": {
                "rows": [
                    {"position": p, "relation": rel, "bound": bound}
                    for p, rel, bound, _ in QUANTITY_SYSTEM
                ],
                "objective": "feasibility",
            },
            "solution": [float(v) for v in QUANTITY_SOLUTION],
            "shift": 2150,
            "repair": "mean_fix",
        }
    ],
}
(workdir / "config.json").write_text(json.dumps(config, indent=2))


# The child runs in the work directory, so a relative PYTHONPATH (such as
# PYTHONPATH=src from a source checkout) would not find the package there;
# put the directory this process imported it from first, as an absolute path.
package_root = str(Path(groupanon.__file__).resolve().parent.parent)
child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def run(*args):
    print("$", "groupanon", *args)
    result = subprocess.run([sys.executable, "-m", "groupanon.cli", *args],
                            cwd=workdir, env=child_env, text=True, capture_output=True)
    print(result.stdout, end="")
    if result.returncode:
        print(result.stderr, end="")
    return result.returncode


assert run("signal", "--config", "config.json", "--group", "active-duty") == 0
assert run("run", "--config", "config.json") == 0
assert run("run", "--config", "config.json", "--group", "active-duty",
           "--output", "alone/modified.csv", "--report", "alone/report") == 0
assert run("run", "--config", "config.json", "--input", "military_quoted.csv",
           "--output", "quoted/modified.csv", "--report", "quoted/report") == 0
assert run("verify") == 0
assert (workdir / "alone" / "modified.csv").read_bytes() == (workdir / "modified.csv").read_bytes()
assert (workdir / "quoted" / "modified.csv").read_bytes() == (workdir / "modified.csv").read_bytes()
readers = [json.loads((workdir / d / "report.json").read_text())["io"]["reader"]
           for d in ("report", "quoted/report")]
assert readers == ["bytes", "csv"], readers
print("bundled table read by the byte path, its quoted copy by the csv path:", readers)

modified = load_microfile(workdir / "modified.csv", FIXTURE_SCHEMA)
counts = quantity_signal(modified, fixture_group())
print("\npublished table realizes the modified signal:",
      np.array_equal(counts.values, QUANTITY_FINAL))
report = json.loads((workdir / "report" / "report.json").read_text())
print("report timings:", report["groups"][0]["timings"])
