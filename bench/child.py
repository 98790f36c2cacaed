"""One fresh-process `groupanon run`, timed (and optionally traced) from outside.

Usage: python3 bench/child.py RESULT.json {plain|trace|probe} -- ARGS...

ARGS go to ``groupanon.cli.main`` unchanged.  The process records when the
input table finished loading, when ``main`` started and returned, its own
peak resident memory and, in ``trace`` mode, a span around every call into
the program's module boundaries.  ``probe`` stops the process as soon as
the input table is loaded, to sample set-up time alone.  The result is
written as JSON to RESULT.json; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import os
import sys
import time

import groupanon.cli as cli
import groupanon.pipeline as pipeline
import groupanon.redistribute as redistribute

from spans import Tracer

PIPELINE = ("load_microfile", "decompose", "plan_swaps", "apply_swaps", "write_microfile",
            "svg_line_chart", "run_group", "_repair_and_target", "build_goal_signal",
            "quantity_signal", "concentration_signal", "difference_signal",
            "concentration_to_quantity")
REDISTRIBUTE = ("build_constraints", "solve_constraints", "check_solution", "reassemble",
                "reconstruction_matrix", "linprog")
CLI = ("write_outputs",)


def peak_rss_kb() -> int:
    """High-water resident set of this process's own memory map.

    ``getrusage`` is not used: on Linux its maximum survives ``exec`` and so
    includes the parent's resident set when the parent vforked this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _size(path) -> dict:
    return {"bytes": os.path.getsize(path)}


NOTES = {
    "load_microfile": lambda a, k, r: _size(a[0]),
    "write_microfile": lambda a, k, r: _size(a[1]),
    "plan_swaps": lambda a, k, r: {"swaps": len(r)},
    "linprog": lambda a, k, r: dict(zip(("rows", "vars"), k["A_ub"].shape)) if "A_ub" in k else {},
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every boundary function; return the names the program no longer has."""
    missing = []
    for module, names in ((pipeline, PIPELINE), (redistribute, REDISTRIBUTE), (cli, CLI)):
        for name in names:
            if hasattr(module, name):
                tracer.wrap(module, name, note=NOTES.get(name))
            else:
                missing.append(f"{module.__name__}.{name}")
    return missing


def main() -> int:
    result_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace", "probe"):
        raise SystemExit("usage: child.py RESULT.json {plain|trace|probe} -- ARGS...")
    tracer = Tracer()
    result = {"mode": mode, "unwrapped": install(tracer) if mode == "trace" else []}

    def write_result():
        result["rss_kb"] = peak_rss_kb()
        result["spans"] = tracer.spans
        with open(result_path, "w") as fh:
            json.dump(result, fh)

    load = pipeline.load_microfile

    def mark_loaded(*args, **kwargs):
        table = load(*args, **kwargs)
        result["t_loaded"] = time.perf_counter()
        if mode == "probe":
            write_result()
            os._exit(0)
        return table

    pipeline.load_microfile = mark_loaded
    result["t_start"] = time.perf_counter()
    code = cli.main(argv)
    result["t_end"] = time.perf_counter()
    result["exit"] = code
    write_result()
    return code


if __name__ == "__main__":
    sys.exit(main())
