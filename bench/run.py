"""groupanon benchmark: fresh-process `groupanon run` on generated workloads.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's input CSV and config are generated from the seed (see
``workloads.py``).  Each timed run of ``groupanon run`` gets a fresh Python
process (``child.py``), because an operator pays imports, config parsing
and table loading on every invocation.  Runs repeat while the next one is
expected to finish within ``--seconds``; at least one always runs.  Every
run's outputs are checked (``checks.py``); a nonzero exit or a failed check
counts as a failed run.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced runs and reports per-layer metrics from the
traced ones, computed from spans recorded around the calls into each module
boundary.  It also cross-checks the stage ``timings`` of ``report.json``
against the spans around the same calls.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Without ``src/groupanon`` next to the benchmark the script exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from spans import duration, self_time

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

#: Set-up-only processes per untraced run, so setup_s is a median of several.
PROBES = 3
#: No run starts after this many seconds, so the script ends within 180 s.
LAUNCH_LIMIT_S = 120.0
#: Longest one process may take before it is killed and counted as failed.
PROCESS_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "swap_cost_mean": "cost",
    "published_bound_violations": "count",
}
#: records_per_s is printed but left out of the result line: it is
#: records / wall_s, and its reciprocal spread breaks the bound sooner.
RESULT_METRICS = ("wall_s", "setup_s", "peak_rss_mb", "swap_cost_mean",
                  "published_bound_violations")

#: Program stage name in report.json -> span that wraps the same call.
STAGE_SPANS = {
    "signal": "build_goal_signal",
    "decompose": "decompose",
    "constraints": "build_constraints",
    "solve": "solve_constraints",
    "reassemble": "reassemble",
    "repair": "_repair_and_target",
    "plan": "plan_swaps",
    "apply": "apply_swaps",
    "recount": "quantity_signal",
}
#: A report timing may exceed its span by the program's own timer overhead.
TIMING_SLACK_S = 0.005
TIMING_SLACK_FRAC = 0.02


def launch(work: Path, config: Path, mode: str, n: int, deadline: float) -> dict:
    """Run child.py once; return its result record (``exit`` None on timeout)."""
    out = work / f"run-{n}"
    result = work / f"result-{n}.json"
    argv = [sys.executable, str(BENCH / "child.py"), str(result), mode, "--",
            "run", "--config", str(config),
            "--output", str(out / "modified.csv"), "--report", str(out / "report")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with (work / f"log-{n}.txt").open("w") as log:
        launched = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, min(PROCESS_TIMEOUT_S, deadline - launched)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return {"exit": None, "out": out, "log": work / f"log-{n}.txt"}
    record = json.loads(result.read_text()) if result.exists() else {}
    record.update(exit=code, out=out, log=work / f"log-{n}.txt", launched=launched)
    return record


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and the span time of each program stage."""
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span["name"]].append(i)
    groups = set(by_name["run_group"])

    def total(name, where=lambda i: True):
        return sum(duration(spans[i]) for i in by_name[name] if where(i))

    def under_group(i):
        return spans[i]["parent"] in groups

    first_decompose = {min((i for i in by_name["decompose"] if spans[i]["parent"] == g),
                           key=lambda i: spans[i]["start"], default=None) for g in groups}
    stage_time = {stage: total(name, under_group) for stage, name in STAGE_SPANS.items()}
    stage_time["decompose"] = total("decompose", lambda i: i in first_decompose)

    def note(name, key):
        return sum(spans[i].get(key, 0) for i in by_name[name])

    lp = [spans[i] for i in by_name["linprog"]]
    plan_s = total("plan_swaps")
    swaps = note("plan_swaps", "swaps")
    metrics = {
        "remap.plan_s": (plan_s, "s"),
        "remap.swaps": (swaps, "count"),
        "remap.swaps_per_plan_s": (swaps / plan_s if plan_s > 0 else 0.0, "1/s"),
        "remap.apply_s": (total("apply_swaps"), "s"),
        "signals.goal_s": (total("build_goal_signal"), "s"),
        "signals.recount_s": (stage_time["recount"], "s"),
        "wavelet.decompose_s": (stage_time["decompose"], "s"),
        "wavelet.redecompose_s": (total("decompose", lambda i: under_group(i)
                                        and i not in first_decompose), "s"),
        "wavelet.reconstruction_matrix_s": (total("reconstruction_matrix"), "s"),
        "wavelet.reconstruction_matrix_calls": (len(by_name["reconstruction_matrix"]), "count"),
        "redistribute.build_constraints_s": (total("build_constraints"), "s"),
        "redistribute.reassemble_s": (total("reassemble"), "s"),
        "redistribute.check_solution_s": (total("check_solution"), "s"),
        "redistribute.solve_s": (total("solve_constraints"), "s"),
        "redistribute.linprog_calls": (len(lp), "count"),
        "redistribute.lp_rows": (lp[0]["rows"] if lp else 0, "count"),
        "redistribute.lp_vars": (lp[0]["vars"] if lp else 0, "count"),
        "redistribute.repair_s": (total("_repair_and_target"), "s"),
        "microfile.load_s": (total("load_microfile"), "s"),
        "microfile.bytes_read": (note("load_microfile", "bytes"), "B"),
        "microfile.write_s": (total("write_microfile"), "s"),
        "microfile.bytes_written": (note("write_microfile", "bytes"), "B"),
        "charts.svg_s": (total("svg_line_chart"), "s"),
        "pipeline.write_outputs_s": (total("write_outputs"), "s"),
        "pipeline.run_group_self_s": (sum(self_time(spans, g) for g in groups), "s"),
    }
    return metrics, stage_time


def timing_gaps(stage_time: dict, timings: dict, unwrapped=()) -> dict:
    """Report timing minus outside span time, for every stage the report lists.

    Stages whose function the tracer could not find (``unwrapped``) are skipped.
    """
    missing = {name.rsplit(".", 1)[1] for name in unwrapped}
    return {stage: value - stage_time[stage] for stage, value in timings.items()
            if stage in stage_time and STAGE_SPANS[stage] not in missing}


def timings_agree(gaps: dict, stage_time: dict) -> bool:
    return all(-2e-6 <= gap <= TIMING_SLACK_S + TIMING_SLACK_FRAC * stage_time[stage]
               for stage, gap in gaps.items())


def median_metrics(samples: list[dict]) -> dict:
    """Per metric, the median over samples of {name: (value, unit)}."""
    return {name: (statistics.median(s[name][0] for s in samples), unit)
            for name, (_, unit) in samples[0].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "groupanon" / "cli.py").is_file():
        print(f"no groupanon sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from checks import CheckFailed, check_run, read_table
    from workloads import GENERATORS

    if args.workload not in GENERATORS:
        print(f"unknown workload {args.workload!r}; have {sorted(GENERATORS)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = GENERATORS[args.workload](work, args.seed)
        table_in = read_table(wl.input)
        deadline = started + PROCESS_TIMEOUT_S
        attempted = failed = 0
        n = 0
        setups, plain, traced, problems = [], [], [], []

        def full(mode):
            nonlocal attempted, failed, n
            n += 1
            attempted += 1
            rec = launch(work, wl.config, mode, n, deadline)
            try:
                if rec["exit"] != 0:
                    raise CheckFailed(f"exit code {rec['exit']}: "
                                      + rec["log"].read_text()[-2000:])
                rec.update(check_run(wl, table_in, rec["out"] / "modified.csv",
                                     rec["out"] / "report"))
                rec["wall_s"] = rec["t_end"] - rec["t_start"]
                setups.append(rec["t_loaded"] - rec["launched"])
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                failed += 1
                problems.append(f"{mode} run {n}: {exc}")
                return None
            finally:
                shutil.rmtree(rec["out"], ignore_errors=True)
            return rec

        if not args.trace:
            for _ in range(PROBES):
                n += 1
                rec = launch(work, wl.config, "probe", n, deadline)
                if rec["exit"] == 0 and "t_loaded" in rec:
                    setups.append(rec["t_loaded"] - rec["launched"])
                else:
                    attempted += 1
                    failed += 1
                    problems.append(f"set-up probe {n} failed")

        window = time.perf_counter()
        while True:
            began = time.perf_counter()
            rec = full("plain")
            if rec:
                plain.append(rec)
            if args.trace:
                rec = full("trace")
                if rec:
                    traced.append(rec)
            now = time.perf_counter()
            last = now - began
            if failed or now - window + last > args.seconds or now - started + last > LAUNCH_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    metrics, table = {}, []
    if plain:
        wall = statistics.median(r["wall_s"] for r in plain)
        e2e = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "records_per_s": wl.records / wall,
            "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in plain),
            "swap_cost_mean": statistics.median(r["swap_cost_mean"] for r in plain),
            "published_bound_violations": statistics.median(
                r["published_bound_violations"] for r in plain),
        }
        table += [(k, v, END_TO_END_UNITS[k]) for k, v in e2e.items()]
        if not args.trace:
            metrics = {k: {"value": e2e[k], "unit": END_TO_END_UNITS[k]} for k in RESULT_METRICS}
    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    if traced and plain:
        samples, gaps = [], []
        for rec in traced:
            layer, stage_time = layer_metrics(rec["spans"])
            if rec["unwrapped"]:
                print(f"not traced, gone from the program: {rec['unwrapped']}", file=sys.stderr)
            gap = timing_gaps(stage_time, rec["timings"], rec["unwrapped"])
            if not timings_agree(gap, stage_time):
                correct = False
                print(f"FAILED report timings disagree with spans: {gap}", file=sys.stderr)
            gaps.append(max((abs(g) for g in gap.values()), default=0.0))
            layer["trace.wall_s"] = (rec["wall_s"], "s")
            layer["trace.untimed_s"] = (rec["wall_s"] - sum(rec["timings"].values()), "s")
            samples.append(layer)
        layer = median_metrics(samples)
        layer["trace.overhead_s"] = (layer["trace.wall_s"][0] - wall, "s")
        layer["trace.timings_max_gap_s"] = (max(gaps), "s")
        table += [(k, v, unit) for k, (v, unit) in layer.items()]
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layer.items()}

    table.append(("failed_frac", failed / attempted, "fraction"))
    print(f"workload {args.workload}  seed {args.seed}  records {wl.records}  "
          f"runs {len(plain)} plain + {len(traced)} traced, {len(setups)} set-up samples")
    print("  wall_s of each untraced run: " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    for name, value, unit in table:
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
