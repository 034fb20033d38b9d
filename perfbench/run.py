#!/usr/bin/env python3
"""catebench benchmark: the six CLI commands on seeded synthetic cohorts.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up generates the workload's cohort CSV from a ``synth`` preset
and the seed, at least five times and for 6 s; ``setup_s`` is the median.
The run then repeats the workload's commands through ``catebench.cli.main``
while the next repeat is expected to end within ``--seconds``, checks every
output, and reports medians over the repeats.  End-to-end times are scaled
by a reference kernel timed between the operations (see "host speed" below).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics from the traced ones (see spans.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload, each in a process of its own, and
prints every metric under the name of the command it times.

Everything the run writes goes under ``.perfbench/`` in the checkout: the
work directory (removed at the end), and a record per run with the
environment, per-repeat figures and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

# Set-up runs at least SETUP_REPEATS times and for at least SETUP_SECONDS.
SETUP_REPEATS = 5
SETUP_SECONDS = 6.0
# Nominal duration of the reference kernel; end-to-end times are scaled to it.
REF_SECONDS = 0.1
# |estimate - truth| allowed for ate/att/atu from `cate`, in outcome units.
# On seeds 1-30 the largest error was 0.40 (dose_surface, depth 2 leaves a
# bias of about -0.3) and 0.59 (continuous_deep).
TRUTH_TOLERANCE = 1.0
# att2 and att come from fits that share a seed, rows and bootstrap draws.
ATT2_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Step:
    metric: str  # per-command name printed by the runner, e.g. "phi_s"
    command: tuple  # CLI command and its workload-specific flags


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    n: int
    round_x1: bool
    steps: tuple  # step k is reported as end-to-end metric f"step{k+1}_s"


# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dose_surface", "biased_dose", 10_000, True,
            (Step("cate_s", ("cate",)),
             Step("phi_s", ("phi",)),
             Step("dose_reg_s", ("dose-reg",))),
        ),
        Workload(
            "continuous_deep", "standard_biased", 8_000, False,
            (Step("cate_s", ("cate", "--depth", "4", "--jobs", "1")),
             Step("cate_jobs2_s", ("cate", "--depth", "4", "--jobs", "2")),
             Step("dose_reg_s", ("dose-reg", "--depth", "4"))),
        ),
        Workload(
            "ingest", "standard_biased", 50_000, True,
            (Step("synth_s", ("synth",)),
             Step("summarize_s", ("summarize",)),
             Step("tree_s", ("tree",))),
        ),
    )
}


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _digest_dir(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _expect_files(out: Path, names) -> None:
    present = sorted(p.name for p in out.iterdir())
    _require(present == sorted(names), f"{out.name}: expected files {sorted(names)}, got {present}")


# --- output checks --------------------------------------------------------------
# Each takes (step, out dir, run context) and raises CheckFailed.  The context
# carries the set-up files and values one step leaves for a later one.


def check_cate(step, out, ctx):
    _expect_files(out, ["effect_report.csv", "summary.json"])
    summary = _read_json(out / "summary.json")
    _require(summary["n"] == ctx["n"], f"cate: n={summary['n']}, cohort has {ctx['n']}")
    truth = ctx["truth"]
    for key in ("ate", "att", "atu"):
        err = abs(summary[key] - truth[f"true_{key}"])
        _require(err <= TRUTH_TOLERANCE, f"cate: {key} off truth by {err:.4g}")
    ctx.setdefault("att", summary["att"])
    digest = _digest_dir(out)
    ctx.setdefault("cate_digest", digest)
    _require(digest == ctx["cate_digest"], "cate: --jobs 1 and --jobs 2 outputs differ")


def check_phi(step, out, ctx):
    _expect_files(out, ["phi_matrix.json", "phi_surface.csv", "summary.json"])
    summary = _read_json(out / "summary.json")
    _require(summary["independence"]["n_violations"] == 0, "phi: independence violations")
    if "att" in ctx:
        gap = abs(summary["att2"] - ctx["att"])
        _require(gap <= ATT2_TOLERANCE, f"phi: att2 differs from att by {gap:.3g}")
    matrix = _read_json(out / "phi_matrix.json")
    _require(matrix["n_missing"] == 0, "phi: empty cells in the surface")


def check_dose_reg(step, out, ctx):
    _expect_files(out, ["ols.json", "tau_scatter.csv"])
    fit = _read_json(out / "ols.json")
    _require(fit["n"] == ctx["n"], f"dose-reg: n={fit['n']}, cohort has {ctx['n']}")
    _require(all(math.isfinite(c) for c in fit["coefficients"]), "dose-reg: non-finite coefficient")
    _require(0.0 <= fit["r_squared"] <= 1.0, "dose-reg: r_squared outside [0, 1]")
    with (out / "tau_scatter.csv").open(encoding="utf-8") as fh:
        _require(sum(1 for _ in fh) == ctx["n"] + 1, "dose-reg: scatter row count")


def check_synth(step, out, ctx):
    _expect_files(out, ["cohort.csv", "cohort.truth.json"])
    _require(_digest_file(out / "cohort.csv") == ctx["csv_digest"],
             "synth: cohort.csv differs from the set-up CSV")
    _require(_digest_file(out / "cohort.truth.json") == ctx["truth_digest"],
             "synth: cohort.truth.json differs from the set-up truth")


def check_summarize(step, out, ctx):
    _expect_files(out, ["summary.json", "summary.txt"])
    s = _read_json(out / "summary.json")
    _require(s["n"] == ctx["n"] and s["n_treated"] + s["n_control"] == s["n"],
             "summarize: record counts")
    _require(s["mean_y_treated"] - s["mean_y_control"] < 0.0,
             "summarize: naive gap is not negative (no bias inversion)")


def check_tree(step, out, ctx):
    _expect_files(out, ["tree.json", "tree.txt"])
    tree = _read_json(out / "tree.json")
    _require(tree["n"] == ctx["n"], "tree: root count differs from the cohort size")
    _require(tree["split"] is not None, "tree: root has no split")


CHECKS = {
    "cate": check_cate,
    "phi": check_phi,
    "dose-reg": check_dose_reg,
    "synth": check_synth,
    "summarize": check_summarize,
    "tree": check_tree,
}


# --- host speed -------------------------------------------------------------------
# On a shared host the CPU speed drifts by 20-50 % over seconds to minutes, and
# every wall time in a run moves with it.  So a fixed kernel of the benchmark's
# own is timed before the first and after every timed operation, and end-to-end
# metrics are scaled wall times: median wall seconds * REF_SECONDS / median
# kernel seconds of the same phase (set-up, or the timed repeats).  A change
# to catebench cannot move the kernel, so the scaled time moves with the
# program and not with the host.  Wall medians are kept in the run record and
# printed beside the scaled ones.


def _reference_kernel() -> float:
    """Array sorts, scans and masks over 30k values plus CSV-style string work:
    the mix of the forest split search and the cohort readers and writers."""
    x = np.random.default_rng(12345).standard_normal(30_000)
    acc = 0.0
    for _ in range(10):
        idx = np.argsort(x, kind="stable")
        acc += float(np.cumsum(x[idx])[-1]) + float(x[x < 0.1].sum())
        acc += float(np.unique(np.round(x, 2)).size)
    groups = {}
    for i, v in enumerate(x[:12_000].tolist()):
        a, b, c = f"{i},{v:.6f},{v * 2:.4f}".split(",")
        groups[int(a) % 97] = groups.get(int(a) % 97, 0.0) + float(b) + float(c)
    return acc + sum(groups.values())


def time_reference(refs: list) -> None:
    gc.collect()
    start = time.perf_counter()
    _reference_kernel()
    refs.append(time.perf_counter() - start)


# --- environment ----------------------------------------------------------------


def environment(workload: Workload, seed: int) -> dict:
    import scipy

    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "catebench").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,  # Generator streams are stable only within one version
        "scipy": scipy.__version__,
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "workload": workload.name,
        "preset": workload.preset,
        "n": workload.n,
        "round_x1": workload.round_x1,
        "seed": seed,
    }


# --- one workload -----------------------------------------------------------------


def setup(workload: Workload, seed: int, work: Path, refs: list):
    """Generate the cohort CSV and its truth file; returns (times, context)."""
    from catebench import synth

    config = work / "scenario.json"
    config.write_text(json.dumps(
        {"preset": workload.preset, "n": workload.n, "round_x1": workload.round_x1}
    ), encoding="utf-8")
    csv_path = work / "cohort.csv"
    times, digests = [], set()
    time_reference(refs)
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        gc.collect()
        t0 = time.perf_counter()
        cohort, truth = synth.generate(synth.load_scenario(config), seed)
        truth_path = synth.save_synthetic(cohort, truth, csv_path)
        times.append(time.perf_counter() - t0)
        del cohort, truth
        time_reference(refs)
        digests.add((_digest_file(csv_path), _digest_file(truth_path)))
    _require(len(digests) == 1, "set-up is not deterministic")
    (csv_digest, truth_digest), = digests
    truth = _read_json(truth_path)
    ctx = {
        "config": config,
        "csv": csv_path,
        "csv_digest": csv_digest,
        "truth_digest": truth_digest,
        "n": workload.n,
        "truth": {k: truth[k] for k in ("true_ate", "true_att", "true_atu")},
    }
    return times, ctx


def _argv(step: Step, ctx: dict, out: Path, seed: int) -> list:
    command, *flags = step.command
    source = ["--config", str(ctx["config"])] if command == "synth" else ["--input", str(ctx["csv"])]
    return [command, *flags, *source, "--out", str(out), "--seed", str(seed), "--quiet"]


def run_workload(workload: Workload, seed: int, seconds: int, traced_mode: bool):
    from catebench import cli

    work = OUT / f"work-{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = spans.Tracer() if traced_mode else None
    attempted = failed = 0
    errors = []
    iterations = []  # {"traced", "times": {metric: s}, "layers": {...}}
    setup_refs, refs = [], []  # reference kernel seconds, per phase
    try:
        setup_times, base_ctx = setup(workload, seed, work, setup_refs)
        digests = {}  # step metric -> output digest of the first repeat
        start = time.perf_counter()
        durations = []  # seconds per repeat, references included
        time_reference(refs)
        k = 0
        # Trace mode alternates untraced and traced repeats; it needs one of
        # each.  No repeat starts that would likely end after --seconds.
        while k < (2 if traced_mode else 1) or (
                time.perf_counter() - start + statistics.median(durations) <= seconds):
            repeat_start = time.perf_counter()
            traced = traced_mode and k % 2 == 1
            ctx = dict(base_ctx)
            record = {"traced": traced, "times": {}}
            counts = Counter()
            first_span = len(tracer.spans) if traced else 0
            for index, step in enumerate(workload.steps):
                out = work / f"out-{k}-{index}"
                argv = _argv(step, ctx, out, seed)
                attempted += 1
                gc.collect()
                try:
                    if traced:
                        tracer.run_id = f"{workload.name}/{seed}/{k}/{step.command[0]}"
                        with spans.instrument(tracer):
                            t0 = time.perf_counter()
                            code = tracer.call(spans.ROOT_SPAN, cli.main, (argv,), {})
                            elapsed = time.perf_counter() - t0
                    else:
                        t0 = time.perf_counter()
                        code = cli.main(argv)
                        elapsed = time.perf_counter() - t0
                    record["times"][step.metric] = elapsed
                    _require(code == 0, f"{step.command[0]} exited {code}")
                    CHECKS[step.command[0]](step, out, ctx)
                    digest = _digest_dir(out)
                    digests.setdefault(step.metric, digest)
                    _require(digest == digests[step.metric],
                             f"{step.command[0]}: output differs from the first repeat")
                except CheckFailed as exc:
                    failed += 1
                    errors.append(f"repeat {k}: {exc}")
                except Exception:  # a crash in the program is a failed operation
                    failed += 1
                    errors.append(f"repeat {k}: {step.command[0]} raised\n{traceback.format_exc()}")
                time_reference(refs)
                if traced:
                    tracer.flush(counts)
                shutil.rmtree(out, ignore_errors=True)
            if traced:
                layers = dict(spans.layer_times(tracer.spans, first_span),
                              **spans.layer_counts(counts))
                record["layers"] = layers
                # wall time measured around each command, against what the
                # spans account for: top-level layer spans plus cli.self_s
                record["unaccounted_s"] = sum(record["times"].values()) - (
                    spans.top_level_time(tracer.spans, first_span) + layers["cli.self_s"])
            iterations.append(record)
            durations.append(time.perf_counter() - repeat_start)
            k += 1
    except CheckFailed as exc:  # set-up itself failed
        errors.append(f"set-up: {exc}")
        failed += 1
        attempted = max(attempted, 1)
        setup_times = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setup_times, setup_refs, iterations, refs, attempted, failed, errors, tracer


def _median(values):
    return statistics.median(values) if values else float("nan")


def summarize_run(workload, setup_times, setup_refs, iterations, refs, traced_mode):
    """All metrics this run can give, keyed by their BENCHMARK.json names
    (end-to-end times scaled by the reference kernel), plus, for people
    reading the output, per-command scaled medians and all wall medians."""
    plain = [it for it in iterations if not it["traced"]]
    totals = [sum(it["times"].values()) for it in plain if len(it["times"]) == len(workload.steps)]
    wall = {"setup_s": _median(setup_times), "total_s": _median(totals)}
    for step in workload.steps:
        wall[step.metric] = _median([it["times"][step.metric] for it in plain if step.metric in it["times"]])
    scale = REF_SECONDS / _median(refs)
    named = {step.metric: wall[step.metric] * scale for step in workload.steps}
    metrics = {
        "setup_s": wall["setup_s"] * REF_SECONDS / _median(setup_refs),
        "total_s": wall["total_s"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for index, step in enumerate(workload.steps):
        metrics[f"step{index + 1}_s"] = named[step.metric]
    if traced_mode:
        traced = [it for it in iterations if it["traced"]]
        for key in spans.known_metrics() - {"trace_overhead_s"}:
            metrics[key] = _median([it["layers"].get(key, 0.0) for it in traced])
        traced_totals = [sum(it["times"].values()) for it in traced]
        metrics["trace_overhead_s"] = (_median(traced_totals) - wall["total_s"]) * scale
    return metrics, named, wall


def _finite_or_none(value):
    return value if value is not None and math.isfinite(value) else None


def main_one(args) -> int:
    workload = WORKLOADS[args.workload]
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment(workload, args.seed)
    setup_times, setup_refs, iterations, refs, attempted, failed, errors, tracer = run_workload(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    metrics, named, wall = summarize_run(
        workload, setup_times, setup_refs, iterations, refs, bool(args.trace))

    traced = [it for it in iterations if it["traced"]]
    if traced:
        layers = [it["layers"] for it in traced]
        if any(layer[k] != layers[0][k] for layer in layers for k in spans.COUNTS):
            errors.append("per-layer counts differ between traced repeats")
        if max(abs(it["unaccounted_s"]) for it in traced) > 1e-3:
            errors.append("layer spans plus cli.self_s do not add up to command wall time")

    for message in errors:
        print(f"FAILED: {message}", file=sys.stderr)
    missing = [m["name"] for m in wanted if not math.isfinite(metrics.get(m["name"], math.nan))]
    if missing:
        errors.append(f"no value for {missing}")
        print(f"FAILED: no value for {missing}", file=sys.stderr)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{workload.name}: {len(iterations)} repeats"
          f" ({len(traced)} traced) in {args.seconds} s, seed {args.seed}, n {workload.n}")
    if not args.trace:
        print(f"  {'':<14} {'scaled s':>10} {'wall s':>10}")
        print(f"  {'setup_s':<14} {metrics['setup_s']:10.6f} {wall['setup_s']:10.6f}")
        for index, step in enumerate(workload.steps):
            print(f"  {step.metric:<14} {named[step.metric]:10.6f} {wall[step.metric]:10.6f}"
                  f"   (step{index + 1}_s: {' '.join(step.command)})")
        print(f"  {'total_s':<14} {metrics['total_s']:10.6f} {wall['total_s']:10.6f}")
        print(f"  {'peak_rss_mb':<14} {metrics['peak_rss_mb']:.3f} MB")
        print(f"  {'fail_ratio':<14} {failed / attempted:.6g} ({failed}/{attempted})")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "seconds": args.seconds,
        "setup_times_s": setup_times,
        "setup_reference_times_s": setup_refs,
        "reference_times_s": refs,
        "repeats": iterations,
        "metrics": metrics,
        "per_command": named,
        "wall_s": wall,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run_id"], "spans": tracer.spans}
        ) + "\n", encoding="utf-8")

    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": _finite_or_none(metrics.get(m["name"])), "unit": m["unit"]}
            for m in wanted
        },
    }
    if args.trace:
        for m in wanted:
            print(f"  {m['name']:<44} {metrics.get(m['name'], math.nan):.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def main_all(args) -> int:
    """Every workload in a fresh process (peak RSS is per process)."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"FAILED: workload {name} exited {proc.returncode}", file=sys.stderr)
            correct = False
            continue
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "catebench" / "__init__.py").is_file():
        print(f"error: no catebench sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return main_all(args) if args.workload == "all" else main_one(args)


if __name__ == "__main__":
    sys.exit(main())
