#!/usr/bin/env python3
"""rotornv benchmark: closed-loop user workloads, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is dense-scan or strobed-image, the workloads that BENCHMARK.json
lists, or echo-sensing or readout-study, which stay runnable but are left
out of that list because their figures do not repeat over seeds within the
bounds (see README.md).
Every workload is a closed loop with one client: one process, BLAS threads pinned
to 1, each operation starting after the previous one finished.

--trace 0 times a fixed number of operations, sized to fill S seconds on
the reference machine, and prints the end-to-end metrics.  The operation
times are reported at reference speed: each is scaled by the time of a
fixed reference job run beside it, which takes 150 ms at reference speed,
so that the host's speed swings cancel (see worker.reference); set-up
time is scaled in the same way by a bare ``import numpy`` interpreter;
--trace 1 runs a fixed set of operations untraced and then traced, and
prints the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Per-run records (every operation, and the
spans of a traced run) are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

WORKLOADS = ("echo-sensing", "dense-scan", "readout-study", "strobed-image")
LAYERS = ("cli", "config", "pipeline", "seqlang", "spindyn", "photophysics", "estimation", "imaging")
SETUP_REPEATS = (5, 4)  # fresh interpreters timed before and after the worker
IMPORT_REPEATS = 3
RUN_BUDGET_S = 170.0  # the whole run, worker included
SETUP_CODE = "import rotornv; from rotornv.config import config_from_dict; config_from_dict({})"
# set-up's speed reference: a fresh interpreter that imports numpy only, and
# its time at reference speed
SETUP_REF_CODE = "import numpy"
SETUP_REF_S = 0.2
FIT_SPANS = ("fit_echo", "fit_rabi", "fit_spot_width")

HERE = os.path.dirname(os.path.abspath(__file__))


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], env: dict, cwd: str, deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion; on timeout it is killed and waited for."""
    return subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))


def setup_seconds(env: dict, root: str, deadline: float, n: int) -> list[tuple[float, float]]:
    """Set-up time of ``n`` fresh interpreters that import rotornv and build the default config.

    Returns (wall time, time at reference speed) for each.  The host's speed
    swings (see worker.reference), so each one is scaled by the mean time of
    the bare ``import numpy`` interpreters started just before and after it:
    the same kind of work (process start, imports, shared libraries), which
    follows the swings where the reference job of the operations does not.
    """
    def wall(code: str) -> float:
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", code], env, root, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        return time.perf_counter() - t0

    out = []
    before = wall(SETUP_REF_CODE)
    for _ in range(n):
        own = wall(SETUP_CODE)
        after = wall(SETUP_REF_CODE)
        out.append((own, own * SETUP_REF_S * 2.0 / (before + after)))
        before = after
    return out


def import_ms(env: dict, root: str, deadline: float) -> tuple[float, float]:
    """(import rotornv, of which scipy) in ms, from ``-X importtime``."""
    proc = run_child([sys.executable, "-X", "importtime", "-c", "import rotornv"], env, root, deadline)
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()}")
    # the report is in post-order: a line's children are the pending lines one level deeper
    entries, pending = [], []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entry = {"name": name.strip(), "cum_us": int(cum), "depth": depth, "parent": ""}
        while pending and pending[-1]["depth"] > depth:
            child = pending.pop()
            if child["depth"] == depth + 1:
                child["parent"] = entry["name"]
        pending.append(entry)
        entries.append(entry)
    total = next(e["cum_us"] for e in entries if e["name"] == "rotornv")
    scipy = sum(
        e["cum_us"]
        for e in entries
        if e["name"].split(".")[0] == "scipy" and e["parent"].split(".")[0] != "scipy"
    )
    return total / 1e3, scipy / 1e3


def sloc(src: str) -> dict:
    """Non-blank, non-comment lines of each package module."""
    out = {}
    for path in sorted(glob.glob(os.path.join(src, "rotornv", "*.py"))):
        mod = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            n = sum(1 for ln in fh if ln.strip() and not ln.strip().startswith("#"))
        out[f"{'init' if mod == '__init__' else mod}.sloc"] = n
    return out


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, beyond).

    With fewer than 20 samples no percentile above the median has 10 beyond
    it, and the median is reported in its place.
    """
    s = sorted(times)
    n = len(s)
    if n < 20:
        return statistics.median(s), 50.0, n // 2
    return s[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(res: dict, setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    ops = res["ops"]
    # operation times at reference speed: each wall time scaled by the
    # reference job's time around it (see worker.reference)
    norms = [o["norm_s"] for o in ops]
    walls = [o["wall_s"] for o in ops]
    n = len(ops)
    failed = sum(1 for o in ops if o["failure"])
    tail_v, tail_p, beyond = tail(norms)
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "op_p50_ms": (statistics.median(norms) * 1e3, "ms"),
        "op_tail_ms": (tail_v * 1e3, "ms"),
        "ops_per_s": (n / sum(norms), "1/s"),
        "success_rate": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    speed = res["ref_s"] / statistics.median(o["ref_s"] for o in ops)
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters at reference speed; as timed: "
        + ", ".join(f"{own:.3f}" for own, _ in setup),
        f"op_tail_ms: p{tail_p:.1f} of {n} operations, {beyond} beyond it"
        + (" (fewer than 20 operations: the median)" if n < 20 else ""),
        f"machine speed (reference job at {res['ref_s'] * 1e3:.0f} ms = 1): median {speed:.3f};"
        f" as timed, op p50 {statistics.median(walls) * 1e3:.1f} ms, {n / sum(walls):.4f} ops/s",
        f"error_rate: {failed}/{n} = {failed / n:.4f}",
    ]
    kinds = Counter(o["failure"] for o in ops if o["failure"])
    if kinds:
        notes.append("failures: " + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items())))
    covered = [o["within_3"] for o in res["warmup"] + ops if "within_3" in o]
    if covered:
        notes.append(f"3-sigma coverage of completed fits: {sum(covered)}/{len(covered)}"
                     f" = {sum(covered) / len(covered):.3f}")
    return metrics, notes


def per_layer(res: dict, imports: list[tuple[float, float]], src: str) -> tuple[dict, list[str], bool]:
    spans = res["spans"]
    ops = sorted({s["op"] for s in spans})
    n = len(ops)
    roots = {s["op"]: s for s in spans if s["parent"] < 0}
    self_layer = defaultdict(float)
    self_sum = defaultdict(float)
    calls = Counter()
    dur = defaultdict(float)
    self_name = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            self_layer[s["layer"]] += s["self_s"]
            self_sum[s["op"]] += s["self_s"]
        calls[s["name"]] += 1
        dur[s["name"]] += s["dur_s"]
        self_name[s["name"]] += s["self_s"]

    # a fit's useful starts end within 1e-9 relative cost of its best start
    starts = defaultdict(list)
    for s in spans:
        if s["name"] == "levenberg_marquardt":
            starts[s["parent"]].append(s["cost"])
    n_starts = sum(len(c) for c in starts.values())
    useful = sum(sum(1 for c in cs if c <= min(cs) * (1.0 + 1e-9)) for cs in starts.values())
    pixels = sum(s.get("pixels", 0) for s in spans)

    m = {
        "setup.import_ms": (statistics.median(i for i, _ in imports), "ms"),
        "setup.import_scipy_ms": (statistics.median(s for _, s in imports), "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (1e3 * self_layer[layer] / n, "ms")
    m.update({
        "pipeline.window_response.calls": (calls["window_response"] / n, "count"),
        "pipeline.window_response.ms": (1e3 * dur["window_response"] / n, "ms"),
        "photophysics.readout_solves": (calls["readout_response"] / n, "count"),
        "seqlang.parse.calls": (calls["parse_sequence"] / n, "count"),
        "seqlang.compile.calls": (calls["compile_timeline"] / n, "count"),
        "seqlang.calibration.calls": (calls["build_calibration"] / n, "count"),
        "spindyn.simulate.calls": (calls["simulate_sequence"] / n, "count"),
        "estimation.lm_starts": (n_starts / n, "count"),
        "estimation.lm_iterations": (
            sum(s["iterations"] for s in spans if s["name"] == "levenberg_marquardt") / n, "count"),
        "estimation.lm_useful_ratio": (useful / n_starts if n_starts else 0.0, "ratio"),
        "estimation.fit_failures": (
            sum(1 for s in spans if s["name"] in FIT_SPANS
                and ("error" in s or s.get("converged") is False)) / n, "count"),
        "imaging.render.self_ms": (1e3 * self_name["render_image"] / n, "ms"),
        "imaging.render.us_per_pixel": (1e6 * dur["render_image"] / pixels if pixels else 0.0, "us"),
        "imaging.pixels": (pixels / n, "count"),
        "imaging.spot_fit.self_ms": (1e3 * self_name["fit_spot_width"] / n, "ms"),
    })
    plain = statistics.median(o["wall_s"] for o in res["plain"])
    traced = statistics.median(roots[i]["dur_s"] for i in ops)
    m["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    for name, lines in sloc(src).items():
        m[name] = (lines, "lines")

    # spans must nest: each inside its parent's interval and operation, with a
    # self time >= 0; then the self times of an operation sum to at most its wall time
    nested = all(
        s["self_s"] >= -1e-9
        and (s["parent"] < 0 or (
            spans[s["parent"]]["op"] == s["op"]
            and spans[s["parent"]]["start_s"] <= s["start_s"] <= s["end_s"] <= spans[s["parent"]]["end_s"]))
        for s in spans
    )
    fits = all(self_sum[i] <= roots[i]["dur_s"] + 1e-9 for i in ops)
    notes = [
        f"traced {n} operations; untraced p50 {plain * 1e3:.1f} ms, traced p50 {traced * 1e3:.1f} ms",
        "layer self time / operation wall time: "
        + ", ".join(f"{self_sum[i] / roots[i]['dur_s']:.4f}" for i in ops),
        f"spans nest within their parents: {nested}",
        f"traced outputs identical to untraced: {res['traced_outputs_match']}",
    ]
    return m, notes, nested and fits and res["traced_outputs_match"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, subprocess.run kills and waits for the running child before exiting
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + RUN_BUDGET_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rotornv", "__init__.py")):
        print(f"error: no rotornv package under {src}; run from the repository root", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(src)

    if args.trace == 0:
        setup = setup_seconds(env, root, deadline, SETUP_REPEATS[0])
    else:
        imports = [import_ms(env, root, deadline) for _ in range(IMPORT_REPEATS)]

    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    proc = run_child(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", stem + ".json", "--src", src],
        env, root, deadline,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    with open(stem + ".json", encoding="utf-8") as fh:
        res = json.load(fh)
    if args.trace == 0:
        setup += setup_seconds(env, root, deadline, SETUP_REPEATS[1])

    records = res["warmup"] + res.get("ops", []) + res.get("plain", []) + res.get("traced", [])
    bad = [r for r in records if r["failure"] and not r["known"]]
    if args.trace == 0:
        metrics, notes = end_to_end(res, setup)
        counted = res["ops"]
        sound = True
    else:
        metrics, notes, sound = per_layer(res, imports, src)
        counted = res["traced"]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(counted)} operations after {len(res['warmup'])} warm-up")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  output digest of the {len(res['warmup'])} warm-up operations: sha256 {res['digest']}")
    for r in bad:
        print(f"  UNEXPECTED FAILURE op {r['i']}: {r['failure']}: {r['detail']}")

    print(json.dumps({
        "correct": not bad and sound,
        "attempted": len(counted),
        "failed": sum(1 for r in counted if r["failure"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
