"""One workload in its own process: warm-up, then the timed or the traced pass.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
BLAS threads pinned to 1:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \\
        --out FILE --src SRC

The timed pass runs a fixed number of operations, set by the workload and
S, and times the reference job (see `reference`) before the first and after
every operation.  Writes a JSON record of every operation (wall time, the
reference time around it, failure class) and, for the traced run, the
spans, to FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

import rotornv
from spantrace import Tracer
from workloads import KNOWN_DEFECTS, WORKLOADS, Outcome


REF_S = 0.15  # the reference job's time at reference speed, seconds
# the reference job's fixed inputs: a 2 MB array, larger than a core's own
# cache, and the order in which it is gathered
REF_ARRAY = np.random.default_rng(2).random(1 << 18)
REF_ORDER = np.random.default_rng(3).permutation(1 << 18)
REF_SPIN = np.array([[1.0, 0.2j, 0.0], [-0.2j, 0.0, 0.1], [0.0, 0.1, -1.0]])


def reference() -> float:
    """Wall time of a fixed job that does not touch rotornv.

    The host's speed swings by up to 1.7x in spells of seconds to minutes
    (contention with other tenants: CPU time moves with wall time).  Timed
    beside each operation, this job gives the machine's speed at that
    moment.  It mixes what rotornv's operations spend their time on, so
    that its time follows the same swings: interpreter loops, building,
    sorting, formatting and parsing many small objects (the text round
    trip), many numpy calls on tiny arrays (spin propagation), and passes
    over an array that does not fit in a core's own cache.  It takes about
    REF_S on this benchmark's 2-vCPU reference machine.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(60_000):
        acc += k * k % 7
    rows = [{"t": k * 0.37, "name": f"pulse{k % 17}", "phase": k * 13 % 360} for k in range(8_000)]
    rows.sort(key=lambda r: (r["name"], -r["t"]))
    text = "\n".join(f"{r['name']} {r['t']:.6f} {r['phase']}" for r in rows)
    for line in text.splitlines():
        _, t, phase = line.split()
        acc += float(t) + int(phase)
    v = np.ones(3, dtype=complex)
    for _ in range(5_000):
        v = REF_SPIN @ v
        v = v / np.linalg.norm(v)
    m = np.full((60, 60), 0.5)
    for _ in range(60):
        m = np.tanh(m @ m * 0.01) + 0.1
    for _ in range(25):
        acc += float((REF_ARRAY * 1.0001 + 0.5).sum()) + float(REF_ARRAY[REF_ORDER].sum())
    return time.perf_counter() - t0


def run_op(wl, i: int, tracer=None) -> tuple[float, object]:
    x = wl.prepare(i)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = wl.run(x)
        else:
            with tracer.operation(i):
                raw = wl.run(x)
        wall = time.perf_counter() - t0
    except Exception as exc:  # a crash is a failed operation, reported with its type
        return time.perf_counter() - t0, Outcome("exception", f"{type(exc).__name__}: {exc}")
    return wall, wl.check(x, raw)


def record(i: int, wall: float, outcome, known: set) -> dict:
    return {
        "i": i,
        "wall_s": wall,
        "failure": outcome.failure,
        "known": outcome.failure in known,
        "detail": outcome.detail,
        **outcome.stats,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    src = os.path.realpath(args.src)
    if not os.path.realpath(rotornv.__file__).startswith(src + os.sep):
        print(f"rotornv imported from {rotornv.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = os.path.join(os.path.dirname(os.path.abspath(args.out)), f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        known = KNOWN_DEFECTS.get(wl.name, set())

        # warm-up: a fixed, seed-determined set of operations; their outputs
        # make the digest, which therefore repeats exactly for a seed
        digest = hashlib.sha256()
        warm = []
        for i in range(wl.warmup):
            wall, outcome = run_op(wl, i)
            digest.update(outcome.outputs)
            warm.append(record(i, wall, outcome, known))

        result = {"warmup": warm, "digest": digest.hexdigest()}
        first = wl.warmup
        if args.trace == 0:
            # a fixed set of operations, so attempted and failed repeat exactly
            # for a seed; each is scaled by the reference time around it
            ops = []
            reference()  # its first call pays for numpy's warm-up
            before = reference()
            for i in range(first, first + wl.timed_ops(args.seconds)):
                wall, outcome = run_op(wl, i)
                after = reference()
                ref = (before + after) / 2.0
                ops.append({**record(i, wall, outcome, known), "ref_s": ref, "norm_s": wall * REF_S / ref})
                before = after
            result["ops"] = ops
            result["ref_s"] = REF_S
        else:
            # the same fixed operations untraced, then traced; counts repeat exactly
            ids = range(first, first + wl.trace_ops)
            plain, plain_digest = [], hashlib.sha256()
            for i in ids:
                wall, outcome = run_op(wl, i)
                plain_digest.update(outcome.outputs)
                plain.append(record(i, wall, outcome, known))
            tracer = Tracer()
            tracer.install()
            traced, traced_digest = [], hashlib.sha256()
            try:
                for i in ids:
                    wall, outcome = run_op(wl, i, tracer)
                    traced_digest.update(outcome.outputs)
                    traced.append(record(i, wall, outcome, known))
            finally:
                tracer.uninstall()
            self_s = tracer.self_times()
            result.update(
                plain=plain,
                traced=traced,
                traced_outputs_match=plain_digest.digest() == traced_digest.digest(),
                spans=[
                    {
                        "name": s.name,
                        "layer": s.layer,
                        "parent": s.parent,
                        "op": s.op,
                        "start_s": s.start,
                        "end_s": s.end,
                        "dur_s": s.end - s.start,
                        "self_s": own,
                        **s.info,
                    }
                    for s, own in zip(tracer.spans, self_s)
                ],
            )
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
