"""tscbench benchmark: throughput of tune, evaluate and train on the corridor.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

With --trace 0 each workload repeats a short pass until --seconds is up (at
least twice) and prints its end-to-end metrics, which take each part of a
pass at its fastest repeat (see NOTES.md).
With --trace 1 it runs one untraced and one traced pass and prints the
per-layer metrics. Every pass is checked; a failed check makes `correct`
false and the exit code 1. The last line of standard output is one JSON
object: correct, attempted, failed and metrics. A full record, with
provenance, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("corridor_tune", "corridor_eval", "corridor_dqn_1x1",
                  "corridor_dqn_2x1")


def pin_blas_threads() -> list:
    """Set the unset BLAS thread variables to 1; returns the ones it set.

    Call before numpy loads: the thread count can change both the timings
    and the bit-exactness of the neural-network digests.
    """
    pinned = [v for v in BLAS_THREAD_VARS if v not in os.environ]
    for var in pinned:
        os.environ[var] = "1"
    return pinned


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def src_digest(src) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(wl, seed, pinned) -> dict:
    import numpy as np
    cfg = np.show_config(mode="dicts")
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": cfg["Build Dependencies"]["blas"],
        "simd": cfg["SIMD Extensions"],
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads_pinned_by_benchmark": pinned,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(wl.ROOT),
        "src_sha256": src_digest(wl.SRC),
        "seed": seed,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(res) -> None:
    name = res["workload"]
    print(f"== {name}  seed={res['seed']}  trace={res['trace']}  "
          f"passes={res['passes']}")
    rows = dict(res["metrics"])
    rows.update(res.get("extra", {}))
    for metric, (value, unit) in rows.items():
        note = res["notes"].get(metric, "")
        print(f"{name:18s} {metric:28s} {_fmt(value):>14s} {unit:6s} {note}")
    print(f"{name:18s} digests: {res['digest_note']}")
    if res["digest_note"].startswith("not checked: numpy"):
        print(f"bench: {name}: expected digests not checked, as numpy, BLAS "
              f"or the CPU differ from the recorded ones; only the "
              f"pass-to-pass check ran", file=sys.stderr)
    for problem in res["problems"]:
        print(f"{name:18s} CHECK FAILED: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pin_blas_threads()
    try:
        import workloads as wl
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    prov = provenance(wl, args.seed, pinned)
    results = []
    for name in names:
        res = wl.run(name, args.seed, args.seconds, bool(args.trace))
        res["provenance"] = prov
        report(res)
        results.append(res)
        wl.OUT.mkdir(exist_ok=True)
        with open(wl.OUT / f"result_{name}_seed{args.seed}_trace{args.trace}"
                  f".json", "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)

    by_name = {r["workload"]: r for r in results}
    if not args.trace and {"corridor_dqn_1x1", "corridor_dqn_2x1"} <= set(by_name):
        one = by_name["corridor_dqn_1x1"]["metrics"]["episodes_per_s"][0]
        two = by_name["corridor_dqn_2x1"]["metrics"]["episodes_per_s"][0]
        print(f"actor scaling (2 actors / 1 actor) = {two:.4g} / {one:.4g} "
              f"episodes/s = {two / one:.3f}")
    print("provenance " + json.dumps(prov, default=str))

    single = len(results) == 1
    metrics = {}
    for r in results:
        for metric, (value, unit) in r["metrics"].items():
            key = metric if single else f"{r['workload']}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
