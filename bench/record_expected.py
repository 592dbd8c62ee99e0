"""Record the expected output digests in bench/expected.json.

    python3 bench/record_expected.py

Runs one pass of every workload that has digests, on the default and the
held-out seed, and stores the digests with the pass sizes and, for the
neural-network digests, the numpy/BLAS/CPU fingerprint they depend on. Run it
only when a change is meant to alter the program's outputs, and say so.
"""

import json
import sys

import run

run.pin_blas_threads()
import workloads as wl  # noqa: E402


def main() -> int:
    table = {}
    for name, workload in wl.WORKLOADS.items():
        for seed in (wl.DEFAULT_SEED, wl.HELD_OUT_SEED):
            state = workload.setup(wl.SIZES)
            res = wl.run_pass(workload, state, seed, wl.SIZES, {})
            if res["problems"]:
                print(f"{name} seed {seed}: {res['problems']}", file=sys.stderr)
                return 1
            if res["digests"]:
                table.setdefault(name, {})[str(seed)] = res["digests"]
                print(name, seed, res["digests"])
    with open(wl.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"sizes": wl.SIZES, "platform": wl.platform_fingerprint(),
                   "digests": table}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
