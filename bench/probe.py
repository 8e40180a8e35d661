"""Set-up probe: a fresh interpreter runs until its first operation is done.

Started by run.py with PYTHONPATH pointing at the checkout's src/:

    python3 bench/probe.py WORKLOAD SEED

Set-up covers importing the package, generating the workload's inputs and
any lazy initialisation paid by the first call. The probe prints one JSON
line: ``done``, the CLOCK_MONOTONIC time at which the first operation
returned, and ``error``, null when the operation passed its check.
"""
import json
import sys
import time


def main(workload: str, seed: int) -> None:
    import workloads

    wl = workloads.WORKLOADS[workload]
    x = wl.make_inputs(seed)[0]
    try:
        out = wl.run(x)
        done = time.monotonic()
        wl.check(x, out)
        error = None
    except Exception as exc:  # reported to run.py, which counts it as failed
        done = time.monotonic()
        error = f"{type(exc).__name__}: {exc}"
    print(json.dumps({"done": done, "error": error}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
