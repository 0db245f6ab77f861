"""Record every workload's canary results in pins.json.

    python3 perfbench/pin.py

Re-pin only when the baseline is deliberately re-established: the benchmark
checks every later run against these values.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run  # pins BLAS threads and puts the library on the path

if __name__ == "__main__":
    run.WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=run.WORK))
    try:
        pins = {name: wl.canary(workdir) for name, wl in run.WORKLOADS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.PINS}")
