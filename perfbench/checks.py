"""Correctness checks whose failures feed ``failed`` and ``fail_ratio``.

Exact checks rebuild IFO totals from recorded events and compare sequence
digests with the pinned baseline; tolerance checks compare final gradient
norms with the pinned baseline within ``PIN_RTOL`` and ``PIN_ATOL``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Tolerance on pinned floating-point results (final ||grad F||^2, trajectory
# means, objective values): |got - pinned| <= PIN_RTOL * |pinned| + PIN_ATOL.
# Same-machine reruns agree bit for bit.  The slack admits a changed
# summation order (a relative change near 1e-10 in the iterates), and the
# absolute part treats squared gradient norms below 1e-12, which are
# round-off at convergence, as equal.
PIN_RTOL = 1e-6
PIN_ATOL = 1e-12


class Checks:
    """Accumulates named pass/fail records for one benchmark run."""

    def __init__(self):
        self.records = []

    def check(self, name: str, ok, detail: str = "") -> bool:
        ok = bool(ok)
        self.records.append({"name": name, "ok": ok, "detail": detail})
        return ok

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)

    def failures(self) -> list:
        return [r for r in self.records if not r["ok"]]


def digest(values, dtype) -> str:
    """sha256 of a sequence stored with a fixed dtype (hex, first 16)."""
    arr = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def bytes_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def events_ifo(algorithm: str, n: int, result) -> int:
    """IFO total rebuilt from a run's recorded events.

    A snapshot costs n, a recursive or anchored step 2, an SGD step 1.
    L2S and L2S-SC pay the initial snapshot plus ``n if B_t else 2`` per
    recorded Bernoulli draw; SVRG and SARAH pay n per snapshot and 2 per
    inner step (SARAH's first step after a snapshot uses the snapshot
    gradient and costs nothing more).
    """
    snaps = result.snapshot_count
    steps = result.total_iterations
    if algorithm in ("L2S", "L2S-SC"):
        b = np.asarray(result.bernoulli, dtype=np.int64)
        return n + int(b.sum()) * n + 2 * int(b.size - b.sum())
    if algorithm == "SGD":
        return steps
    if algorithm == "SVRG":
        return n * snaps + 2 * steps
    if algorithm in ("SARAH", "SARAH-LI", "D2S"):
        return n * snaps + 2 * (steps - snaps)
    raise ValueError(f"no event rule for {algorithm}")


def check_ifo_events(checks: Checks, label: str, algorithm: str, n: int,
                     result) -> bool:
    want = events_ifo(algorithm, n, result)
    return checks.check(f"{label}: IFO total matches recorded events",
                        result.total_ifo == want,
                        f"total {result.total_ifo}, events give {want}")


def check_descent(checks: Checks, label: str, model, x_out) -> bool:
    f0 = model.objective(np.zeros(model.d))
    f_out = model.objective(x_out)
    return checks.check(f"{label}: F(x_out) < F(x_0)", f_out < f0,
                        f"F(x_out)={f_out!r}, F(x_0)={f0!r}")


def same_run(a, b) -> list:
    """Ways two RunResults of one config differ (empty if identical).

    Compares the IFO total, snapshot events, Bernoulli and index sequences
    when both recorded them, and the bits of x_out.
    """
    diffs = []
    if a.total_ifo != b.total_ifo:
        diffs.append(f"ifo {a.total_ifo} != {b.total_ifo}")
    if not np.array_equal(a.snapshot_iters, b.snapshot_iters):
        diffs.append("snapshot iterations differ")
    for field in ("bernoulli", "indices"):
        va, vb = getattr(a, field), getattr(b, field)
        if va is not None and vb is not None and not np.array_equal(va, vb):
            diffs.append(f"{field} differ")
    if a.x_out.tobytes() != b.x_out.tobytes():
        diffs.append("x_out bits differ")
    return diffs


def compare_pins(checks: Checks, label: str, observed: dict,
                 pinned: dict | None) -> None:
    """Exact comparison for ints and strings, the pin tolerance for floats."""
    if pinned is None:
        checks.check(f"{label}: pinned baseline present", False,
                     "no pins recorded for this workload")
        return
    for key in sorted(pinned):
        want, got = pinned[key], observed.get(key)
        if isinstance(want, float):
            ok = (isinstance(got, (int, float)) and math.isfinite(got)
                  and abs(got - want) <= PIN_RTOL * abs(want) + PIN_ATOL)
        else:
            ok = got == want
        checks.check(f"{label}: {key} matches baseline", ok,
                     f"got {got!r}, pinned {want!r}")
