"""Seeded inputs for the three benchmark workloads.

Every input is drawn from ``numpy.random.default_rng(seed)`` before any timing
starts, and nothing here imports photonloc. A library workload is a fixed
number of *passes*. Each pass has a fixed composition (entry points, families,
spins, r/a strata), so the share of operations in every r/a band, and hence
``failed_frac``, does not depend on the seed.

Separations (r/a and direction) follow a fixed low-discrepancy design that
every seed shares; the seed draws everything else: ``a``, families, spins and
helicity sets, labels, rotations, anchors and the order within a pass. Beyond
its valid range the program's error swings over decades with r/a and
direction, so random separations would move the worst error (``max_rel_err``)
by tens of percent from seed to seed; with the fixed design it repeats.

* ``kernels``: in pass p each entry point gets r = 0 and one r/a in each of 19
  equal strata of log(r/a), all at the same relative position
  frac(1/2 + p * golden ratio), so the ten passes of a run spread over the
  range and give the same worst error on every seed; directions walk a
  1597-point golden spiral.
* ``oracle``: every pass uses one ladder, r = 0 and the log midpoints of nine
  strata of [0.1, 100], along fixed golden-spiral directions; a run has too
  few oracle operations to fill the range any other way.

A run times a fixed set of distinct passes (``DISTINCT_PASSES``) in *rounds*,
each round once through the set, so every operation is timed once per round
and its fastest round can be taken. A kernels round is short (about a
second), so a run times each operation a dozen times spread over the run.
Round k scales every length of round 0 (the width ``a``, the separation and
the state anchors) by ``round_factor(k) = 1 + k * ROUND_SCALE``. Its cost and
accuracy are those of round 0, and its exact result is round 0's times
``round_factor(k) ** -(3 + s)``: every kernel is homogeneous of that degree in
length, s being the family's radial power. So one reference computation per
distinct operation checks every round, while no round repeats another's exact
inputs and a result cache keyed on the inputs gains nothing from the rounds.
"""

from __future__ import annotations

import functools
import math

import numpy as np

THREE_LABEL_FAMILIES = ("spherical3", "cartesian3", "spherical-photon",
                        "cartesian-photon", "radiation-gauge")
ALL_FAMILIES = ("scalar",) + THREE_LABEL_FAMILIES
LABELS = {
    "scalar": (0,),
    "spherical3": (1, 0, -1),
    "spherical-photon": (1, 0, -1),
    "cartesian3": ("x", "y", "z"),
    "cartesian-photon": ("x", "y", "z"),
    "radiation-gauge": ("x", "y", "z"),
}

#: kernels: entry points in round-robin order, 20 operations each per pass
KERNEL_ENTRIES = ("kernel", "transverse", "defect", "qm", "alt")
KERNEL_PER_ENTRY = 20
KERNEL_LOG_RANGE = (-2.0, 3.0)  # r/a in [1e-2, 1e3]
KERNEL_A_LOG_RANGE = (-1.0, 1.0)  # a in [0.1, 10]
J_MAX = 10

#: oracle: kernel and overlap operations alternate, 10 of each per pass
ORACLE_PER_KIND = 10
ORACLE_LOG_RANGE = (-1.0, 2.0)  # r/a in [0.1, 100]
#: ``QuadratureSpec`` keyword arguments of the oracle overlaps (the test-suite spec)
ORACLE_TEST_SPEC = {"n_theta": 12, "n_phi": 12, "n_radial": 32}

#: cli: one pass; the five light commands run twice so their output can be
#: compared byte for byte with an earlier run of the same command. Each scan
#: (about 5 s) is followed by two light commands, so the ten light timings,
#: which set p50_ms, spread over the whole pass rather than a few seconds of it
CLI_SCANS = (
    ("spherical3", False),
    ("cartesian3", False),
    ("spherical-photon", True),
    ("cartesian-photon", True),
    ("radiation-gauge", False),
)
CLI_SCAN_R_LIST = (0.0, 1.0, 2.0, 5.0, 10.0)  # the CLI's default --r-list
CLI_DEFECT_R_LIST = (0.0, 1.0, 2.0)  # the CLI's default for defect-j
CHECK_SUITES = ("covariance", "gauge", "translation", "alt-product")


def _rotation(rng) -> np.ndarray:
    """Uniformly distributed proper rotation."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SPIRAL_POINTS = 1597


def _ladder(n: int, log_range, offset: float) -> list:
    """r/a = 0 and one value in each of n - 1 equal log strata, at ``offset`` in each."""
    lo, hi = log_range
    width = (hi - lo) / (n - 1)
    return [0.0] + [10.0 ** (lo + width * (k + offset)) for k in range(n - 1)]


def _spiral(k: int, n: int) -> np.ndarray:
    """Direction k of n golden-spiral points on the unit sphere."""
    z = 1.0 - 2.0 * (k + 0.5) / n
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    rho = math.sqrt(1.0 - z * z)
    return np.array([rho * math.cos(phi), rho * math.sin(phi), z])


def _log_uniform(rng, log_range) -> float:
    return 10.0 ** rng.uniform(*log_range)


def _state(rng, kind: str, anchor, a: float, rotate: bool) -> dict:
    labels = LABELS[kind]
    return {
        "kind": kind,
        "x": [float(v) for v in anchor],
        "label": labels[rng.integers(len(labels))],
        "rotation": _rotation(rng).tolist() if rotate else None,
        "a": a,
    }


def _state_pair(rng, kind: str, rvec, a: float, rotate=(False, False)):
    """Two equal-time states separated by rvec."""
    t = float(rng.normal())
    x2 = rng.normal(size=3) * a
    x1 = x2 + rvec
    return (_state(rng, kind, np.r_[t, x1], a, rotate[0]),
            _state(rng, kind, np.r_[t, x2], a, rotate[1]))


def _kernels_pass(rng, p: int) -> list:
    n = KERNEL_PER_ENTRY
    ladder = _ladder(n, KERNEL_LOG_RANGE, (0.5 + p * GOLDEN) % 1.0)
    columns = {}
    for e, entry in enumerate(KERNEL_ENTRIES):
        slots = rng.permutation(n)
        r_over_a = [ladder[k] for k in slots]
        directions = [_spiral(((p * 5 + e) * n + k) % SPIRAL_POINTS, SPIRAL_POINTS)
                      for k in slots]
        ops = []
        if entry == "kernel":
            families = [THREE_LABEL_FAMILIES[i % 5] for i in rng.permutation(n)]
        if entry == "defect":
            spins = [1 + i % J_MAX for i in rng.permutation(n)]
            full = set(rng.permutation(n)[: n // 10].tolist())
        if entry == "qm":
            kinds = [ALL_FAMILIES[i % 6] for i in range(n)]
            kinds = [kinds[i] for i in rng.permutation(n)]
            rotated = rng.permutation(2 * n) < n
        for i, ra in enumerate(r_over_a):
            a = _log_uniform(rng, KERNEL_A_LOG_RANGE)
            rvec = ra * a * directions[i]
            op = {"entry": entry, "a": a, "r_over_a": ra}
            if entry in ("kernel", "transverse", "defect"):
                op["r"] = rvec.tolist()
            if entry == "kernel":
                op["family"] = families[i]
            elif entry == "defect":
                j = spins[i]
                op["j"] = j
                if i in full:
                    op["helicities"] = list(range(-j, j + 1))
                else:
                    while True:
                        keep = rng.random(2 * j + 1) < 0.5
                        if 0 < keep.sum() < 2 * j + 1:
                            break
                    op["helicities"] = [lam for lam, k in zip(range(-j, j + 1), keep) if k]
            elif entry == "qm":
                op["states"] = _state_pair(rng, kinds[i], rvec, a,
                                           (bool(rotated[2 * i]), bool(rotated[2 * i + 1])))
            elif entry == "alt":
                op["states"] = _state_pair(rng, "radiation-gauge", rvec, a)
            ops.append(op)
        columns[entry] = ops
    return [columns[KERNEL_ENTRIES[k % 5]][k // 5] for k in range(5 * n)]


def _oracle_kernel_ladder():
    """(r/a, direction, family) of the oracle's kernel operations in one pass."""
    n = ORACLE_PER_KIND
    # the direction index is scrambled so that r/a and polar angle are not correlated
    return [(ra, _spiral(7 * k % n, n), THREE_LABEL_FAMILIES[k % 5])
            for k, ra in enumerate(_ladder(n, ORACLE_LOG_RANGE, 0.5))]


def _oracle_pass(rng) -> list:
    n = ORACLE_PER_KIND
    ladder = _oracle_kernel_ladder()
    kinds = [ALL_FAMILIES[i % 6] for i in range(n)]
    kinds = [kinds[i] for i in rng.permutation(n)]
    ops = []
    for i, k in enumerate(rng.permutation(n)):
        r_over_a, direction, family = ladder[k]
        a = _log_uniform(rng, KERNEL_A_LOG_RANGE)
        ops.append({
            "entry": "oracle-kernel",
            "family": family,
            "a": a,
            "r_over_a": r_over_a,
            "r": (r_over_a * a * direction).tolist(),
        })
        # drawn the way tests/test_overlap.py::test_ten_seeded_configurations draws
        a = float(rng.uniform(0.6, 1.5))
        s1 = _state(rng, kinds[i], np.r_[0.0, rng.normal(size=3)], a, False)
        s2 = _state(rng, kinds[i], np.r_[0.0, rng.normal(size=3)], a, False)
        sep = math.dist(s1["x"][1:], s2["x"][1:])
        ops.append({"entry": "oracle-overlap", "states": (s1, s2), "a": a,
                    "r_over_a": sep / a})
    return ops


#: distinct passes of a library run: the same on every run, so every run
#: covers the same r/a offsets and the worst error does not depend on speed
DISTINCT_PASSES = {"kernels": 10, "oracle": 1}
ROUND_SCALE = 1e-9


def round_factor(k: int) -> float:
    """The length scale of round k relative to round 0."""
    return 1.0 + k * ROUND_SCALE


def _rescaled(op: dict, factor: float) -> dict:
    """``op`` with every length scaled by ``factor``; r/a stays as it was."""
    op = dict(op, a=op["a"] * factor)
    if "r" in op:
        op["r"] = [v * factor for v in op["r"]]
    if "states" in op:
        op["states"] = tuple(dict(s, a=s["a"] * factor, x=[v * factor for v in s["x"]])
                             for s in op["states"])
    return op


@functools.lru_cache(maxsize=2)
def _distinct_ops(workload: str, seed: int) -> tuple:
    return tuple(op for ops in passes(workload, seed, DISTINCT_PASSES[workload]) for op in ops)


def library_round(workload: str, seed: int, k: int) -> list:
    """The operations of round k of a library workload, in timing order."""
    ops = _distinct_ops(workload, seed)
    return list(ops) if k == 0 else [_rescaled(op, round_factor(k)) for op in ops]


def cli_pass(seed: int) -> list:
    """The cli commands of one pass, as argv lists after ``-m photonloc.cli``."""
    seed_arg = ["--seed", str(seed)]
    light = [["check", CHECK_SUITES[0], *seed_arg], ["check", CHECK_SUITES[1], *seed_arg],
             ["check", CHECK_SUITES[2], *seed_arg], ["check", CHECK_SUITES[3], *seed_arg],
             ["defect-j", "--j", "10"]]
    scans = [["kernel-scan", "--family", family] + (["--oracle"] if oracle else [])
             for family, oracle in CLI_SCANS]
    ops = []
    for i, scan in enumerate(scans):
        ops += [scan, light[i], light[(i + 2) % len(light)]]
    return ops


def passes(workload: str, seed: int, count: int) -> list:
    """``count`` passes of operations for a library workload."""
    rng = np.random.default_rng(seed)
    if workload == "kernels":
        return [_kernels_pass(rng, p) for p in range(count)]
    return [_oracle_pass(rng) for _ in range(count)]
