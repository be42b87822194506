"""Tests of the benchmark's reference, inputs and tracing.

    python3 -m pytest perfbench/check_reference.py

The file name keeps these tests out of the repository's default test run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import photonloc as P  # noqa: E402

import reference as R  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

RNG = np.random.default_rng(20240611)


def _direction():
    v = RNG.normal(size=3)
    return v / np.linalg.norm(v)


def _dipole(rvec):
    r = np.linalg.norm(rvec)
    n = rvec / r
    return -(3.0 * np.outer(n, n) - np.eye(3)) / (4.0 * np.pi * r**3)


@pytest.mark.parametrize("r_over_a", [20.0, 40.0, 100.0, 1e3])
def test_far_field_is_the_dipole_tail(r_over_a):
    for a in (0.3, 1.0, 4.0):
        rvec = r_over_a * a * _direction()
        dip = _dipole(rvec)
        scale = np.abs(dip).max()
        assert np.abs(R.transverse(rvec, a) - dip).max() < 1e-12 * scale
        # the s = 0 photon kernel is delta_a I - T; delta_a is negligible here
        photon = R.family_kernel("cartesian-photon", rvec, a)
        assert np.abs(photon + dip).max() < 1e-12 * scale
        # the partial-wave (1F1) form gives the same tail
        assert np.abs(R._transverse_partial_waves(rvec, a, 0) + dip).max() < 1e-12 * scale
        # spin 1 carrying +-1 misses exactly the longitudinal projector
        defect = R.defect_kernel(1, (-1, 1), rvec, a)
        assert np.abs(defect - R.U @ dip @ R.U.conj().T).max() < 1e-12 * scale


@pytest.mark.parametrize("r_over_a", [0.0, 0.01, 0.3, 2.0, 9.0])
def test_erf_form_matches_partial_waves(r_over_a):
    """The closed form stays exact where double precision would cancel."""
    a = 0.7
    rvec = r_over_a * a * _direction()
    erf_form = R.delta_a(r_over_a * a, a) * np.eye(3) - R.transverse(rvec, a)
    waves = R._transverse_partial_waves(rvec, a, 0)
    assert np.abs(erf_form - waves).max() < 1e-13 * np.abs(waves).max()


@pytest.mark.parametrize("j", range(1, 11))
def test_explicit_sum_small_d_is_orthogonal(j):
    for beta in RNG.uniform(0.0, np.pi, size=5):
        d = R.small_d(j, beta)
        assert np.abs(d @ d.T - np.eye(2 * j + 1)).max() < 1e-12


@pytest.mark.parametrize("workload", ["kernels", "oracle"])
def test_agrees_with_the_production_path_up_to_r_over_a_10(workload):
    """Every kernels entry point, and the oracle's inputs, on the production path."""
    spec = P.QuadratureSpec(**workloads.ORACLE_TEST_SPEC)
    ops = [op for ops in workloads.passes(workload, 11, 2) for op in ops
           if op["r_over_a"] <= 10.0]
    seen = set()
    for op in ops:
        if op["entry"].startswith("oracle"):
            # the production counterpart of each oracle operation
            op = dict(op, entry="kernel" if op["entry"] == "oracle-kernel" else "qm")
        name, args = worker._call(P, op, spec)
        out = getattr(P, name)(*args)
        value = np.asarray(getattr(out, "entries", out), dtype=complex).ravel()
        assert verify.library_error(value, *verify.library_reference(op)) < 1e-10, op
        seen.add(op.get("family") or op["entry"])
    assert len(seen) >= 5


def test_cli_tables_are_checked_against_the_reference():
    import contextlib
    import io

    import photonloc.cli

    for argv in (["defect-j", "--j", "10"], ["check", "alt-product", "--seed", "3"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = photonloc.cli.main(argv)
        out = buf.getvalue().encode()
        err, problems, known = verify.cli_result(argv, code, out, out)
        assert not problems and not known
        if argv[0] == "defect-j":
            assert err < 1e-10
        truncated = b"\r\n".join(out.split(b"\r\n")[:-2]) + b"\r\n"
        assert verify.cli_result(argv, code, truncated.replace(b"PASS", b"FAIL"), None)[1]
        assert verify.cli_result(argv, code, out, truncated)[1]


def test_passes_have_a_fixed_composition():
    """Every pass has the same entry points, spins and zero separations; the
    oracle's r/a bands are the same on every seed."""
    for seed in (1, 2):
        first, *rest = workloads.passes("kernels", seed, 3)
        assert workloads.passes("kernels", seed, 1)[0] == first
        for ops in [first, *rest]:
            for entry in workloads.KERNEL_ENTRIES:
                mine = [op for op in ops if op["entry"] == entry]
                assert len(mine) == workloads.KERNEL_PER_ENTRY
                assert sum(op["r_over_a"] == 0.0 for op in mine) == 1
            spins = sorted(op["j"] for op in ops if op["entry"] == "defect")
            assert spins == sorted(list(range(1, 11)) * 2)
    bands = [sorted(verify.band(op["r_over_a"]) for op in workloads.passes("oracle", seed, 1)[0])
             for seed in (1, 2)]
    assert bands[0] == bands[1]


def test_rounds_repeat_the_operations_at_rescaled_lengths():
    """Round k is round 0 with every length scaled by round_factor(k)."""
    for workload in ("kernels", "oracle"):
        first = workloads.library_round(workload, 3, 0)
        again = workloads.library_round(workload, 3, 2)
        assert first == workloads.library_round(workload, 3, 0)
        assert len(first) == len(again)
        f = workloads.round_factor(2)
        assert f == 1.0 + 2 * workloads.ROUND_SCALE
        for op, other in zip(first, again):
            assert op["entry"] == other["entry"] and op["r_over_a"] == other["r_over_a"]
            assert other["a"] != op["a"] and other["a"] == op["a"] * f
            assert other.get("r") == (None if "r" not in op else [v * f for v in op["r"]])
            for state, moved in zip(op.get("states", ()), other.get("states", ())):
                assert moved["a"] == other["a"] and moved["x"] == [v * f for v in state["x"]]


@pytest.mark.parametrize("workload", ["kernels", "oracle"])
def test_reference_is_homogeneous_in_length(workload):
    """The reference of an operation with every length scaled by f is the
    unscaled one times f^-(3+s), as the checker of later rounds assumes."""
    ops = workloads.library_round(workload, 5, 0)
    sample = {}
    for op in ops:  # per entry point and family: r = 0, and the first op of each r/a band
        family = op.get("family") or op.get("states", ({"kind": None},))[0]["kind"]
        sample.setdefault((op["entry"], family, op["r_over_a"] == 0.0,
                           verify.band(op["r_over_a"])), op)
    assert {verify.library_reference(op)[3] for op in sample.values()} == {0, -1}
    for f in (0.37, 1.0 + 3e-9, 2.9):
        for op in sample.values():
            ref, r, a, s = verify.library_reference(op)
            expect, er, ea, es = verify.rescaled_reference(ref, r, a, s, f)
            got, gr, ga, gs = verify.library_reference(workloads._rescaled(op, f))
            assert (gs, es) == (s, s)
            assert abs(gr - er) <= 1e-14 * er and abs(ga - ea) <= 1e-14 * ea
            assert verify.library_error(np.asarray(got, dtype=complex).ravel(),
                                        expect, er, ea, es) < 1e-12, op


_TRACE_SCRIPT = """
import json, sys
import numpy as np
import photonloc, photonloc.overlap
sys.path.insert(0, {here!r})
import tracing
# a binding site that a later change removes: the layer is absent, the code still runs
bessel = photonloc.overlap.spherical_jn_sequence
del photonloc.overlap.spherical_jn_sequence
tracer = tracing.Tracer()
absent = tracer.install()
photonloc.overlap.spherical_jn_sequence = bessel
tracer.op = 0
fam = photonloc.StateFamily.of("cartesian-photon")
photonloc.qm_overlap(photonloc.make_localized_state(fam, (0, 1, 2, 3), "x", 1.0),
                     photonloc.make_localized_state(fam, (0, 0, 0, 0), "y", 1.0))
photonloc.general_j_defect(2, (-1, 1), np.array([0.3, 0.1, 0.2]), 1.0)
try:
    photonloc.general_j_defect(0, (0,), np.zeros(3), 1.0)
except ValueError:
    pass
m = tracing.metrics(tracing.totals(tracer.spans))
print(json.dumps({{"absent": absent, "kernel_calls": m["overlap.kernel.calls"][0],
                  "kernel_errors": m["overlap.kernel.errors"][0],
                  "bessel": m["bessel.spherical_jn_sequence.calls"][0],
                  "legendre": m["overlap.legendre.calls"][0],
                  "self": m["overlap.kernel.self_s"][0],
                  "time": m["overlap.kernel.time_s"][0]}}))
"""


def test_tracing_survives_a_removed_layer():
    import json

    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    out = subprocess.run([sys.executable, "-c", _TRACE_SCRIPT.format(here=str(HERE))],
                         env=env, capture_output=True, text=True, check=True).stdout
    result = json.loads(out)
    assert result["absent"] == ["bessel.spherical_jn_sequence"]
    assert result["bessel"] == 0
    # qm_overlap and the kernel call nested in it count as one entry call
    assert result["kernel_calls"] == 3 and result["kernel_errors"] == 1
    assert result["legendre"] > 0
    assert 0.0 < result["self"] < result["time"]


def test_metric_names_match_benchmark_json():
    import json

    import run
    import tracing

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layer = run._layer_metrics(tracing.totals([]), [], 0, [0.1], untraced=2.0, traced=1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.TAIL_PERCENTILE)
