"""One fresh benchmark process for a library workload (``kernels`` or ``oracle``).

Started by run.py, a few times per run. It imports photonloc, makes the
first, untimed call to each entry point the workload uses (filling caches and
building the oracle tables), and reports the time from its own spawn to that
point as one ``setup_s`` sample. It then times whole rounds
(``workloads.library_round``) from ``--first-round`` on, until ``--seconds``
of operations are timed or ``--max-rounds`` are done, and writes the times and
outputs to ``--out`` for run.py to check against the reference.

With ``--spans`` it installs the tracing wrappers before the set-up calls and
writes the spans when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import time

import numpy as np

import workloads


def _state(P, spec):
    family = P.StateFamily.of(spec["kind"])
    x = np.asarray(spec["x"], dtype=float)
    if spec["rotation"] is None:
        return P.make_localized_state(family, x, spec["label"], spec["a"])
    R = np.asarray(spec["rotation"])
    # built at R^T x and rotated by R: the anchor is x, the labels are mixed
    start = np.r_[x[0], R.T @ x[1:]]
    return P.rotate_state(P.make_localized_state(family, start, spec["label"], spec["a"]), R)


def _call(P, op, test_spec):
    """(entry point name, arguments) of one operation."""
    entry = op["entry"]
    if entry == "kernel":
        return "overlap_kernel_matrix", (P.StateFamily.of(op["family"]), np.array(op["r"]), op["a"])
    if entry == "transverse":
        return "transverse_kernel", (np.array(op["r"]), op["a"])
    if entry == "defect":
        return "general_j_defect", (op["j"], tuple(op["helicities"]), np.array(op["r"]), op["a"])
    if entry == "qm":
        return "qm_overlap", tuple(_state(P, s) for s in op["states"])
    if entry == "alt":
        return "alt_overlap", tuple(_state(P, s) for s in op["states"])
    if entry == "oracle-kernel":
        return "brute_force_kernel_matrix", (P.StateFamily.of(op["family"]), np.array(op["r"]), op["a"])
    if entry == "oracle-overlap":
        return "brute_force_overlap", tuple(_state(P, s) for s in op["states"]) + (test_spec,)
    raise ValueError(f"unknown entry point {entry!r}")


def _warm_up(P, workload: str, test_spec):
    """The first call to each entry point the workload uses."""
    r = np.array([0.3, -0.2, 0.5])
    origin = np.zeros(4)
    shifted = np.r_[0.0, r]
    if workload == "kernels":
        P.overlap_kernel_matrix(P.StateFamily.of("spherical-photon"), r, 1.0)
        P.transverse_kernel(r, 1.0)
        P.general_j_defect(2, (-1, 1), r, 1.0)
        family = P.StateFamily.of("cartesian-photon")
        P.qm_overlap(P.make_localized_state(family, shifted, "x", 1.0),
                     P.make_localized_state(family, origin, "y", 1.0))
        family = P.StateFamily.of("radiation-gauge")
        P.alt_overlap(P.make_localized_state(family, shifted, "x", 1.0),
                      P.make_localized_state(family, origin, "y", 1.0))
    else:
        # both label bases at the default spec, and the spherical basis at the test spec
        P.brute_force_kernel_matrix(P.StateFamily.of("spherical3"), r, 1.0)
        P.brute_force_kernel_matrix(P.StateFamily.of("cartesian3"), r, 1.0)
        family = P.StateFamily.of("scalar")
        P.brute_force_overlap(P.make_localized_state(family, shifted, 0, 1.0),
                              P.make_localized_state(family, origin, 0, 1.0), test_spec)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=("kernels", "oracle"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-round", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--max-rounds", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None, help="trace, and write spans here")
    args = parser.parse_args(argv)

    tracer = None
    start = time.monotonic()
    import photonloc as P

    import_s = time.monotonic() - start
    if args.spans:
        import tracing

        tracer = tracing.Tracer()
        absent = tracer.install()
        tracer.op = "setup"
    test_spec = P.QuadratureSpec(**workloads.ORACLE_TEST_SPEC)
    _warm_up(P, args.workload, test_spec)
    setup_s = time.monotonic() - args.t0
    if tracer is not None:
        tracer.op = None

    times, outputs, errors = [], [], {}
    loop_s = 0.0
    rounds = 0
    while rounds == 0 or (rounds < args.max_rounds and loop_s < args.seconds):
        calls = [_call(P, op, test_spec) for op in
                 workloads.library_round(args.workload, args.seed, args.first_round + rounds)]
        rounds += 1
        round_start = time.perf_counter()
        for name, fn_args in calls:
            index = len(times)
            if tracer is not None:
                tracer.op = index
            fn = getattr(P, name)
            t = time.perf_counter()
            try:
                out = fn(*fn_args)
            except Exception as exc:  # an operation that raises counts as failed
                out = None
                errors[index] = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t)
            outputs.append(out)
        loop_s += time.perf_counter() - round_start
        if tracer is not None:
            tracer.op = None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    values = [np.zeros(0, complex) if out is None
              else np.asarray(getattr(out, "entries", out), dtype=complex).ravel()
              for out in outputs]
    header = {"setup_s": setup_s, "import_s": import_s, "loop_s": loop_s, "rounds": rounds,
              "peak_rss_mb": rss_mb, "errors": errors}
    if tracer is not None:
        tracer.dump(args.spans)
        header.update(trace_totals=tracing.totals(tracer.spans), absent=absent,
                      spans=len(tracer.spans))
    np.savez(
        args.out,
        header=np.array(json.dumps(header)),
        times=np.array(times),
        values=np.concatenate(values) if values else np.zeros(0, complex),
        offsets=np.cumsum([0] + [v.size for v in values]),
    )


if __name__ == "__main__":
    main()
