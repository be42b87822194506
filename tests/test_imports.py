"""scipy.special serves only the production closed form, so it loads on the first
closed-form evaluation. Each test runs a fresh interpreter, since this process
has long imported scipy."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import photonloc

SRC = str(Path(photonloc.__file__).resolve().parents[1])


def run_fresh(script: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, "-W", "error", "-c", textwrap.dedent(script)],
                   env=env, check=True, timeout=120)


def test_commands_that_never_evaluate_1f1_do_not_import_scipy():
    run_fresh("""
        import os, sys

        def assert_unloaded(step):
            assert "scipy" not in sys.modules, f"scipy loaded by {step}"

        import photonloc
        assert_unloaded("import photonloc")
        from photonloc.checks import SUITES
        from photonloc.cli import main
        assert_unloaded("import photonloc.cli")
        commands = [["check", suite] for suite in SUITES] + [
            ["mmatrix", "--theta", "1.0"],
            ["kernel-scan", "--family", "cartesian-photon", "--r-list", "0,2", "--oracle"],
        ]
        for argv in commands:
            assert main(argv + ["--out", os.devnull]) == 0, argv
            assert_unloaded(" ".join(argv))
        photonloc.overlap_kernel_matrix(photonloc.StateFamily.of("spherical3"), [0, 0, 1], 1.0)
        assert "scipy.special" in sys.modules
    """)


def test_oracle_never_loads_scipy_special():
    # the oracle shares no closed form with the production path: no hand-kept list
    # of forbidden names is needed to see that it never reaches scipy.special
    run_fresh("""
        import sys
        from photonloc import (QuadratureSpec, StateFamily, brute_force_kernel_matrix,
                               brute_force_overlap, make_localized_state)

        for q in (None, QuadratureSpec(4, 4, 4)):
            for kind, label in (("scalar", 0), ("spherical3", 0), ("cartesian-photon", "x")):
                family = StateFamily.of(kind)
                s1 = make_localized_state(family, [0.0, 0.2, -0.1, 0.4], label, 1.0)
                s2 = make_localized_state(family, [0.0, 0.0, 0.3, 0.0], label, 1.0)
                brute_force_overlap(s1, s2, q)
                brute_force_kernel_matrix(family, [0.2, -0.4, 0.4], 1.0, q)
            for j in (2, 10):
                brute_force_kernel_matrix(StateFamily(j, (-1, 1)), [0.2, -0.4, 0.4], 1.0, q)
        assert "scipy.special" not in sys.modules
    """)
