"""Spans around photonloc's layer boundaries, installed from the benchmark's side.

A wrapper replaces a layer function where the module of the layer above binds
it (``photonloc.overlap.spherical_jn_sequence``, ``photonloc.cli.wigner_D``,
...) and around the public entry points. A binding site that no longer exists,
because a later change removed or renamed the function, is skipped; a layer
left with no site in a loaded module is reported absent, with zero calls.

Spans are recorded only while ``Tracer.op`` names an operation, kept in memory
and written out when the run ends. A layer's self time is its span's duration
minus the time covered by its traced child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_ENTRY = ("overlap_kernel_matrix", "transverse_kernel", "general_j_defect",
          "qm_overlap", "alt_overlap")
_ORACLE = ("brute_force_kernel_matrix", "brute_force_overlap")
_POLARIZATION = ("polarization_vector", "gauge_transform", "field_strength",
                 "minkowski_dot", "wave_four_vector", "helicity_sum_matrix",
                 "transverse_helicity_sum_closed_form", "transverse_outer_product")
_PACKAGE, _OVERLAP, _STATES = "photonloc", "photonloc.overlap", "photonloc.states"
_POL, _ROT, _CLI = "photonloc.polarization", "photonloc.rotations", "photonloc.cli"

#: layer -> binding sites (module, attribute)
LAYERS = {
    "overlap.kernel": [(m, f) for m in (_PACKAGE, _OVERLAP, _CLI) for f in _ENTRY],
    "overlap.oracle": [(m, f) for m in (_PACKAGE, _OVERLAP, _CLI) for f in _ORACLE],
    "bessel.spherical_jn_sequence": [(_OVERLAP, "spherical_jn_sequence")],
    "overlap.legendre": [(_OVERLAP, "eval_legendre")],
    "rotations.wigner_D": [(m, "wigner_D") for m in (_OVERLAP, _STATES, _POL, _CLI)],
    "rotations.small_d_matrix": [(m, "small_d_matrix") for m in (_OVERLAP, _STATES, _POL)],
    "rotations.standard_rotation": [(m, "standard_rotation")
                                    for m in (_ROT, _OVERLAP, _STATES, _POL, _CLI)]
                                   + [(_STATES, "_standard_rotations")],
    "states.momentum_amplitude": [(m, "momentum_amplitude") for m in (_OVERLAP, _CLI)],
    "polarization": [(_OVERLAP, "validate_helicities"), (_STATES, "axis_index")]
                    + [(_CLI, f) for f in _POLARIZATION],
    "cli.main": [(_CLI, "main")],
}
LAYER_NAMES = tuple(LAYERS)
_ORACLE_ID = LAYER_NAMES.index("overlap.oracle")
_WIGNER_ID = LAYER_NAMES.index("rotations.wigner_D")


def _bessel_values(args, kwargs):
    import numpy as np

    return (int(args[0]) + 1) * int(np.size(args[1]))


def _momentum_points(args, kwargs):
    import numpy as np

    return int(np.size(args[1])) // 3


def _oracle_grid_points(args, kwargs):
    """k-nodes x angular nodes of the oracle product grid at the call's spec."""
    spec = kwargs.get("q")
    for arg in args:
        if hasattr(arg, "n_radial"):
            spec = arg
    if spec is None:
        spec = sys.modules[_OVERLAP].QuadratureSpec()
    return 4 * spec.n_radial * 16 * spec.n_theta * spec.n_phi


_WORK = {
    "bessel.spherical_jn_sequence": _bessel_values,
    "states.momentum_amplitude": _momentum_points,
    "overlap.oracle": _oracle_grid_points,
}


class Tracer:
    """In-memory span recorder. Spans are
    ``(layer, start, end, parent, op, work, error)`` tuples."""

    def __init__(self):
        self.op = None
        self.spans = []
        self._stack = []

    def install(self) -> list:
        """Wrap every binding site in a loaded module; return the absent layers."""
        absent = []
        for layer, sites in LAYERS.items():
            installed = loaded = 0
            for module_name, attr in sites:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                loaded += 1
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                setattr(module, attr, self._wrap(LAYER_NAMES.index(layer), fn, _WORK.get(layer)))
                installed += 1
            if loaded and not installed:
                absent.append(layer)
        return absent

    def _wrap(self, layer: int, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            amount = 0
            if work is not None:
                try:
                    amount = work(args, kwargs)
                except (AttributeError, IndexError, TypeError, ValueError):
                    amount = 0
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            error = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                error = True
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (layer, start, end, parent, self.op, amount, error)

        return wrapper

    def dump(self, path: str):
        """Write the spans as JSON lines, one per span, with layer names."""
        with open(path, "w") as handle:
            for layer, start, end, parent, op, work, error in self.spans:
                handle.write(json.dumps({
                    "name": LAYER_NAMES[layer], "start": start, "end": end,
                    "parent": parent, "op": op, "work": work, "error": error,
                }) + "\n")


def totals(spans) -> dict:
    """Additive per-layer totals, so that totals of several processes can be summed.

    ``calls``, ``time_s`` and ``errors`` count the outermost span of each layer
    (a nested call of the same layer is part of its caller's call); ``self_s``
    and ``work`` add up every span. An oracle call is a table build when a
    wigner_D span lies below it.
    """
    out = {name: {"calls": 0, "time_s": 0.0, "self_s": 0.0, "work": 0, "errors": 0}
           for name in LAYER_NAMES}
    children = [0.0] * len(spans)
    for layer, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent] += end - start
    builds = set()
    for index, (layer, start, end, parent, _op, work, error) in enumerate(spans):
        row = out[LAYER_NAMES[layer]]
        row["self_s"] += (end - start) - children[index]
        row["work"] += work
        ancestor, outermost = parent, True
        while ancestor >= 0:
            above = spans[ancestor][0]
            if above == layer:
                outermost = False
            if layer == _WIGNER_ID and above == _ORACLE_ID:
                builds.add(ancestor)
            ancestor = spans[ancestor][3]
        if outermost:
            row["calls"] += 1
            row["time_s"] += end - start
            row["errors"] += int(error)
    out["oracle_table"] = {
        "builds": len(builds),
        "cold_s": sum(spans[i][2] - spans[i][1] for i in builds),
    }
    return out


def add_totals(a: dict, b: dict) -> dict:
    return {name: {key: a[name][key] + b[name][key] for key in a[name]} for name in a}


def metrics(t: dict) -> dict:
    """Per-layer metric values (name -> (value, unit)) from summed totals."""
    out = {}
    for layer, fields in (
        ("bessel.spherical_jn_sequence", ("calls", "time_s", "values", "errors")),
        ("overlap.kernel", ("calls", "time_s", "self_s", "errors")),
        ("overlap.legendre", ("calls", "time_s", "errors")),
        ("rotations.wigner_D", ("calls", "time_s", "errors")),
        ("rotations.small_d_matrix", ("calls", "time_s", "errors")),
        ("rotations.standard_rotation", ("calls", "time_s", "errors")),
        ("overlap.oracle", ("calls", "time_s", "self_s", "grid_points", "errors")),
        ("states.momentum_amplitude", ("calls", "time_s", "points", "errors")),
        ("polarization", ("calls", "time_s", "errors")),
    ):
        for field in fields:
            key = "work" if field in ("values", "grid_points", "points") else field
            unit = "s" if field.endswith("_s") else "count"
            out[f"{layer}.{field}"] = (t[layer][key], unit)
    calls = t["overlap.oracle"]["calls"]
    builds = t["oracle_table"]["builds"]
    out["overlap.oracle_table.builds"] = (builds, "count")
    out["overlap.oracle_table.hit_ratio"] = ((calls - builds) / calls if calls else 0.0, "1")
    out["overlap.oracle_table.cold_s"] = (t["oracle_table"]["cold_s"], "s")
    out["cli.main.time_s"] = (t["cli.main"]["time_s"], "s")
    out["cli.main.self_s"] = (t["cli.main"]["self_s"], "s")
    out["cli.main.errors"] = (t["cli.main"]["errors"], "count")
    return out
