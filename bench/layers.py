"""Per-layer split for the traced run, recorded from outside the library.

``Tracer.install()`` wraps the public functions listed in ``LAYERS`` and
replaces every binding of each function object in every loaded nccw
namespace (``from .exacthom import presented_subquotient`` gives
``ssengine`` its own binding, and that one must be patched too);
``uninstall()`` puts the originals back.  Each wrapper records a span;
a group's time is its self time, the span minus the nested wrapped spans,
so the groups partition the time the top-level spans cover.  A listed
name that no longer exists is reported as absent, with a warning, and its
metrics are left out instead of being reported as zero.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings
from collections import Counter

clock = time.perf_counter


def _snf_shape_and_bits(stats, args, result):
    mat, (u, _d, v) = args[0], result
    stats["snf_max_dim"] = max(stats["snf_max_dim"], *mat.shape)
    bits = max((abs(int(x)).bit_length() for t in (u, v) for x in t.flat), default=0)
    stats["transform_bits_max"] = max(stats["transform_bits_max"], bits)


def _turned_page(stats, args, _result):
    page = args[0].pages[-1]
    stats["entries_turned"] += len(page.entries)
    stats["idle_turns"] += not page.differentials


def _built_cells(stats, _args, result):
    if hasattr(result, "cell_counts"):
        stats["cells"] += sum(result.cell_counts)


# (group, module, public functions, observer of arguments and result)
LAYERS = [
    ("exacthom.cert_det", "exacthom", ("determinant",), None),
    ("exacthom.snf", "exacthom", ("smith_normal_form",), _snf_shape_and_bits),
    ("exacthom.subquotient", "exacthom", ("presented_subquotient",), None),
    ("exacthom.rank", "exacthom", ("matrix_rank", "snf_diagonal"), None),
    ("exacthom.coeff_cohom", "exacthom", ("cohomology_with_coefficients",), None),
    ("exacthom.intmat", "exacthom", ("intmat",), None),
    ("ssengine.turn", "ssengine", ("turn_page",), _turned_page),
    ("ssengine.assemble", "ssengine", ("assemble",), None),
    ("ssengine.engine", "ssengine",
     ("from_cellular", "from_e2_page", "e_infinity", "compute_theories"), None),
    ("fibration.e2", "fibration", ("leray_serre_e2",), None),
    ("fibration.relcoeff", "fibration", ("relative_coefficients",), None),
    ("constructions.mapcone", "constructions", ("mapping_cone_complex",), None),
    # ``from_classical_cw`` calls ``build``, so cells are counted on ``build`` alone
    ("cellmodel.build", "cellmodel", ("build",), _built_cells),
    ("cellmodel.build", "cellmodel", ("from_classical_cw", "cochain_complex"), None),
    ("findim.morphism", "findim", ("validate_morphism",), None),
    ("cli.parse", "cli",
     ("build_parser", "load_complex", "parse_complex", "parse_morphism_maps", "parse_group"),
     None),
    ("cli.render", "cli", ("result_payload", "emit", "complex_payload", "suspended_payload"),
     None),
]

# observer -> the metrics it feeds
_OBSERVED = {
    _snf_shape_and_bits: ("exacthom.snf_max_dim", "exacthom.transform_bits_max"),
    _turned_page: ("ssengine.entries_turned", "ssengine.idle_turn_ratio"),
    _built_cells: ("cellmodel.cells",),
}

# metric -> (unit, group it needs); per-round averages unless the name says otherwise
METRICS = {
    "exacthom.cert_det_calls": ("count", "exacthom.cert_det"),
    "exacthom.cert_det_s": ("s", "exacthom.cert_det"),
    "exacthom.snf_calls": ("count", "exacthom.snf"),
    "exacthom.snf_s": ("s", "exacthom.snf"),
    "exacthom.snf_max_dim": ("count", "exacthom.snf"),
    "exacthom.transform_bits_max": ("bits", "exacthom.snf"),
    "exacthom.subquotient_calls": ("count", "exacthom.subquotient"),
    "exacthom.subquotient_s": ("s", "exacthom.subquotient"),
    "exacthom.rank_calls": ("count", "exacthom.rank"),
    "exacthom.rank_s": ("s", "exacthom.rank"),
    "exacthom.coeff_cohom_s": ("s", "exacthom.coeff_cohom"),
    "exacthom.intmat_calls": ("count", "exacthom.intmat"),
    "exacthom.intmat_s": ("s", "exacthom.intmat"),
    "ssengine.turn_calls": ("count", "ssengine.turn"),
    "ssengine.turns_per_job": ("count", "ssengine.turn"),
    "ssengine.turn_s": ("s", "ssengine.turn"),
    "ssengine.entries_turned": ("count", "ssengine.turn"),
    "ssengine.idle_turn_ratio": ("ratio", "ssengine.turn"),
    "ssengine.assemble_s": ("s", "ssengine.assemble"),
    "ssengine.engine_s": ("s", "ssengine.engine"),
    "fibration.e2_calls": ("count", "fibration.e2"),
    "fibration.e2_s": ("s", "fibration.e2"),
    "fibration.relcoeff_s": ("s", "fibration.relcoeff"),
    "constructions.mapcone_calls": ("count", "constructions.mapcone"),
    "constructions.mapcone_s": ("s", "constructions.mapcone"),
    "cellmodel.build_calls": ("count", "cellmodel.build"),
    "cellmodel.build_s": ("s", "cellmodel.build"),
    "cellmodel.cells": ("count", "cellmodel.build"),
    "findim.morphism_calls": ("count", "findim.morphism"),
    "findim.morphism_s": ("s", "findim.morphism"),
    "cli.parse_s": ("s", "cli.parse"),
    "cli.render_s": ("s", "cli.render"),
    "cli.out_bytes": ("bytes", None),
    "trace.overhead_ratio": ("ratio", None),
    "trace.coverage": ("ratio", None),
}


def nccw_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "nccw" or name.startswith("nccw."))]


def function_bindings() -> dict[tuple[str, str], int]:
    """Identity of every function bound in an nccw namespace, to show that
    a run left the library exactly as it found it."""
    return {
        (mod.__name__, attr): id(val)
        for mod in nccw_namespaces()
        for attr, val in vars(mod).items()
        if callable(val) and not isinstance(val, type)
    }


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.stats: Counter = Counter()
        self.top_s = 0.0
        self.absent: set[str] = set()  # groups or observed metrics that cannot be measured
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        namespaces = nccw_namespaces()
        by_name = {mod.__name__: mod for mod in namespaces}
        for group, module, names, observe in LAYERS:
            mod = by_name.get(f"nccw.{module}")
            for name in names:
                original = getattr(mod, name, None)
                if not callable(original):
                    if group not in self.absent:
                        warnings.warn(f"nccw.{module}.{name} is gone; {group} metrics are absent")
                    self.absent.add(group)
                    continue
                wrapper = self._wrap(group, original, observe)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    def _wrap(self, group, fn, observe):
        stack, calls, self_s = self._stack, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = clock()
                if observe is not None:
                    self._observe(observe, args, result)
                return result
            finally:
                t2 = clock()
                stack.pop()
                if t1 is None:
                    t1 = t2
                calls[group] += 1
                self_s[group] += (t1 - t0) - frame[0]
                if stack:
                    stack[-1][0] += t2 - t0
                else:
                    self.top_s += t2 - t0

        return wrapper

    def _observe(self, observe, args, result):
        try:
            observe(self.stats, args, result)
        except (AttributeError, TypeError, ValueError, IndexError) as exc:
            names = _OBSERVED[observe]
            if not self.absent.issuperset(names):
                warnings.warn(f"cannot observe {', '.join(names)}: {exc!r}; reported absent")
            self.absent.update(names)

    def metrics(self, rounds: int, jobs: int, traced_s: float, untraced_s: float,
                out_bytes: int) -> dict:
        """Per-round averages over the traced rounds (each round has the
        same composition on fresh inputs), plus the ratios, by metric name."""
        per = lambda x: x / rounds  # noqa: E731
        turns = self.calls["ssengine.turn"]
        values = {
            "exacthom.snf_max_dim": self.stats["snf_max_dim"],
            "exacthom.transform_bits_max": self.stats["transform_bits_max"],
            "ssengine.turns_per_job": turns / jobs,
            "ssengine.entries_turned": per(self.stats["entries_turned"]),
            "ssengine.idle_turn_ratio": self.stats["idle_turns"] / turns if turns else 0.0,
            "cellmodel.cells": per(self.stats["cells"]),
            "cli.out_bytes": per(out_bytes),
            "trace.overhead_ratio": traced_s / untraced_s,
            "trace.coverage": self.top_s / traced_s,
        }
        out = {}
        for name, (unit, group) in METRICS.items():
            if name in self.absent or group in self.absent:
                continue
            if name not in values:
                kind = name.rsplit("_", 1)[1]
                values[name] = per(self.calls[group] if kind == "calls" else self.self_s[group])
            out[name] = {"value": values[name], "unit": unit}
        return out
