"""Spans around the calls into each hplax layer, recorded from outside.

`Tracer.install` wraps the public functions and methods named in TARGETS.
A module-level function is replaced under every name any loaded hplax module
binds it to (for example `kernel.det_exact`, `hptable.det_exact` and
`classical.det_exact`), so each caller goes through the wrapper whichever
binding it uses; a method is replaced on its class.  `uninstall` puts the
original objects back.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple


def _order(args, _result) -> int:
    return len(args[0])


def _divisions(_args, result) -> int:
    return result.divisions_checked


# (module, attribute or Class.method, span name, extra value recorder)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("hplax.cli", "main", "cli.main", None),
    ("hplax.cli", "_read_doc", "jsondoc.decode", None),
    ("hplax.cli", "_write_doc", "jsondoc.encode", None),
    ("hplax.jsondoc", "moment_system_from_doc", "jsondoc.decode", None),
    ("hplax.jsondoc", "boundary_from_doc", "jsondoc.decode", None),
    ("hplax.jsondoc", "table_to_doc", "jsondoc.encode", None),
    ("hplax.jsondoc", "field_to_doc", "jsondoc.encode", None),
    ("hplax.jsondoc", "sweep_report_to_doc", "jsondoc.encode", None),
    ("hplax.bvp", "cross_validate", "bvp.cross_validate", None),
    ("hplax.bvp", "field_from_moments", "bvp.field_from_moments", None),
    ("hplax.bvp", "boundary_from_table", "bvp.boundary_from_table", None),
    ("hplax.bvp", "sweep_solve", "bvp.sweep_solve", _divisions),
    ("hplax.nnrr", "field_from_table", "nnrr.field_from_table", None),
    ("hplax.nnrr", "consistency_residuals", "nnrr.consistency_residuals", None),
    ("hplax.lax3", "normalization_grid", "lax3.normalization_grid", None),
    ("hplax.lax3", "build_transition", "lax3.build_transition", None),
    ("hplax.lax3", "zcc_residual", "lax3.zcc_residual", None),
    ("hplax.hptable", "HPTable.s_det", "hptable.s_det", None),
    ("hplax.hptable", "HPTable.hp_poly_det", "hptable.hp_poly_det", None),
    ("hplax.hptable", "HPTable.orthogonality_residuals",
     "hptable.orthogonality_residuals", None),
    ("hplax.classical", "qd_vw", "classical.qd_vw", None),
    ("hplax.classical", "zcc2_residual", "classical.zcc2_residual", None),
    ("hplax.kernel", "det_exact", "kernel.det_exact", _order),
    ("hplax.kernel", "MatPoly.__mul__", "kernel.matpoly_mul", None),
    ("hplax.measures", "make_angelesco", "measures.make_angelesco", None),
    ("hplax.measures", "make_nikishin", "measures.make_nikishin", None),
    ("hplax.measures", "moments_to_jfraction", "measures.moments_to_jfraction", None),
)

SETUP = -1      # request id of spans recorded while the inputs are generated


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int         # index of the enclosing span, -1 at the top
    request: int        # request id, SETUP during set-up
    extra: int | None   # det_exact: matrix order; sweep_solve: divisions checked


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.request = SETUP
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, extra: Callable | None = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            request = self.request
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = extra(args, result) if extra and result is not None else None
                spans[index] = Span(name, start, end, parent, request, value)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("wrappers are already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "hplax" or key.startswith("hplax.")]
        for module_name, attr, name, extra in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(name, original, extra))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def finished(self) -> list[Span]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("spans are still open")
        return self.spans

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.finished():
                fh.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def bareiss_updates(order: int) -> int:
    """Inner updates of fraction-free elimination on an order-n matrix:
    sum over pivots k of (n - 1 - k)^2."""
    return (order - 1) * order * (2 * order - 1) // 6


class _Layer:
    """Aggregates of the spans of one name."""

    def __init__(self):
        self.calls = 0
        self.total = 0.0        # outermost spans only, so nesting is not counted twice
        self.self_s = 0.0
        self.extra = 0
        self.misses = 0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of the traced requests; measures.* also count
    set-up, where the inputs are generated."""
    layers: dict[str, _Layer] = defaultdict(_Layer)
    setup: dict[str, _Layer] = defaultdict(_Layer)
    selfs = self_times(spans)
    det_child = {s.parent for s in spans if s.name == "kernel.det_exact"}
    for index, (span, own) in enumerate(zip(spans, selfs)):
        if span.request == SETUP:
            if not _inside_same_name(spans, span):
                setup[span.name].total += span.end - span.start
            continue
        layer = layers[span.name]
        layer.calls += 1
        layer.self_s += own
        if span.extra is not None:
            layer.extra += (bareiss_updates(span.extra) if span.name == "kernel.det_exact"
                            else span.extra)
        if index in det_child:
            layer.misses += 1
        if not _inside_same_name(spans, span):
            layer.total += span.end - span.start

    def ratio(name):
        layer = layers[name]
        return layer.misses / layer.calls if layer.calls else 0.0

    return {
        "kernel.det_exact.calls": layers["kernel.det_exact"].calls,
        "kernel.det_exact.self_s": layers["kernel.det_exact"].self_s,
        "kernel.det_exact.ops": layers["kernel.det_exact"].extra,
        "kernel.matpoly_mul.calls": layers["kernel.matpoly_mul"].calls,
        "kernel.matpoly_mul.self_s": layers["kernel.matpoly_mul"].self_s,
        "hptable.s_det.calls": layers["hptable.s_det"].calls,
        "hptable.s_det.miss_ratio": ratio("hptable.s_det"),
        "hptable.hp_poly_det.calls": layers["hptable.hp_poly_det"].calls,
        "hptable.hp_poly_det.miss_ratio": ratio("hptable.hp_poly_det"),
        "hptable.hp_poly_det.self_s": layers["hptable.hp_poly_det"].self_s,
        "hptable.orthogonality_residuals.self_s":
            layers["hptable.orthogonality_residuals"].self_s,
        "nnrr.field_from_table.s": layers["nnrr.field_from_table"].total,
        "nnrr.field_from_table.self_s": layers["nnrr.field_from_table"].self_s,
        "nnrr.consistency_residuals.self_s": layers["nnrr.consistency_residuals"].self_s,
        "bvp.boundary_from_table.s": layers["bvp.boundary_from_table"].total,
        "bvp.sweep_solve.s": layers["bvp.sweep_solve"].total,
        "bvp.sweep_solve.divisions": layers["bvp.sweep_solve"].extra,
        "bvp.cross_validate.self_s": layers["bvp.cross_validate"].self_s,
        "lax3.normalization_grid.s": layers["lax3.normalization_grid"].total,
        "lax3.build_transition.self_s": layers["lax3.build_transition"].self_s,
        "lax3.zcc_residual.calls": layers["lax3.zcc_residual"].calls,
        "lax3.zcc_residual.self_s": layers["lax3.zcc_residual"].self_s,
        "classical.qd_vw.calls": layers["classical.qd_vw"].calls,
        "classical.qd_vw.self_s": layers["classical.qd_vw"].self_s,
        "classical.zcc2_residual.s": layers["classical.zcc2_residual"].total,
        "measures.setup.s": sum(layer.total for name, layer in setup.items()
                                if name.startswith("measures.")),
        "measures.moments_to_jfraction.s": (layers["measures.moments_to_jfraction"].total
                                            + setup["measures.moments_to_jfraction"].total),
        "jsondoc.decode.self_s": layers["jsondoc.decode"].self_s,
        "jsondoc.encode.self_s": layers["jsondoc.encode"].self_s,
        "cli.self_s": layers["cli.main"].self_s,
    }


def _inside_same_name(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False
