"""Spans for the traced benchmark run, and the per-layer metrics derived from them.

`Tracer.installed()` replaces each function named in LAYERS by a recording
wrapper at every attribute of a loaded `momentgmm` module that holds it. The
library's callers look functions up either as module globals
(`momentgmm.waring.pow_linear`, `momentgmm.gmm.e_step`) or as attributes of
an imported module (`gmm.init_kmeans` inside `cli`), so both kinds of lookup
reach the wrapper and no source file changes. Leaving the context restores
the originals; an untraced run never enters it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, function) pairs, named "<module>.<function>" in spans and metrics
LAYERS = (
    ("cli", "run_benchmark"),
    ("cli", "fit_once"),
    ("gmm", "sample"),
    ("gmm", "init_kmeans"),
    ("gmm", "init_emem"),
    ("gmm", "init_moments"),
    ("gmm", "init_random"),
    ("gmm", "em_fit"),
    ("gmm", "e_step"),
    ("gmm", "m_step"),
    ("moments", "empirical_moments"),
    ("moments", "recover_parameters"),
    ("waring", "decompose"),
    ("waring", "truncated_svd_basis"),
    ("waring", "simultaneous_diagonalize"),
    ("waring", "solve_weights"),
    ("waring", "refine"),
    ("waring", "relative_residual"),
    ("hankel", "hankel"),
    ("symtensor", "pow_linear"),
    ("symtensor", "reconstruct"),
    ("metrics", "ari"),
    ("metrics", "error_rate"),
    ("metrics", "bic"),
)
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn in LAYERS)


@dataclass(slots=True)
class Span:
    name: str
    job: int | None
    parent: int | None  # index of the enclosing span in the span list
    start: float
    end: float = float("nan")


class Tracer:
    """Records one span per wrapped call; spans stay in memory until `dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job: int | None = None
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.job, open_[-1] if open_ else None, 0.0)
            open_.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                open_.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "momentgmm" or key.startswith("momentgmm.")
        ]
        patched = []
        try:
            for mod_name, fn_name in LAYERS:
                original = getattr(
                    importlib.import_module(f"momentgmm.{mod_name}"), fn_name
                )
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": s.parent, "job": s.job, "name": s.name,
                    "start": s.start, "end": s.end,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that the union of
    its child spans covers."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, s.start), min(c_end, s.end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, float]:
    """`<layer>.calls`, `<layer>.s` and `<layer>.self_s` per job for every
    layer in LAYERS; layers a workload never calls read 0."""
    totals = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
    for s, own in zip(spans, self_times(spans)):
        t = totals[s.name]
        t[0] += 1
        t[1] += s.end - s.start
        t[2] += own
    out = {}
    for name, (calls, total, own) in totals.items():
        out[f"{name}.calls"] = calls / jobs
        out[f"{name}.s"] = total / jobs
        out[f"{name}.self_s"] = own / jobs
    return out
