"""Spans around the calls into each shearlab module, recorded from outside.

The tracer replaces, for the length of a traced loop, the names through
which one module calls another: the names ``shearlab.cli`` imported, the
names a module imported from another (``stability.integrate_mode`` as
``energy_decay_check`` sees it, ``pdesim.uniform_shear``), the methods other
modules call (``LocalizedSolution.evaluate``) and the ``solve_ivp`` each
solver module imported, whose result carries ``nfev``, ``njev`` and ``nlu``.
No file of the program changes.

A span is (parent, layer, name, start, end, extra). Spans stay in memory and
are written out once the run ends. Everything runs in one thread and no
layer queues work for another, so a span has no wait time, only busy time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("csvio", "material", "stability", "orbit", "profile", "localization", "pdesim")

NO_WAIT = ("single thread, closed loop: no layer queues work or waits on another, "
           "so spans hold busy time only")


def _csv_extra(args, kwargs, result):
    path, columns = args[0], args[1]
    first = next(iter(columns.values()))
    return {"rows": int(getattr(first, "size", None) or len(first)),
            "bytes": os.path.getsize(path)}


def _solver_extra(args, kwargs, result):
    return {"nfev": int(result.nfev), "njev": int(result.njev), "nlu": int(result.nlu),
            "method": str(kwargs.get("method", "RK45"))}


# (object that holds the name, name, layer, what to keep from the call)
HOOKS = (
    # the names shearlab.cli calls
    ("shearlab.cli", "write_csv", "csvio", _csv_extra),
    ("shearlab.cli", "write_manifest", "csvio", None),
    ("shearlab.cli", "uniform_shear", "material", None),
    ("shearlab.cli", "tau_of_t", "material", None),
    ("shearlab.cli", "t_of_tau", "material", None),
    ("shearlab.cli", "spectrum", "stability", None),
    ("shearlab.cli", "integrate_mode", "stability", lambda a, k, r: {"method": r.method}),
    ("shearlab.cli", "energy_certificate", "stability", None),
    ("shearlab.cli", "energy_decay_check", "stability", None),
    ("shearlab.cli", "shoot_heteroclinic", "orbit", lambda a, k, r: {"samples": r.eta.size}),
    ("shearlab.cli", "reparametrize", "orbit", None),
    ("shearlab.cli", "reconstruct", "profile", None),
    ("shearlab.cli", "ode_residual", "profile", None),
    ("shearlab.cli", "endpoint_report", "profile", None),
    ("shearlab.cli", "residual_convergence", "localization", None),
    ("shearlab.cli", "band_diagnostics", "localization", None),
    ("shearlab.cli", "run_sim", "pdesim", None),
    # the names the modules call each other by
    ("shearlab.orbit", "shoot_heteroclinic", "orbit", lambda a, k, r: {"samples": r.eta.size}),
    ("shearlab.orbit", "estimate_kappa1", "orbit", None),
    ("shearlab.orbit", "solve_ivp", "orbit", _solver_extra),
    ("shearlab.orbit:OrbitPath", "states_at", "orbit", None),
    ("shearlab.profile:Profile", "__call__", "profile", None),
    ("shearlab.localization:LocalizedSolution", "evaluate", "localization", None),
    ("shearlab.localization", "pde_residual", "localization", None),
    ("shearlab.stability", "integrate_mode", "stability", lambda a, k, r: {"method": r.method}),
    ("shearlab.stability", "energy_certificate", "stability", None),
    ("shearlab.stability", "t_of_tau", "material", None),
    ("shearlab.stability", "solve_ivp", "stability", _solver_extra),
    ("shearlab.material", "tau_of_t", "material", None),
    ("shearlab.pdesim", "uniform_shear", "material", None),
    ("shearlab.pdesim", "solve_ivp", "pdesim", _solver_extra),
)


def _holder(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; ``pipeline`` opens the root span of one op."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, layer, name, start, extra=None):
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = (parent, layer, name, start, end, extra)

    def wrap(self, fn, layer: str, keep=None):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, layer, name, start)
            if keep is not None:
                self.spans[sid] = self.spans[sid][:5] + (keep(args, kwargs, result),)
            return result
        return traced

    def pipeline(self, label: str, call):
        """Run ``call()`` as the root span of one op; the root span is the cli layer."""
        sid, parent = self._open()
        start = perf_counter()
        try:
            return call()
        finally:
            self._close(sid, parent, "cli", label, start)

    def install(self) -> None:
        for spec, attr, layer, keep in HOOKS:
            holder = _holder(spec)
            original = holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)
            self._saved.append((holder, attr, original))
            setattr(holder, attr, self.wrap(original, layer, keep))

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def write(self, path: Path, header: dict) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [[p, layer, name, round(s - t0, 7), round(e - t0, 7), extra]
                for p, layer, name, s, e, extra in self.spans]
        path.write_text(json.dumps({**header, "waits": NO_WAIT,
                                    "columns": ["parent", "layer", "name", "start_s",
                                                "end_s", "extra"],
                                    "spans": rows}, separators=(",", ":")))


def layer_metrics(spans: list, passes: int, scales: list[float]) -> dict[str, float]:
    """Per-layer metrics, each a total over the traced passes divided by ``passes``.

    Times ending in ``_s`` are inclusive span times, except ``<layer>.self_s``
    (span time minus child spans); the root span of each op is the cli layer,
    so the self times of all layers and ``cli.self_s`` sum to ``trace.pipeline_s``.
    Every time is multiplied by its op's entry of ``scales``, one per root span.
    """
    roots = iter(scales)
    scale = [1.0] * len(spans)
    for sid, (parent, *_) in enumerate(spans):
        scale[sid] = next(roots) if parent < 0 else scale[parent]
    child = [0.0] * len(spans)
    for sid, (parent, _, _, start, end, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += (end - start) * scale[sid]
    total = defaultdict(float)
    for sid, (parent, layer, name, start, end, extra) in enumerate(spans):
        dur = (end - start) * scale[sid]
        total[f"{layer}.self_s"] += dur - child[sid]
        if parent < 0:
            total["trace.pipeline_s"] += dur
            continue
        pname = spans[parent][2]
        extra = extra or {}
        total[f"{layer}:{name}"] += dur
        total[f"{layer}:{name}:calls"] += 1
        if name == "shoot_heteroclinic":
            nested = pname == "shoot_heteroclinic"
            total["orbit.retries"] += nested
            if not nested:
                total["orbit.shoot_s"] += dur
                total["orbit.samples"] += extra.get("samples", 0)
        elif name == "evaluate" and pname == "band_diagnostics":
            total["localization.band_evaluate_calls"] += 1
        elif name == "solve_ivp":
            for key in ("nfev", "njev", "nlu"):
                total[f"{layer}.{key}"] += extra.get(key, 0)
            if layer == "pdesim":
                total["pdesim.integrate_s"] += dur
                total["pdesim.lsoda_runs"] += extra.get("method") == "LSODA"
                if pname == "run":  # time the run spends after the solver returns
                    total["pdesim.diagnostics_s"] += (spans[parent][4] - end) * scale[sid]
        elif name == "integrate_mode":
            total[f"stability.{extra.get('method')}_modes"] += 1
        elif name == "write_csv":
            total["csvio.rows"] += extra.get("rows", 0)
            total["csvio.bytes"] += extra.get("bytes", 0)

    named = {
        "orbit.shoot_calls": "orbit:shoot_heteroclinic:calls",
        "orbit.reparametrize_s": "orbit:reparametrize",
        "localization.evaluate_s": "localization:evaluate",
        "localization.evaluate_calls": "localization:evaluate:calls",
        "localization.band_s": "localization:band_diagnostics",
        "localization.residual_s": "localization:residual_convergence",
        "profile.reconstruct_s": "profile:reconstruct",
        "profile.ode_residual_s": "profile:ode_residual",
        "profile.endpoint_s": "profile:endpoint_report",
        "pdesim.run_s": "pdesim:run",
        "csvio.write_s": "csvio:write_csv",
        "csvio.manifest_s": "csvio:write_manifest",
        "stability.energy_s": "stability:energy_decay_check",
        "stability.integrate_mode_s": "stability:integrate_mode",
        "stability.spectrum_s": "stability:spectrum",
        "material.uniform_shear_calls": "material:uniform_shear:calls",
        "material.uniform_shear_s": "material:uniform_shear",
    }
    for metric, key in named.items():
        total[metric] = total.get(key, 0.0)
    accounted = sum(total[f"{layer}.self_s"] for layer in ("cli",) + LAYERS)
    out = {k: v / passes for k, v in total.items() if ":" not in k}
    out["trace.accounted_share"] = (accounted / total["trace.pipeline_s"]
                                    if total["trace.pipeline_s"] else 0.0)
    out["trace.spans"] = len(spans) / passes
    return out
