"""Spans and counters taken around public calls into mrpkit.

A ``Recorder`` keeps one span per call (name, start, end, parent, size) in
memory and writes them out once, when the process ends.  ``install`` wraps
the public functions and methods listed in ``TARGETS`` and rebinds every
reference to them held by a loaded mrpkit module, so that names imported
with ``from mrpkit.x import f`` are wrapped too.

Without tracing only ``LogDensityModel.grad`` is wrapped, by a bare counter:
the gradient count is the denominator of ``ess_per_kgrad``.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, attribute, span name, size of one call's work or None)
TARGETS = (
    ("mrpkit.cli", "cmd_fit", "cli.fit", None),
    ("mrpkit.cli", "cmd_poststratify", "cli.poststratify", None),
    ("mrpkit.cli", "cmd_diagnose", "cli.diagnose", None),
    ("mrpkit.cli", "cmd_simulate", "cli.simulate", None),
    ("mrpkit.data", "load_dataset", "data.load_dataset",
     lambda out: len(out.survey)),
    ("mrpkit.design", "eta_cells", "design.eta_cells", None),
    ("mrpkit.model", "LogDensityModel.__init__", "model.build", None),
    ("mrpkit.model", "LogDensityModel.grad", "model.grad", None),
    ("mrpkit.model", "LogDensityModel.log_posterior", "model.log_posterior",
     None),
    ("mrpkit.model", "LogDensityModel.initial_point", "model.initial_point",
     None),
    ("mrpkit.samplers", "sample_mcmc", "samplers.sample_mcmc", None),
    ("mrpkit.samplers", "fd_hessian", "samplers.fd_hessian", None),
    ("mrpkit.samplers", "save_draws", "samplers.save_draws", None),
    ("mrpkit.samplers", "load_draws", "samplers.load_draws", None),
    ("mrpkit.diagnostics", "compute_diagnostics", "diagnostics.compute", None),
    ("mrpkit.diagnostics", "diagnostics_table", "diagnostics.table", None),
    ("mrpkit.poststrat", "predict_cells", "poststrat.predict_cells",
     lambda out: out.eta.size),
    ("mrpkit.poststrat", "poststratify", "poststrat.poststratify", None),
    ("mrpkit.poststrat", "calibrate_to_totals", "poststrat.calibrate", None),
    ("mrpkit.synthetic", "write_scenario_files", "synthetic.write_files",
     None),
    ("mrpkit.synthetic", "simulate_poll", "synthetic.simulate_poll", None),
    # sbc simulates its polls with its own fixed-design copy of simulate_poll
    ("mrpkit.sbc", "_simulate_fixed_design", "synthetic.simulate_poll", None),
    ("mrpkit.sbc", "run_sbc", "sbc.run", None),
    ("mrpkit.sbc", "draw_from_prior", "sbc.draw_from_prior", None),
)

clock = time.perf_counter


class Recorder:
    """Spans of one process, kept in memory until ``save``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.size: list[float] = []
        self._stack: list[int] = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(clock())
        self.end.append(np.nan)
        self.size.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx, size=0.0):
        self.end[idx] = clock()
        self.size[idx] = size
        self._stack.pop()

    def add(self, name, start, end):
        """A span measured by the caller (e.g. the import of mrpkit.cli)."""
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(start)
        self.end.append(end)
        self.size.append(0.0)

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 size=np.array(self.size))


def _traced(fn, name, size_of, rec: Recorder):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx)
            raise
        rec.close(idx, size_of(out) if size_of is not None else 0.0)
        return out
    return wrapper


class GradCounter:
    """Counts calls of ``LogDensityModel.grad`` in this process."""

    def __init__(self):
        self.calls = 0

    def wrap(self, fn):
        @functools.wraps(fn)
        def grad(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return grad


def _resolve(module, attr):
    obj = sys.modules[module]
    owner, _, leaf = attr.rpartition(".")
    if owner:
        obj = getattr(obj, owner)
    return obj, leaf


def _rebind(original, replacement):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mrpkit" or mod_name.startswith("mrpkit."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


def install(rec: Recorder | None, counter: GradCounter) -> None:
    """Wrap the targets (all of them when ``rec`` is given, else only the
    gradient counter) in every target module imported so far."""
    for module, attr, name, size_of in TARGETS:
        if module not in sys.modules:
            continue
        owner, leaf = _resolve(module, attr)
        fn = getattr(owner, leaf)
        wrapped = fn
        if name == "model.grad":
            wrapped = counter.wrap(wrapped)
        if rec is not None:
            wrapped = _traced(wrapped, name, size_of, rec)
        if wrapped is fn:
            continue
        if isinstance(owner, type):
            setattr(owner, leaf, wrapped)
        else:
            _rebind(fn, wrapped)


def load_spans(path) -> dict:
    """Spans written by ``Recorder.save``, with per-span duration and self
    time (duration minus the time its direct children cover)."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        out = {k: z[k] for k in ("name_id", "start", "end", "parent", "size")}
    dur = out["end"] - out["start"]
    child = np.zeros(len(dur))
    has_parent = out["parent"] >= 0
    np.add.at(child, out["parent"][has_parent], dur[has_parent])
    out["names"] = names
    out["dur"] = dur
    out["self"] = dur - child
    return out


def span_totals(spans, lo=-np.inf, hi=np.inf) -> dict:
    """{name: [calls, total s, self s, size]} over spans starting in
    [lo, hi)."""
    out = {}
    keep = (spans["start"] >= lo) & (spans["start"] < hi)
    for i, name in enumerate(spans["names"]):
        m = keep & (spans["name_id"] == i)
        if m.any():
            out[name] = [int(m.sum()), float(spans["dur"][m].sum()),
                         float(spans["self"][m].sum()),
                         float(spans["size"][m].sum())]
    return out


def merge_totals(parts) -> dict:
    out = {}
    for part in parts:
        for name, vals in part.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0.0])
            for k in range(4):
                acc[k] += vals[k]
    return out
