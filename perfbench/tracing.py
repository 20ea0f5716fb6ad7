"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded at each layer boundary around calls into ``nslb``: the
benchmark rebinds every public function of every ``nslb`` module to a
traced wrapper in each module that bound the name (``cli`` imports
``simulate`` by name, ``leray`` imports ``to_grid``), so calls are caught
whichever module they are made from.  Spans stay in memory with the index
of the span that caused them; ``finish`` derives self times for writing out
at the end of the child.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import time

MB = float(1 << 20)


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, parent index or -1, start, end]
        self.counters = {}
        self.names = set()  # every span name a wrapper was made for
        self._stack = []

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, hook=None):
        """Traced stand-in for ``fn``; ``hook(tracer, fn, args, kwargs)``, if
        given, makes the call itself and records counters around it."""
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, parent, self.clock(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                span[3] = self.clock()
                self._stack.pop()

        return traced

    def finish(self):
        """Spans as ``[name, parent, duration, self time]``; the self time is
        the duration minus the part covered by direct children."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            [name, parent, end - start, end - start - covered[i]]
            for i, (name, parent, start, end) in enumerate(self.spans)
        ]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _simulate_hook(tracer, fn, args, kwargs):
    cfg = _arg(args, kwargs, 1, "cfg")
    before = maxrss_mb()
    traj = fn(*args, **kwargs)
    tracer.count("dynamics.simulate.rss_growth_mb", maxrss_mb() - before)
    tracer.count("dynamics.rk4_steps", int(round(cfg.t_end / cfg.dt)))
    tracer.count("dynamics.snapshots_kept", len(traj.snapshots))
    tracer.count("dynamics.retained_mb", sum(f.modes.nbytes for f in traj.snapshots) / MB)
    return traj


def _series_hook(tracer, fn, args, kwargs):
    before = maxrss_mb()
    result = fn(*args, **kwargs)
    tracer.count("kernels.boundary_kernel_series.rss_growth_mb", maxrss_mb() - before)
    return result


def _gaussian_hook(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.count("kernels.gaussian.evals", int(getattr(result, "size", 1)))
    return result


def _poisson_hook(tracer, fn, args, kwargs):
    ball = _arg(args, kwargs, 0, "ball")
    tracer.count("cone.poisson_dirichlet.unknowns", int(ball.interior.sum()))
    return fn(*args, **kwargs)


def _write_hook(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.count("snapshots.write_snapshot.mb", os.path.getsize(_arg(args, kwargs, 0, "path")) / MB)
    return result


def _read_hook(tracer, fn, args, kwargs):
    tracer.count("snapshots.read_snapshot.mb", os.path.getsize(_arg(args, kwargs, 0, "path")) / MB)
    return fn(*args, **kwargs)


HOOKS = {
    "dynamics.simulate": _simulate_hook,
    "kernels.boundary_kernel_series": _series_hook,
    "kernels.gaussian": _gaussian_hook,
    "cone.poisson_dirichlet": _poisson_hook,
    "snapshots.write_snapshot": _write_hook,
    "snapshots.read_snapshot": _read_hook,
}

SPSOLVE = "scipy.sparse.linalg.spsolve"


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = vars(module).get(name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield name, fn


def instrument(tracer, modules):
    """Rebind the public functions of ``modules`` (all ``nslb``) to traced
    wrappers everywhere they are bound, plus the ball-grid stencils, the
    experiment table of ``nslb.cli`` and scipy's sparse direct solve."""
    import scipy.sparse.linalg

    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    wrapped = {}
    experiments = by_name["cli"].EXPERIMENTS
    for experiment, fn in experiments.items():  # span named as the CLI names the experiment
        wrapped[fn] = tracer.wrap(f"cli.{experiment}", fn)
    experiments.update({k: wrapped[fn] for k, fn in experiments.items()})
    for short, module in by_name.items():
        for name, fn in _public_functions(module):
            if fn not in wrapped:
                span = f"{short}.{name}"
                wrapped[fn] = tracer.wrap(span, fn, HOOKS.get(span))
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
    ball = by_name["cone"].BallGrid
    for method in ("partial", "second_partial"):
        setattr(ball, method, tracer.wrap(f"cone.BallGrid.{method}", getattr(ball, method)))
    scipy.sparse.linalg.spsolve = tracer.wrap(SPSOLVE, scipy.sparse.linalg.spsolve)
