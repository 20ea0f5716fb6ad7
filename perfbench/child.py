"""One benchmark child process: ``python3 perfbench/child.py JOB.json``.

The child imports every ``nslb`` module, installs the tracer when the job
asks for it, generates the workload's inputs, then makes the workload's
calls into ``nslb`` and writes a result file for the parent: the monotonic
times at which it was ready and done, the import time, the raw outputs the
parent checks, and, when traced, the spans and counters.

Only the standard library is imported at module level, so the import of
``nslb`` (with numpy and scipy) is timed as part of set-up.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import platform
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NSLB_MODULES = ("spectral", "leray", "dynamics", "flows", "cone", "kernels", "singularity", "rescale", "snapshots", "cli")

# solver-3d: random 3D field, N=32, 40 steps, every state kept and written.
SOLVER_CONFIG = """\
[grid]
n = 3
N = 32

[physics]
initial = random
nu = 0.05
dt = 0.002
t_end = 0.08
snapshot_stride = 1

[output]
snapshots = true
"""
SOLVER_STEPS = 40

# cone-kernel-3d inputs that do not depend on the seed.
ABC_NU = 0.05
KERNEL_NU = 0.5
RESIDUAL_RESOLUTIONS = (17, 25)
POISSON_RESOLUTION = 33
SERIES_TERMS, SERIES_M_X, SERIES_M_T = 4, 14, 8  # m_x=16 peaks at 1.5 GB
SERIES_TARGET = (1.3, (0.1, 0.0, 0.05))
SERIES_SOURCE = (1.0, (-0.1, 0.05, 0.0))
DENSITY_TAU = 1.05


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def call_cli(cli, argv):
    """Exit status of ``nslb.cli.main(argv)`` as a user's shell would see it."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def read_back(out_dir, read_snapshot):
    """(time, kinetic energy) of every state_*.nslb in file order, plus the
    error that stopped the read-back, if any."""
    import numpy as np

    rows = []
    try:
        for path in sorted(Path(out_dir).glob("state_*.nslb")):
            field, t = read_snapshot(path)
            rows.append((t, 0.5 * float(np.mean(np.sum(field.values**2, axis=0)))))
    except ValueError as exc:  # SnapshotError
        return {"snapshots": rows, "readback_error": f"{path.name}: {exc}"}
    return {"snapshots": rows}


class AbcFlow:
    """Decaying ABC (Beltrami) flow on the unit 3-torus.

    curl v = 2 pi v, so the advection term is the gradient of |v|^2/2 and
    v(t) = exp(-4 pi^2 nu t) v(0) with p = -|v|^2/2 solves Navier-Stokes
    exactly.
    """

    def __init__(self, amplitudes, nu):
        self.a, self.b, self.c = (float(x) for x in amplitudes)
        self.nu = nu

    def velocity(self, t, points):
        import numpy as np

        pts = np.atleast_2d(np.asarray(points, dtype=float))
        k = 2 * np.pi
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        decay = np.exp(-(k**2) * self.nu * t)
        return decay * np.stack(
            [
                self.a * np.sin(k * z) + self.c * np.cos(k * y),
                self.b * np.sin(k * x) + self.a * np.cos(k * z),
                self.c * np.sin(k * y) + self.b * np.cos(k * x),
            ]
        )

    def pressure(self, t, points):
        return -0.5 * (self.velocity(t, points) ** 2).sum(axis=0)


def attempt(fn):
    try:
        return fn()
    except Exception as exc:
        traceback.print_exc()
        return {"error": f"{type(exc).__name__}: {exc}"}


def lab_configs(job, nslb):
    argv = [job["experiment"], "--config", job["config"], "--out", job["out"], "--seed", str(job["seed"])]
    return lambda: {"exit": call_cli(nslb["cli"], argv)}


def solver_3d(job, nslb):
    out = Path(job["out"])
    out.mkdir(parents=True)
    config = out / "solver.cfg"
    config.write_text(SOLVER_CONFIG)
    argv = ["simulate", "--config", str(config), "--out", str(out), "--seed", str(job["seed"])]

    def run():
        outcome = {"exit": call_cli(nslb["cli"], argv), "expected_snapshots": SOLVER_STEPS + 1}
        outcome.update(read_back(out, nslb["snapshots"].read_snapshot))
        return outcome

    return run


def cone_kernel_3d(job, nslb):
    import numpy as np

    cone, kernels = nslb["cone"], nslb["kernels"]
    rng = np.random.default_rng(job["seed"])
    flow = AbcFlow(rng.uniform(0.5, 1.5, 3), ABC_NU)
    quad = rng.normal(size=(3, 3))
    quad = quad + quad.T
    lin, const = rng.normal(size=3), float(rng.normal())
    spec_cone = cone.ConeSpec(t_s=1.0, x_s=(0.1, -0.2, 0.05), t_1=0.5)
    r_0 = cone.CylinderSpec.from_cone(spec_cone).r_0
    tau0 = float(cone.tau_of_t(0.75, spec_cone))
    cyl = cone.CylinderSpec(t_in=1.0, r_0=0.5)
    spec = kernels.KernelSpec(nu_eff=KERNEL_NU, n=3)
    target = (SERIES_TARGET[0], np.array(SERIES_TARGET[1]))
    source = (SERIES_SOURCE[0], np.array(SERIES_SOURCE[1]))
    lateral = cyl.r_0 * np.eye(3)

    def residual():
        res, hs = [], []
        for m in RESIDUAL_RESOLUTIONS:
            ball = cone.BallGrid(3, 0.8 * r_0, m)
            res.append(cone.transformed_residual(flow, spec_cone, tau0, ball, dtau=ball.h).residual_l2)
            hs.append(ball.h)
        return {"residual_l2": res, "h": hs}

    def poisson():
        ball = cone.BallGrid(3, 0.5, POISSON_RESOLUTION)
        z = ball.mesh
        exact = sum(quad[i, j] * z[i] * z[j] for i in range(3) for j in range(3)) + sum(lin[i] * z[i] for i in range(3)) + const
        rhs = np.full(ball.mask.shape, 2.0 * np.trace(quad))
        p = cone.poisson_dirichlet(ball, rhs, exact)
        return {"max_error": float(np.max(np.abs(p - exact)[ball.mask]))}

    def series():
        result = kernels.boundary_kernel_series(SERIES_TERMS, cyl, spec, target, source, m_x=SERIES_M_X, m_t=SERIES_M_T)
        first = kernels.gaussian(target[0] - source[0], target[1] - source[1], spec)
        return {"terms": result.terms.tolist(), "tail_converged": result.tail_converged, "gaussian": float(first)}

    def density():
        values = kernels.boundary_density(
            lambda s, xi: flow.velocity(s, xi)[0],
            lambda s, xi: flow.velocity(s, xi)[1],
            lambda s, xi: -flow.pressure(s, xi),
            cyl,
            spec,
            DENSITY_TAU,
            lateral,
        )
        return {"values": [float(v) for v in values]}

    calls = {"residual": residual, "poisson": poisson, "series": series, "density": density}
    return lambda: {"ops": {name: attempt(fn) for name, fn in calls.items()}}


WORKLOADS = {"lab-configs": lab_configs, "solver-3d": solver_3d, "cone-kernel-3d": cone_kernel_3d}


def blas_threads():
    """Thread count each loaded OpenBLAS reports it will use."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment():
    import numpy
    import scipy

    def blas_version(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_threads_in_effect": blas_threads(),
    }


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    started = now()
    nslb = {name: importlib.import_module(f"nslb.{name}") for name in NSLB_MODULES}
    import_s = now() - started
    where = Path(nslb["cli"].__file__).resolve().parent
    if where != ROOT / "src" / "nslb":
        sys.exit(f"nslb imported from {where}, not from this checkout")
    tracer = None
    if job["trace"]:
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer, list(nslb.values()))
    run = WORKLOADS[job["workload"]](job, nslb)
    ready = now()
    outcome = run()
    done = now()
    result = {"ready": ready, "done": done, "import_s": import_s, "outcome": outcome, "environment": environment()}
    if tracer is not None:
        result["spans"] = tracer.finish()
        result["counters"] = tracer.counters
        result["traced"] = sorted(tracer.names)
    Path(job["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
