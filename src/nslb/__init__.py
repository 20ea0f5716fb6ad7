"""nslb: a desk-scale numerical laboratory for incompressible Navier-Stokes
singularity diagnostics on the torus.

Subpackages by concern:

  spectral    -- fields on the n-torus in mode/grid form, divergence, norms
  leray       -- Fourier pressure gradient and divergence-free projection
  dynamics    -- projected Navier-Stokes integration plus energy diagnostics
  cone        -- backward cones, the cone-to-cylinder map, the transformed equation
  kernels     -- Gaussian kernels, bound audits, boundary series, Duhamel residuals
  singularity -- exponent synthesis/fitting and exponent-window gates
  rescale     -- rescaled-window coefficient audits and increment checks
  snapshots   -- binary field snapshots
  cli         -- batch experiments with deterministic JSON/CSV reports

NSLB_THREADS, when set, becomes the default of the OpenMP, OpenBLAS and MKL
thread caps.  It is applied here, before any submodule imports numpy,
because the BLAS reads its cap once, when numpy loads it.
"""

import os

_threads = os.environ.get("NSLB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"
