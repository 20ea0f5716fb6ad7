"""nslb: a desk-scale numerical laboratory for incompressible Navier-Stokes
singularity diagnostics on the torus.

Subpackages by concern:

  spectral    -- fields on the n-torus in mode/grid form, divergence, norms
  leray       -- Fourier-mode pressure and divergence-free projection
  dynamics    -- projected Navier-Stokes integration plus energy diagnostics
  cone        -- backward cones, the cone-to-cylinder map, the transformed equation
  kernels     -- Gaussian kernels, bound audits, boundary series, Duhamel residuals
  singularity -- exponent synthesis/fitting and exponent-window gates
  rescale     -- rescaled-window coefficient audits and increment checks
  snapshots   -- binary field snapshots
  cli         -- batch experiments with deterministic JSON/CSV reports
"""

__version__ = "0.1.0"
