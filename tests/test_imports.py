"""What importing ``nslb`` costs: which scipy subpackages it loads."""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nslb"

# scipy's Python packages, and what their init imports: nslb loads only the
# compiled kernels it calls (nslb._compiled), which are also its only FFT
UNLOADED = (
    "scipy",
    "scipy.fft",
    "scipy.sparse",
    "scipy.special",
    "scipy.integrate",
    "scipy.optimize",
    "scipy.linalg",
    "scipy.sparse.linalg",
    "numpy.f2py",
    "numpy.fft",
)


def _perfbench_modules():
    """The module list the benchmark child imports (and times) as set-up."""
    spec = importlib.util.spec_from_file_location("perfbench_child", ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.NSLB_MODULES


def test_nslb_modules_leave_heavy_scipy_unloaded():
    modules = _perfbench_modules()
    code = (
        "import importlib, json, sys\n"
        f"for name in {list(modules)!r}:\n"
        "    importlib.import_module('nslb.' + name)\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.f2py', 'numpy.fft')))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert [name for name in UNLOADED if name in loaded] == []


def _sources_naming(*subpackages):
    alternatives = "|".join(subpackages)
    pattern = re.compile(rf"scipy\.({alternatives})\b|from\s+scipy\s+import\s+[^\n]*\b({alternatives})\b")
    return [str(path.relative_to(ROOT)) for path in sorted(SRC.rglob("*.py")) if pattern.search(path.read_text())]


def test_no_source_file_names_scipy_integrate():
    # a call-site import would pass the subprocess test above while moving
    # the import cost from set-up into the run itself
    assert _sources_naming("integrate") == []


def test_no_source_file_names_scipy_fft_or_sparse():
    # the same for the two packages whose compiled kernels nslb loads itself
    assert _sources_naming("fft", "sparse") == []


def test_no_source_file_names_numpy_fft():
    # pocketfft's real kernels are the one transform backend
    pattern = re.compile(r"\b(np|numpy)\.fft\b")
    assert [str(path.relative_to(ROOT)) for path in sorted(SRC.rglob("*.py")) if pattern.search(path.read_text())] == []


def test_every_public_library_function_is_in_all():
    # the benchmark tracer wraps only the names in __all__, so a public
    # function missing from it would run untimed
    missing = []
    libraries = [path.stem for path in sorted(SRC.glob("*.py")) if path.stem not in ("__init__", "cli")]
    assert len(libraries) >= 9
    for stem in libraries:
        module = importlib.import_module(f"nslb.{stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if name not in module.__all__:
                missing.append(f"{stem}.{name}")
    assert missing == []
