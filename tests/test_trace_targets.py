"""The benchmark tracer names package functions by (module, attribute).

A rename or deletion of a traced name breaks `perfbench/run.py --trace 1`.
The tier-1 suite also runs `perfbench/`'s self-tests, whose tracer install
would stop at the first missing name; this test names each missing target.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    targets = _tracing().TARGETS
    assert targets
    for name, modname, attr in targets:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), name


def test_kernel_backend_named():
    # the benchmark's run report stamps the kernel backend
    from vertexmagic import kernels

    assert isinstance(kernels.BACKEND, str) and kernels.BACKEND
