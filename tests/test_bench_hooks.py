"""Every per-layer hook of the benchmark's tracer names a program attribute
that exists, so a refactor cannot drop a layer metric unnoticed.

The targets are resolved the way ``perfbench/tracer.py`` resolves them; no
hook is installed.
"""

import importlib
import importlib.util
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _hook_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(modname, attr) for modname, attr, _, _ in tracer.HOOKS]


@pytest.mark.parametrize("modname, attr", _hook_targets())
def test_hook_target_resolves(modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_rbcm_pool_is_the_executor_the_tracer_replaces():
    rbcm = importlib.import_module("skewgp.rbcm")
    assert rbcm.ThreadPoolExecutor is ThreadPoolExecutor
