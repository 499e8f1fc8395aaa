"""The benchmark's trace table names functions that exist.

`perfbench/spans.py` rebinds every `SPANS` entry with `getattr` on its
infogame module, and `perfbench/rep.py` imports `_util.thread_count`, so
a renamed or deleted function makes a traced benchmark run raise.  The
span file is loaded by path and never edited here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import infogame.cli  # noqa: F401  (the recorder rebinds names in every loaded module)

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_resolves():
    spans = load_spans()
    for mod_name, fns in spans.SPANS.items():
        module = importlib.import_module(f"infogame.{mod_name}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"infogame.{mod_name}.{fn}"


def test_thread_count_exists():
    from infogame import _util

    assert callable(getattr(_util, "thread_count", None))


def test_bellman_span_wraps_the_audit_and_solver_calls():
    from infogame import dualcheck, hamiltonian, solver

    recorder = load_spans().Recorder()
    recorder.install()
    try:
        for module in (hamiltonian, dualcheck, solver):
            assert hasattr(module.ham_bellman_inf_sup, "__wrapped__"), module.__name__
    finally:
        recorder.uninstall()
    assert not hasattr(dualcheck.ham_bellman_inf_sup, "__wrapped__")
