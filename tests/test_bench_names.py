"""The benchmark's trace table names functions that exist, and its
workloads name CLI flags that exist.

`perfbench/spans.py` rebinds every `SPANS` entry with `getattr` on its
infogame module, and `perfbench/rep.py` imports `_util.thread_count`, so
a renamed or deleted function makes a traced benchmark run raise.
`perfbench/workloads.py` holds each workload's argv, so a renamed or
removed flag makes every run of that workload fail.  Both files are
loaded by path and never edited here.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import infogame.cli  # the recorder rebinds names in every loaded module
from infogame.cli import _build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load("spans")


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


def test_the_noise_observer_counts_each_sample_once(tmp_path):
    # spans.py counts distinct (seed, sample index) pairs from the first two
    # positional arguments of `simulator.sample_noise`
    recorder = load_spans().Recorder()
    recorder.install()
    try:
        code = infogame.cli.main([
            "simulate", "--preset", "two-sided-1d", "--strategy", "cycle", "--h", "0.1",
            "--samples", "3", "--out", str(tmp_path / "sim.json"),
        ])
    finally:
        recorder.uninstall()
    assert code == 0
    assert recorder.report()["noise_samples"] == 3


def test_every_workload_argv_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports its sibling fingerprint.py
    workloads = load("workloads")
    parser = _build_parser()
    argvs = {"small solve": ["solve", *workloads.SMALL_SOLVE, "--seed", "0", "--out", "solve-dir"]}
    for name, workload in workloads.WORKLOADS.items():
        argvs[name] = workload.argv("solve-dir", "out-dir", 0)
    assert set(argvs) == {"small solve", *workloads.WORKLOADS}
    for name, argv in argvs.items():
        args = parser.parse_args([str(a) for a in argv])  # a usage error exits: SystemExit
        assert args.command == argv[0], name
