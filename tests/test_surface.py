"""The public surface is what the CLI, the audits and paper-level tests use.

Deleted helpers stay deleted, keyword options that had a single value in
use are constants, and fields that nothing read are gone: passing one is a
TypeError, not a silent no-op.
"""

from __future__ import annotations

import importlib

import pytest

import infogame
from infogame.dualcheck import build_probes, check_dual_solution, primal_crosscheck
from infogame.model import GameModel
from infogame.oracle import classical_backward
from infogame.simulator import PayoffEstimate, PureStrategy, feedback_from_field
from infogame.solver import dual_project, hjb_step, solve
from infogame.transform import biconjugate_p

DELETED = {
    "hamiltonian": ("HamiltonianQuery", "_query_table", "ham_inf_sup", "ham_sup_inf", "isaacs_gap"),
    "transform": ("ConjugateValue", "conjugate_p", "concave_conjugate_q", "TIE_TOLERANCE"),
    "model": ("evaluate_dynamics", "_Dynamics", "_DYNAMICS_PRESETS", "_terminal_cost", "_running_cost"),
    "oracle": (
        "exact_payoff_random", "one_sided_recursion", "OneSidedResult", "ClassicalResult",
        "_forward_states", "_stage_table", "_HORIZON_TOL",
    ),
    "solver": ("_shift", "_derivatives", "_hessians", "numerical_hamiltonian"),
    "dualcheck": ("_stencil_jets",),
    "simulator": ("NoisePath",),
}


@pytest.mark.parametrize("module", sorted(DELETED))
def test_deleted_names_are_gone(module):
    home = importlib.import_module(f"infogame.{module}")
    for name in DELETED[module]:
        assert not hasattr(home, name), f"infogame.{module}.{name}"
        assert name not in infogame.__all__, name


# the arguments are never looked at: an unknown keyword fails while binding
REMOVED_KEYWORDS = (
    (solve, (None, None), {"t0": 0.0, "dt": 0.1}, "isaacs_tol"),
    (solve, (None, None), {"t0": 0.0, "dt": 0.1}, "check_commutation"),
    (dual_project, (None, None, None), {}, "check_commutation"),
    (biconjugate_p, (None, None), {}, "extra_probes"),
    (build_probes, (None, "p"), {}, "per_slice_nodes"),
    (check_dual_solution, (None,), {}, "tie_tol"),
    (primal_crosscheck, (None,), {}, "tie_tol"),
    (feedback_from_field, (None, None, "u", None, None), {}, "label"),
    (solve, (None, None), {"t0": 0.0, "dt": 0.1}, "project"),
    (hjb_step, (None, None, 0.0, None, 0.1), {}, "validate"),
    (PureStrategy, ("u", 1, None), {}, "label"),
    (GameModel, (), {}, "name"),
    (classical_backward, (None,), {}, "g"),
    (classical_backward, (None,), {}, "l"),
    (PayoffEstimate, (0.0, 0.0), {}, "samples"),
)


@pytest.mark.parametrize(
    "fn, args, kwargs, keyword", REMOVED_KEYWORDS, ids=[f"{f.__name__}-{k}" for f, _, _, k in REMOVED_KEYWORDS]
)
def test_removed_keywords_are_refused(fn, args, kwargs, keyword):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        fn(*args, **kwargs, **{keyword: None})
