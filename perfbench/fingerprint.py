"""Compact fingerprints of CLI artifacts and the checks behind `error_rate`.

A fingerprint is a flat mapping from a key path to a leaf (number, string
or bool).  Leaves that depend on the run's seed (the Isaacs sample in
`diagnostics.json`, the Monte Carlo estimates in `simulate.json`) sit
under the `seeded` part and are compared with the reference only at the
seed the reference was recorded with.  Every other leaf is compared at
every seed, numbers as |a - b| <= 1e-13 * max(1, |b|).  Keys that are
present in an artifact but absent from the reference are ignored, so new
diagnostics do not count as failures.

`slices.csv` is too large to keep (47 MB for solve-2type): its fingerprint
is the header, the row count, every `ROW_STRIDE`-th row and the min, max
and exact sum (`math.fsum`) of `w` in each time slice.
"""

from __future__ import annotations

import json
import math
import os

REL_TOL = 1e-13
ROW_STRIDE = 4099
CERTIFICATE_TOL = 1e-10  # acceptance criterion 2's bound on the envelope certificates

_SEEDED_SIMULATE = ("estimates", "stderrs", "combined_estimate", "combined_stderr", "seed")


def flatten(obj, prefix: str = "") -> dict:
    """Key paths to leaves; a list also records its length under `#len`."""
    out = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten(value, f"{prefix}{key}/"))
    elif isinstance(obj, list):
        out[f"{prefix}#len"] = len(obj)
        for k, value in enumerate(obj):
            out.update(flatten(value, f"{prefix}{k}/"))
    else:
        out[prefix.rstrip("/")] = obj
    return out


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def slices_fingerprint(path: str, n_slices: int) -> dict:
    with open(path) as handle:
        lines = handle.read().splitlines()
    body = lines[1:]
    per_slice = len(body) // n_slices
    out = {"header": lines[0], "rows": len(body)}
    for r in range(0, len(body), ROW_STRIDE):
        for c, cell in enumerate(body[r].split(",")):
            out[f"row/{r}/{c}"] = float(cell)
    for k in range(n_slices):
        w = [float(line.rsplit(",", 1)[1]) for line in body[k * per_slice : (k + 1) * per_slice]]
        out[f"slice/{k}/min"] = min(w)
        out[f"slice/{k}/max"] = max(w)
        out[f"slice/{k}/sum"] = math.fsum(w)
    return {f"slices.csv/{key}": value for key, value in out.items()}


def solve_fingerprint(out_dir: str) -> tuple[dict, dict]:
    meta = _load_json(os.path.join(out_dir, "diagnostics.json"))
    seeded = flatten({"diagnostics": {"isaacs": meta["diagnostics"].pop("isaacs")}}, "diagnostics.json/")
    fixed = flatten(meta, "diagnostics.json/")
    fixed.update(slices_fingerprint(os.path.join(out_dir, "slices.csv"), len(meta["times"])))
    return fixed, seeded


def check_fingerprint(report_path: str) -> tuple[dict, dict]:
    return flatten(_load_json(report_path), "check.json/"), {}


def simulate_fingerprint(report_path: str) -> tuple[dict, dict]:
    report = _load_json(report_path)
    seeded = {k: report.pop(k) for k in _SEEDED_SIMULATE}
    return flatten(report, "simulate.json/"), flatten(seeded, "simulate.json/")


def close(a, b) -> bool:
    """Number match by the shared tolerance; other leaves must be equal."""
    if isinstance(b, bool) or not isinstance(b, (int, float)):
        return a == b
    if isinstance(a, bool) or not isinstance(a, (int, float)):
        return False
    if math.isnan(b) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def compare(actual: dict, reference: dict, limit: int = 5) -> list[str]:
    """Mismatches of `actual` against every key in `reference`."""
    problems = []
    for key, ref in reference.items():
        if key not in actual:
            problems.append(f"{key}: missing (reference {ref!r})")
        elif not close(actual[key], ref):
            problems.append(f"{key}: {actual[key]!r} != reference {ref!r}")
        if len(problems) >= limit:
            break
    return problems


def solve_invariants(out_dir: str) -> list[str]:
    """Seed-independent properties: both envelope certificates within tolerance."""
    diag = _load_json(os.path.join(out_dir, "diagnostics.json"))["diagnostics"]
    worst = max(diag["convexity_violations_p"] + diag["concavity_violations_q"], default=0.0)
    if not worst <= CERTIFICATE_TOL:
        return [f"envelope certificate {worst!r} above {CERTIFICATE_TOL}"]
    return []


def check_invariants(report_path: str) -> list[str]:
    report = _load_json(report_path)
    ok = report["supersolution_ok"] and report["subsolution_ok"]
    if not ok or report["crosscheck"]["disagreements"] != 0:
        return ["dual audit did not pass"]
    return []


def simulate_invariants(report_path: str) -> list[str]:
    """`combined_estimate` must equal sum_ij p_i q_j estimates_ij."""
    report = _load_json(report_path)
    p, q, est = report["p"], report["q"], report["estimates"]
    expected = 0.0
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            expected += float(pi * qj) * est[i][j]
    if not close(report["combined_estimate"], expected):
        return [f"combined_estimate {report['combined_estimate']!r} != sum p q estimates {expected!r}"]
    return []
