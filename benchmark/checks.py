"""Output checks.  Each returns a list of failure messages, empty when it holds.

Tolerances are fixed here, before any run, from the theorems and contracts
the library states; test_checks.py shows that each check rejects a value
perturbed just past its tolerance.
"""

from __future__ import annotations

import math

ROUNDING = 1e-12        # rounding allowance on top of a truncation bound, times C_f
LIN_REL = 1e-10         # lin forms against r^{-c} * reconstruction, relative to r^{-c} C_f
CAUCHY_REL = 1e-8       # Cauchy boundary formula at QuadratureSpec tol 1e-9
EXTRACT_REL = 1e-6      # weighted boundary formula, k = 0..3
RESIDUE_REL = 1e-8      # small-circle residue against the factor route
CORE_REL = 1e-10        # closed-form derivative routes of core
COLUMN_REL = 1e-11      # oracle columns the CLI writes against ours
BOUND_REL = 1e-12       # a-priori bounds the library reports against ours


def _finite(value) -> bool:
    value = complex(value)
    return math.isfinite(value.real) and math.isfinite(value.imag)


def close(label: str, got, want, tol: float) -> list[str]:
    """|got - want| <= tol."""
    if got is None or not _finite(got) or not abs(complex(got) - complex(want)) <= tol:
        return [f"{label}: got {got!r}, want {want!r} within {tol:.3g}"]
    return []


def close_rel(label: str, got, want, rel: float) -> list[str]:
    """|got - want| <= rel * max(1, |want|)."""
    return close(label, got, want, rel * max(1.0, abs(complex(want))))


def at_most(label: str, value: float, limit: float) -> list[str]:
    if not value <= limit:
        return [f"{label}: {value!r} exceeds {limit:.3g}"]
    return []


def within_bound(label: str, got, oracle, reported_bound: float, bound: float) -> list[str]:
    """A truncated series value within its a-priori bound of the oracle.

    The bound the library reports must equal ours, so that a loosened
    bound cannot make the check vacuous.
    """
    errs = close(f"{label} reported bound", reported_bound, bound, BOUND_REL * bound)
    return errs + close(f"{label} truncation", got, oracle, bound)


def bernstein_ratio(ratio: float, T: float, allowance: float) -> list[str]:
    """0 < ratio <= T + the Boas truncation allowance (Bernstein's inequality)."""
    if not 0.0 < ratio <= T + allowance:
        return [f"bernstein ratio {ratio!r} outside (0, T + {allowance:.3g}] with T={T!r}"]
    return []


def parse_csv(data: bytes):
    """Rows of a mellin-polar CSV as dicts of complex value/oracle and bound."""
    lines = [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]
    if not lines or not lines[0].startswith("experiment,inputs,value_re"):
        return None
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 8:
            return None
        _, inputs, vre, vim, ore, oim, _, bound = cells
        rows.append({
            "inputs": inputs,
            "value": complex(float(vre), float(vim)),
            "oracle": complex(float(ore), float(oim)) if ore else None,
            "bound": float(bound) if bound else None,
        })
    return rows
