"""Fraction hygiene across the whole registry: every protocol, run
natively on the array backend, performs zero Fraction *arithmetic*,
with numpy and without it (the ``numpy_axis`` fixture).

This generalises the Distances acceptance gate
(``test_int_mode_runs_zero_fraction_arithmetic``) to a sweep over
``list_protocols()``: the eight arithmetic dunders are patched with
counters after the session is built, the protocol runs end to end, and
the count must be exactly zero.  Constructor calls (interning, lazy
materialisation on read) are allowed -- the invariant is that the hot
path folds integer numerators over a shared denominator and only mints
Fractions at documented boundaries.

Skip-list: location-discovery on the perceptive model with even n
routes through the ring-distance doubling protocol, whose match phase
is a documented Fraction boundary (see the ``fraction-hot-path``
pragmas in ``protocols/policies/ring_distance.py``); that combination
is covered separately with a boundedness assertion instead of a zero.
"""

from fractions import Fraction

import pytest

from repro.api import RingSession
from repro.api.registry import list_protocols

DUNDERS = (
    "__mul__", "__rmul__", "__add__", "__radd__",
    "__sub__", "__rsub__", "__truediv__", "__rtruediv__",
)

MODELS = ("perceptive", "lazy", "basic")

#: (protocol, model, even_n) combinations that are documented Fraction
#: boundaries rather than hygiene bugs.
DOCUMENTED_BOUNDARIES = {
    # Perceptive location discovery on even rings runs ring-distance
    # doubling; its y-phase harvest and match-phase prefix sums are
    # the pragma'd boundary in protocols/policies/ring_distance.py.
    ("location-discovery", "perceptive", True),
}

#: Infeasible by the paper's impossibility result (Table I).
INFEASIBLE = {("location-discovery", "basic", True)}


def _cases():
    for spec in list_protocols():
        for model in MODELS:
            for common_sense in (False, True):
                for n in (8, 9):
                    key = (spec.name, model, n % 2 == 0)
                    if key in INFEASIBLE:
                        continue
                    marks = []
                    if key in DOCUMENTED_BOUNDARIES:
                        marks.append(pytest.mark.skip(
                            reason="documented Fraction boundary "
                            "(ring-distance match phase); covered by "
                            "test_perceptive_even_boundary_is_bounded"
                        ))
                    yield pytest.param(
                        spec.name, model, common_sense, n,
                        id=f"{spec.name}-{model}-"
                        f"{'cs' if common_sense else 'nocs'}-n{n}",
                        marks=marks,
                    )


def _count_arithmetic(session, protocol, monkeypatch):
    """Run ``protocol`` with the arithmetic dunders counted.

    Patched *after* the session (state, scheduler, backend) is built:
    configuration generation legitimately uses Fractions.
    """
    calls = {"n": 0}

    def counting(name):
        real = getattr(Fraction, name)

        def wrapper(self, other):
            calls["n"] += 1
            return real(self, other)

        return wrapper

    for name in DUNDERS:
        monkeypatch.setattr(Fraction, name, counting(name))
    result = session.run(protocol)
    return calls["n"], result


@pytest.mark.parametrize("protocol,model,common_sense,n", list(_cases()))
def test_native_array_run_is_fraction_free(
    protocol, model, common_sense, n, monkeypatch, numpy_axis
):
    session = RingSession(
        n, model=model, backend="array", seed=3,
        common_sense=common_sense, driver="native",
    )
    count, result = _count_arithmetic(session, protocol, monkeypatch)
    assert result is not None
    assert count == 0, (
        f"{count} Fraction arithmetic calls leaked into the native "
        f"array-backend run of {protocol} ({model}, n={n})"
    )


def test_perceptive_even_boundary_is_bounded(monkeypatch, numpy_axis):
    """The one skipped combination: the ring-distance match phase does
    Fraction prefix sums, but only O(n log n) of them -- it must not
    degenerate into per-round Fraction kinematics."""
    n = 8
    session = RingSession(
        n, model="perceptive", backend="array", seed=3, driver="native",
    )
    count, _ = _count_arithmetic(
        session, "location-discovery", monkeypatch
    )
    assert 0 < count <= 4 * n * n, (
        f"match-phase boundary used {count} Fraction operations; "
        "expected a small bounded harvest, not per-round arithmetic"
    )
