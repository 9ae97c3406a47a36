"""Every check must be proven able to fail.

For each registered check and each of its mutators — a deliberate
perturbation of exactly one side of the guarded pair (or one invariant
site) — the check must trip. A check that stays green under its own
mutations is decorative, not protective.
"""

import pytest

import repro.validate as validate
from repro.obs.metrics import metrics_enabled

SMOKE_CASES = [
    (check.name, mutator)
    for check in validate.all_checks()
    for mutator in check.mutators
]


@pytest.mark.parametrize("name,mutator", SMOKE_CASES)
def test_mutation_trips_check(name, mutator):
    check = validate.get_check(name)
    with check.mutators[mutator]():
        (result,) = validate.run_checks([name], quick=True)
    assert not result.ok, (
        f"{name} stayed green under mutation {mutator!r} — the check "
        "cannot detect the divergence it guards against"
    )


@pytest.mark.parametrize(
    "name", [check.name for check in validate.all_checks()]
)
def test_mutation_smoke_api(name):
    outcomes = validate.mutation_smoke(name, quick=True)
    assert outcomes, f"{name} has no mutators"
    missed = [mutator for mutator, tripped in outcomes.items() if not tripped]
    assert missed == [], f"{name}: mutators not detected: {missed}"


def test_mutation_smoke_trips_under_active_registry():
    # `repro validate --smoke` runs inside metrics_enabled(); the
    # metric-free legs must still take the metric-free paths there.
    with metrics_enabled():
        outcomes = validate.mutation_smoke("sim.batched_vs_serial", quick=True)
    missed = [mutator for mutator, tripped in outcomes.items() if not tripped]
    assert outcomes and missed == [], f"mutators not detected: {missed}"
