"""The exact-identity suite in every dimension it accepts."""

import pytest

from nlheat import identities
from nlheat.identities import run_identity_suite


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_identity_suite_passes(dim, monkeypatch):
    dims = []
    original = identities.expected_Zt

    def recording_expected_Zt(profile, d, t, radius=None):
        dims.append(d)
        return original(profile, d, t, radius=radius)

    monkeypatch.setattr(identities, "expected_Zt", recording_expected_Zt)
    results = run_identity_suite(seed=7, dim=dim)
    failed = [(r.name, r.defect, r.tol) for r in results if not r.passed]
    assert not failed
    assert len(results) == 12
    # the bucketed lattice sum is checked in the dimension the suite names
    assert dims == [dim]
