"""Scope of the verification runner's sector memo."""

from collections import Counter

from elliptic_qes import verify

SPECTRAL_CHECKS = ["closed-forms", "figure-degeneracy", "eigensolver"]


def test_sectors_built_once_per_run_and_not_across_runs(monkeypatch):
    builds: list[Counter] = []
    original = verify.build_matrix

    def counting_build(op):
        builds[-1][op.params, op.mask] += 1
        return original(op)

    monkeypatch.setattr(verify, "build_matrix", counting_build)
    for _ in range(2):
        builds.append(Counter())
        results = verify.run_checks(only=SPECTRAL_CHECKS)
        assert all(r.passed for r in results), results
    first, second = builds
    assert first and max(first.values()) == 1
    assert sum(second.values()) == sum(first.values())
