"""The checks behind ``zodd verify`` can fail as well as pass."""

from zodd import verify
from zodd.history import compute_weights
from zodd.rng import split_rng


def test_weight_certificate_fails_uniform_weights(monkeypatch):
    # uniform weights sit on the simplex, but a_i b_i differs across entries
    def uniform_weights(history, x_next, m_scale):
        return compute_weights(history, x_next, m_scale, uniform=True)

    monkeypatch.setattr(verify, "compute_weights", uniform_weights)
    result = verify.check_weights_optimal(100, 2000, split_rng(2024, 101))
    assert not result.passed
    assert result.value > 1e-3
