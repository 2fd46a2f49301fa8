import cmath

import pytest
from hypothesis import given, strategies as st

from parabraid.phases import CyclotomicPhase, phase_from_complex


def test_reduction_modulo_ring():
    assert CyclotomicPhase(8 * 3 + 5, 3).num == 5
    assert CyclotomicPhase(-1, 2).num == 15


def test_omega_values():
    for d in range(2, 8):
        omega = CyclotomicPhase.omega(d)
        assert abs(omega.as_complex() - cmath.exp(2j * cmath.pi / d)) < 1e-15


def test_dimension_below_two_rejected():
    with pytest.raises(ValueError):
        CyclotomicPhase(0, 1)


@given(st.integers(0, 1000), st.integers(2, 12))
def test_quantization_roundtrip(num, d):
    p = CyclotomicPhase(num, d)
    back = phase_from_complex(p.as_complex(), d)
    assert back is not None and back.num == p.num


def test_quantization_rejects_off_ring():
    assert phase_from_complex(0.5 + 0j, 3) is None
    assert phase_from_complex(cmath.exp(0.1j), 2, tol=1e-9) is None
