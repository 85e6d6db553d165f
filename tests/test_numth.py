import pytest

from lazforge.errors import PreconditionError
from lazforge.numth import (
    _has_full_period,
    is_prime,
    legendre_symbol,
    lfsr_sequence,
    smallest_prime_factor,
    smallest_primitive_polynomial,
)

from helpers import euler_phi


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 127}
    for n in range(130):
        assert is_prime(n) == (n in primes or (n > 13 and all(n % d for d in range(2, n))))


def test_smallest_prime_factor():
    assert smallest_prime_factor(35) == 5
    assert smallest_prime_factor(9) == 3
    assert smallest_prime_factor(221) == 13
    assert smallest_prime_factor(97) == 97
    with pytest.raises(PreconditionError):
        smallest_prime_factor(1)


def test_legendre_symbol_matches_squares():
    for p in (7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            want = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, p) == want


def test_smallest_primitive_polynomials():
    # x^2+x+1, x^3+x+1, x^4+x+1, x^5+x^2+1, x^6+x+1, x^7+x+1, then degrees 8..13
    assert [smallest_primitive_polynomial(m) for m in range(2, 14)] == [
        3, 3, 3, 5, 3, 3, 29, 17, 9, 5, 83, 27,
    ]


@pytest.mark.parametrize("m", range(2, 11))
def test_full_period_masks_are_the_primitive_polynomials(m):
    # there are phi(2^m - 1) / m primitive polynomials of degree m over GF(2)
    n = 2**m - 1
    accepted = [mask for mask in range(1, 1 << m, 2) if _has_full_period(m, mask)]
    assert len(accepted) == euler_phi(n) // m


def test_lfsr_reference_unroll():
    assert lfsr_sequence(3, 3) == (1, 1, 1, 0, 1, 0, 0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_lfsr_is_maximal_and_balanced(m):
    bits = lfsr_sequence(m, smallest_primitive_polynomial(m))
    n = 2**m - 1
    assert len(bits) == n
    assert sum(bits) == 2 ** (m - 1)  # one more 1 than 0 per period
    # all m-windows (cyclically) are the distinct nonzero states
    windows = {tuple(bits[(t + i) % n] for i in range(m)) for t in range(n)}
    assert len(windows) == n and (0,) * m not in windows
