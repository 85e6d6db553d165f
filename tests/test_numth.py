import pytest

from lazforge.errors import PreconditionError
from lazforge.numth import (
    is_prime,
    is_primitive_root,
    legendre_symbol,
    lfsr_sequence,
    prime_factors,
    smallest_prime_factor,
    smallest_primitive_polynomial,
)


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


def test_prime_factors():
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(127) == [127]


def test_primitive_roots_mod_7():
    assert {a for a in range(1, 7) if is_primitive_root(a, 7)} == {3, 5}


def test_legendre_symbol_matches_squares():
    for p in (7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            want = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre_symbol(a, p) == want


def test_smallest_primitive_polynomials():
    # x^2+x+1, x^3+x+1, x^4+x+1, x^5+x^2+1, x^6+x+1, x^7+x+1
    assert [smallest_primitive_polynomial(m) for m in range(2, 8)] == [3, 3, 3, 5, 3, 3]


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
