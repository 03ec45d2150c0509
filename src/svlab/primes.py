"""Primality of a characteristic, by trial division.

A leaf module, so the curve families can check a characteristic
without loading the lattice.
"""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True
