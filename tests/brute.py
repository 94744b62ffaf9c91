"""Naive reference implementations used as independent oracles in tests.

Everything here is plain trial division / definitional counting, kept
deliberately separate from the library's sieves and wheel factorization.
"""

from math import gcd, isqrt


def divisors(n: int) -> list[int]:
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def sigma(n: int) -> int:
    return sum(divisors(n))


def phi_count(n: int) -> int:
    # definitional: number of 1 <= j <= n coprime to n
    return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def phi_formula(n: int) -> int:
    r = n
    for p, _ in factorize(n):
        r = r // p * (p - 1)
    return r


def largest_prime_factor(n: int) -> int:
    fac = factorize(n)
    return fac[-1][0] if fac else 1


def radical(n: int) -> int:
    r = 1
    for p, _ in factorize(n):
        r *= p
    return r


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def in_S(n: int, y) -> bool:
    # literal definition: some p**a | n with a >= 2 and p**a > y
    for p, e in factorize(n):
        for a in range(2, e + 1):
            if p**a > y and n % p**a == 0:
                return True
    return False


def s_threshold(n: int) -> int:
    """Largest prime power p**e || n with e >= 2 (0 if n is squarefree).

    n is in S for parameter y exactly when this threshold exceeds y.
    """
    best = 0
    for p, e in factorize(n):
        if e >= 2:
            best = max(best, p**e)
    return best


def psi(x: int, y: int) -> int:
    return sum(1 for n in range(1, x + 1) if largest_prime_factor(n) <= y)


def count_S(x: int, y: int) -> int:
    return sum(1 for n in range(1, x + 1) if in_S(n, y))


def phi_smooth_count(x: int, y: int) -> int:
    return sum(1 for n in range(1, x + 1) if largest_prime_factor(phi_formula(n)) <= y)


def sigma_smooth_count(x: int, y: int) -> int:
    return sum(1 for n in range(1, x + 1) if largest_prime_factor(sigma(n)) <= y)


def solutions(kind: str, a1: int, b1: int, a2: int, b2: int, xmax: int) -> list[int]:
    f = sigma if kind == "sigma" else phi_formula
    out = []
    for n in range(1, xmax + 1):
        u, v = a1 * n + b1, a2 * n + b2
        if u >= 1 and v >= 1 and f(u) == f(v):
            out.append(n)
    return out
