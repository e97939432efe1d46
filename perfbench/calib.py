"""Calibration kernel: a fixed amount of pure-Python work, run in a fresh interpreter.

The benchmark host is shared, and its speed drifts by 20 to 40 percent over
periods of about a minute, longer than one benchmark run.  Every workload
process slows together with this kernel, so the benchmark reports workload
time divided by the kernel's time measured in the same run.  The kernel
imitates the program's cost profile (sieve, trial division, Miller-Rabin,
an LRU cache, Fraction products, dictionaries of strings) but never imports
it, so no change to the program moves it.  Do not edit it: ratios measured
with different kernels cannot be compared.
"""

from fractions import Fraction
from functools import lru_cache


def _sieve(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray((n - i * i) // i + 1)
    return [i for i in range(n + 1) if flags[i]]


PRIMES = _sieve(10_000)


def _is_prime(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=1 << 12)
def _factor(n: int) -> tuple:
    out: dict[int, int] = {}
    for p in PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    if n > 1:
        out[n] = out.get(n, 0) + (1 if _is_prime(n) else 2)
    return tuple(sorted(out.items()))


def main() -> int:
    values: dict[str, int] = {}
    for a in range(1, 130):
        for b in range(130):
            v = Fraction(1)
            for p, e in _factor(a * a + b * b):
                v *= Fraction(p**e + 1, p**e)
            values[str(v)] = values.get(str(v), 0) + 1
    return 0 if len(values) > 1 else 1


if __name__ == "__main__":
    raise SystemExit(main())
