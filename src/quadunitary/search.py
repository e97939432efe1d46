"""Search for n-powerfully unitarily t-perfect elements: i_star(z, n) = t.

Two complete strategies over the same hit set:

* Elements mode walks every sector element with 2 <= norm <= max_norm, one
  norm interval at a time, along the norm form of the ring's discriminant
  (Ring.disc): for each b, the a whose norm falls in the interval form at
  most two integer ranges.  Unbiased and simple; the reference strategy.
  No element is factored: i_star reads only (p, kind, exponent) per prime
  power, and factoring.index_rows gets those from the norm and the content
  gcd(a, b).  Points come sorted by norm, so _index_points computes the
  index once per (norm, content) pair, and an element is built only to
  verify a hit.
* Signatures mode runs a depth-first search over factorization shapes
  (which rational primes occur, how their exponents sit on the primes above)
  with branch-and-bound pruning.  Partial index values grow strictly, so a
  partial product above t is dead; an envelope bound on the best possible
  remaining product detects branches that cannot reach t; and for rational
  t, shapes whose value is irrational by the parity criterion are skipped.
  A node with norm budget B walks only the primes with p^2 <= B: a larger
  prime can only be the last one, with exponent 1, so it is solved for from
  the value it must add (Subbarao-Warren 1966, Wall 1975).  The prime table
  and the envelope therefore stop at isqrt(max_norm).  The bound is
  certified: its float products are rounded up and the target guard down,
  and exact integer pairs (numerator, denominator) in lowest terms decide
  every hit.  A hit shape is the walk's tuple of (p, kind, alphas) triples,
  held as it is, with the power n, by a Signature.

A work unit is its checkpoint key, a range [lo, hi] of norms, and its rows
are the search's row lines for the elements of norm in that range.  In
elements mode a unit is a window of _WINDOW norms, which a process pool can
share; a signature search is the one unit [2, max_norm], walked in one
process from the first table prime to the root's solve, whose rows are
the (element, value) pairs of witness_hits, written by _row_line as
elements mode writes its rows.  Its task reads everything else from the
SearchConfig.  Each unit's results are held in memory and the units are
merged in key order, so records come out in (norm, coordinates) order and
are byte-identical for any job count.  Each unit is appended to a JSON-lines
checkpoint as soon as it finishes, so a run that is stopped resumes into an
identical run; its line is written a piece of rows at a time and never held
whole.  A row is its JSON line, made once in the worker that finds it; the
lines go through the pool, the checkpoint and search_rows to the command
line.  This is the one module that knows the row format.  read_checkpoint
reads a checkpoint, for a resume and for theorems.load_hits alike: it
decodes the header into the SearchConfig that wrote the file and reads the
units one line at a time, in either mode by one reader.  A unit must be the
writer's text byte for byte; its rows are read in one pass over that text,
held to the search's format, target and unit, and kept as read (not
re-encoded, not recomputed).  read_rows decodes the lines of search_rows,
for run_search and the command line's csv and text.

A signature's value comes from udf._index_numerators, the kernel elements
mode uses, and an irrational shape is refused.  Every hit is verified once
through the literal divisor-sum oracle, where it enters the program: an
elements-mode hit in the worker that finds it, a signature's witnesses in
witness_hits at the signature's own n, which the theorem checks share, and
a hit row of either mode as read_checkpoint reads it back.  No hit is
sought, and a checkpoint's hit row is refused, where _cannot_reach shows
the target out of reach.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import nullcontext
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from math import gcd, inf, isqrt, nextafter, prod

from .factoring import CEILING_TEXT, NORM_CEILING, index_rows
from .primes import is_prime, prime_above, prime_kind, small_primes
from .radicals import RadicalValue
from .rings import DomainError, QInt, Ring, canonical_product, format_coords, format_element, in_sector, ring
from .udf import _index_numerators, delta_star_oracle, i_star

CHECKPOINT_SCHEMA = 1
_WINDOW = 1 << 16  # norms per elements-mode unit and per window of the sector walk

# compact JSON text, as the checkpoint and the command line write it
_dumps = json.JSONEncoder(separators=(",", ":")).encode


class CheckpointError(RuntimeError):
    """Checkpoint file is corrupt or belongs to a different search."""


class SearchConfig:
    """Parameters of one search run.

    t is the exact rational target (> 1); n the positive power; max_norm the
    inclusive norm ceiling, at most factoring.NORM_CEILING (no larger norm
    can be factored).  jobs > 1 enables a process pool for an elements-mode
    search; a signature search is one unit and runs in one process.
    Identical output is produced for any job count.  verbose additionally
    emits non-hits (elements mode only).
    """

    __slots__ = ("ring", "n", "t", "max_norm", "mode", "jobs", "checkpoint_path", "verbose")

    def __init__(
        self,
        ring: Ring,
        n: int,
        t: Fraction,
        max_norm: int,
        mode: str = "elements",
        jobs: int = 1,
        checkpoint_path: str | None = None,
        verbose: bool = False,
    ) -> None:
        t = Fraction(t)
        if mode not in ("elements", "signatures"):
            raise DomainError(f"unknown search mode {mode!r}")
        if n < 1:
            raise DomainError("power n must be a positive integer")
        if t <= 1:
            raise DomainError("target t must exceed 1")
        if max_norm < 2:
            raise DomainError("max_norm must be at least 2")
        if max_norm > NORM_CEILING:
            raise DomainError(f"max_norm must be at most {CEILING_TEXT}")
        if jobs < 1:
            raise DomainError("jobs must be at least 1")
        if verbose and mode == "signatures":
            raise DomainError("verbose output lists non-hits, which only elements mode visits")
        self.ring = ring
        self.n = n
        self.t = t
        self.max_norm = max_norm
        self.mode = mode
        self.jobs = jobs
        self.checkpoint_path = checkpoint_path
        self.verbose = verbose


class SearchRecord:
    __slots__ = ("z", "norm", "value", "is_hit")

    def __init__(self, z: QInt, norm: int, value: RadicalValue, is_hit: bool) -> None:
        self.z = z
        self.norm = norm
        self.value = value
        self.is_hit = is_hit


class Signature:
    """A hit shape at power n: entries are the (p, kind, alphas) triples of _dfs_signatures.

    alphas is (alpha,) for inert and ramified primes and (a1, a2) with
    a1 >= a2 >= 0, a1 >= 1 for split primes; (a1, a2) is unordered shape
    data, so an asymmetric pair materializes to two witness elements.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: tuple[tuple[int, str, tuple[int, ...]], ...]) -> None:
        self.n = n
        self.entries = entries

    def rows(self) -> list[tuple[int, str, int]]:
        """(p, kind, exponent) per prime power, as index_rows and Factorization.rows give them."""
        return [(p, kind, alpha) for p, kind, alphas in self.entries for alpha in alphas if alpha]

    def norm(self) -> int:
        return prod(p ** (2 * alpha if kind == "inert" else alpha) for p, kind, alpha in self.rows())

    def value(self) -> Fraction:
        """The index i_star of every witness, from the kernel that elements mode uses."""
        terms, den = _index_numerators(self.rows(), -self.n)
        if len(terms) > 1:
            raise DomainError(f"the shape {self.rows()} has an irrational index at n = {self.n}")
        return Fraction(terms[1], den)

    def witnesses(self, r: Ring) -> list[QInt]:
        """All canonical elements with this shape, sorted by coordinates."""
        options: list[list[QInt]] = []
        for p, kind, alphas in self.entries:
            pc = prime_above(p, r)
            if kind != "split":
                options.append([pc.pi ** alphas[0]])  # an inert pi is p itself
            else:
                a1, a2 = alphas
                assert pc.pi_bar is not None
                opts = [pc.pi**a1 * pc.pi_bar**a2]
                if a1 != a2:
                    opts.append(pc.pi**a2 * pc.pi_bar**a1)
                options.append(opts)
        outs = {canonical_product(r, combo) for combo in product(*options)}
        return sorted(outs, key=lambda z: (z.norm(), z.a, z.b))

    def to_json_dict(self) -> dict:
        return {
            "entries": [[p, kind, list(alphas)] for p, kind, alphas in self.entries],
            "norm": self.norm(),
            "value": str(self.value()),
        }


# ---------------------------------------------------------------------------
# element enumeration

def _windows(lo: int, hi: int, width: int):
    """Yield the windows (start, end) of width integers from lo that cover [lo, hi]."""
    for start in range(lo, hi + 1, width):
        yield start, min(start + width - 1, hi)


def _interval_ranges(r: Ring, lo: int, hi: int):
    """Yield (a_range, b, sb, k): the sector elements a + b*w with lo <= norm <= hi, norm a*(a + sb) + k.

    Walks the norm form of Ring.disc: for each b >= 0, u = 2a + s*b runs
    over the two ranges on either side of the excluded middle
    u^2 < 4*lo - |D| * b^2, cut to the sector (a >= 1 and b >= 0 for
    d = -1, -3; b > 0, or b = 0 and a >= 1, otherwise), and each u range is
    yielded as the a range it holds.
    """
    absdisc = -r.disc
    s = int(r.half_integral)
    narrow = r.d in (-1, -3)  # sectors narrower than the upper half plane
    b = 0
    while absdisc * b * b <= 4 * hi:
        c, sb = absdisc * b * b, s * b
        k = (c + sb * b) >> 2  # norm = a * (a + s*b) + k
        u_hi = isqrt(4 * hi - c)
        excl = isqrt(4 * lo - c - 1) if 4 * lo > c else -1
        u_min = 2 + sb if narrow or b == 0 else -u_hi
        for first, last in ((u_min, -max(excl, 0) - 1), (max(u_min, excl + 1), u_hi)):
            yield range((first - sb + 1) >> 1, ((last - sb) >> 1) + 1), b, sb, k
        b += 1


def _interval_points(r: Ring, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """All sector elements with lo <= norm <= hi as sorted (norm, a, b)."""
    out: list[tuple[int, int, int]] = []
    for a_range, b, sb, k in _interval_ranges(r, lo, hi):
        out += [(a * (a + sb) + k, a, b) for a in a_range]
    out.sort()
    return out


def _interval_count(r: Ring, lo: int, hi: int) -> int:
    """How many sector elements have lo <= norm <= hi, with no point built."""
    return sum(len(a_range) for a_range, *_ in _interval_ranges(r, lo, hi))


def _sector_points(r: Ring, lo: int, hi: int):
    """Yield (norm, a, b) for every sector element with lo <= norm <= hi, sorted.

    Built one window of _WINDOW norms at a time, so memory stays bounded.
    """
    for start, end in _windows(max(lo, 1), hi, _WINDOW):
        yield from _interval_points(r, start, end)


def iter_sector_elements(r: Ring, lo: int, hi: int):
    """Yield (norm, z) for every sector element with lo <= norm(z) <= hi, sorted."""
    for norm, a, b in _sector_points(r, lo, hi):
        yield norm, QInt(r, a, b)


def _index_points(r: Ring, lo: int, hi: int, n: int, derive):
    """Yield (norm, a, b, derive(terms, den)) for every sector element with lo <= norm <= hi.

    i_star(a + b*w, n) = sum(terms[m] * sqrt(m)) / den depends only on the
    norm and the content gcd(a, b) (factoring.index_rows), and the points
    come sorted by norm.  So the kernel and derive run once per (norm,
    content) pair, from a memo that is cleared when the norm changes.
    """
    d = r.d
    memo: dict[int, object] = {}
    last = 0
    for norm, a, b in _sector_points(r, lo, hi):
        if norm != last:
            memo.clear()
            last = norm
        c = gcd(a, b)
        if c in memo:
            value = memo[c]
        else:
            value = memo[c] = derive(*_index_numerators(index_rows(d, norm, c), -n))
        yield norm, a, b, value


# ---------------------------------------------------------------------------
# the signature DFS's certified bound and its cached envelope

def _cannot_reach(max_norm: int, n: int, t: Fraction) -> bool:
    """Whether no element of norm <= max_norm has i_star = t at the power n, by bit lengths alone.

    An element of norm N has k <= log2(N) prime powers, each of norm at
    least 2, so each adds a factor 1 + N_i^(-n/2) <= 1 + 2^(-n/2).  When
    2^floor(n/2) > 2*k*b, b the denominator of t, the index is below
    1 + 2k * 2^(-n/2) < 1 + 1/b <= t.  No power of n is taken.
    """
    return n // 2 >= (2 * max_norm.bit_length() * t.denominator).bit_length()


def _up(x: float) -> float:
    """The next float above x: an upper bound on a correctly rounded result."""
    return nextafter(x, inf)


def _prune_guard(targets: tuple[Fraction, ...]) -> float:
    """A float at or below every target: a branch whose bound is below it cannot hit."""
    return nextafter(float(min(targets)), -inf)


@lru_cache(maxsize=32)
def _envelope_cached(n: int, limit: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Least cost and largest factor of a shape at each prime up to limit, then above it.

    Slot i of the table primes holds the least norm cost of an admissible
    shape at p (p for even n; p^2 for odd n, where the parity criterion forces
    even exponents on split and ramified primes) and an upper envelope of any
    factor at p, (1 + p^-k)^2 with k = n/2 for even n and k = n for odd n.
    The envelope is the correctly rounded quotient moved up to the next float.
    The last slot holds both for limit + 1, which bounds from below every
    prime above the table; the envelope decreases with p.
    """
    k, c = (n // 2, 1) if n % 2 == 0 else (n, 2)
    costs, env = [], []
    for p in (*small_primes(limit), limit + 1):
        q = p**k
        costs.append(p**c)
        env.append(_up((q + 1) ** 2 / (q * q)))
    return tuple(costs), tuple(env)


# ---------------------------------------------------------------------------
# signature DFS

def _extension_bound(costs: tuple[int, ...], env: tuple[float, ...], j: int, budget: int) -> float:
    """Certified upper bound on the best remaining factor product from slot j.

    A feasible extension uses distinct primes from slot j on whose norm costs
    multiply into the budget.  At most one of them lies above the table
    (primes up to limit = isqrt(max_norm)): two would cost more than
    (limit + 1)^2 > max_norm.  So its i-th smallest prime is at least the
    prime of slot j + i, an extension of m primes costs at least the next m
    slot costs, and m is at most the length of the cheap prefix of slots.
    The envelope is decreasing, so the product of the envelopes over that
    prefix dominates every feasible extension.  Each float product is moved
    up to the next float, so the result is never below the exact bound.
    Nonincreasing in j.
    """
    total = 1.0
    cheap = 1
    n = len(costs)
    while j < n:
        cheap *= costs[j]
        if cheap > budget:
            break
        total = _up(total * env[j])
        j += 1
    return total


def _exact_root(q: int, k: int) -> int | None:
    """The integer p with p**k == q, or None; Newton's method on integers."""
    if k == 1 or q < 2:
        return q
    x = 1 << -(-q.bit_length() // k)  # above the root
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == q else None
        x = y


def _configs(p: int, kind: str, n: int, budget: int):
    """Admissible exponent shapes for prime p within the norm budget.

    Yields (alphas, norm_cost, num, den) in (a1, a2) order: (a1,) for inert
    and ramified p, (a1, a2) with a1 >= a2 >= 0 for split p.  A prime power
    pi**alpha has norm p**(w * alpha), w = 2 for inert p and 1 otherwise, and
    adds the factor (q + 1) / q with q = |pi**alpha|**n = p**(w * alpha * n / 2).
    For rational targets that q must be an integer (the parity criterion), so
    odd n restricts the alphas on non-inert primes to even values.  The
    factor num / den is in lowest terms: each q is a power of p, and q + 1 is
    prime to p.
    """
    w = 2 if kind == "inert" else 1
    step = 2 if n % 2 and w == 1 else 1
    a1 = step
    while p ** (w * a1) <= budget:
        q1 = p ** (w * a1 * n // 2)
        for a2 in range(0, a1 + 1, step) if kind == "split" else (0,):
            cost = p ** (w * (a1 + a2))
            if cost > budget:
                break
            q2 = p ** (w * a2 * n // 2)  # 1 for a2 = 0, which adds no factor
            num = (q1 + 1) * (q2 + 1 if a2 else 1)
            yield ((a1, a2) if kind == "split" else (a1,)), cost, num, q1 * q2
        a1 += step


def _dfs_signatures(
    kind_of,
    n: int,
    targets: tuple[Fraction, ...],
    max_norm: int,
) -> list[tuple[tuple, ...]]:
    """Hit signatures for any of the targets, in DFS order.

    kind_of(p) is the kind of the prime p: partial(prime_kind, d) in a ring.
    theorems.check_thm_2_6 calls every p ramified at n = 2, so a shape p^e
    costs p^e with the factor (p^e + 1) / p^e, and the walk runs over the
    integers m <= max_norm valued sigma_star(m) / m, under the same envelope.

    The table holds the primes up to isqrt(max_norm).  At a node with budget
    B the loop walks the primes with p^2 <= B.  A larger prime costs at least
    p, so it can only be the node's last prime, with exponent 1: inert
    primes cost p^2 > B, and for odd n the parity criterion forces even
    exponents.  For even n, value * (q + 1) / q = t fixes q = p^(n/2), so
    `solve` computes each such prime, after the loop, in increasing p, which
    is where the walk over every prime would have found it.  The root's solve
    finds the one-prime signatures above the table.

    A node's value is the integer pair (a, b) in lowest terms, value = a / b:
    a child's pair is reduced by one gcd, compared with the largest target
    by cross-multiplication and looked up among the targets' pairs.  Its
    float a / b is the correctly rounded value, as float(Fraction(a, b)) is.
    """
    if all(_cannot_reach(max_norm, n, t) for t in targets):
        return []
    limit = isqrt(max_norm)
    primes = small_primes(limit)
    size = len(primes)
    costs, env = _envelope_cached(n, limit)
    pairs = [(t.numerator, t.denominator) for t in targets]
    target_set = set(pairs)
    max_t = max(targets)
    t_num, t_den = max_t.numerator, max_t.denominator
    guard = _prune_guard(targets)
    half = 0 if n % 2 else n // 2
    out: list[tuple[tuple, ...]] = []

    def solve(a: int, b: int, budget: int, last: int, entries: tuple) -> None:
        # the primes last < p, sqrt(budget) < p <= budget with (a / b) * (q + 1) / q = t
        leaves = []
        for tn, td in pairs:
            gap = tn * b - a * td  # (t - a / b) * b * td
            if gap <= 0:
                continue
            q, rem = divmod(a * td, gap)  # q = value / (t - value)
            p = None if rem else _exact_root(q, half)
            if p is not None and last < p <= budget < p * p and is_prime(p):
                kind = kind_of(p)
                if kind != "inert":
                    leaves.append((p, kind, (1, 0) if kind == "split" else (1,)))
        out.extend(entries + (leaf,) for leaf in sorted(leaves))

    def walk(j: int, budget: int, a: int, b: int, entries: tuple, last: int) -> None:
        # the table primes from slot j with p^2 <= budget, then the solve for
        # one prime above last and sqrt(budget)
        fv = _up(a / b)
        while j < size:
            p = primes[j]
            if p * p > budget:
                break
            if _up(fv * _extension_bound(costs, env, j, budget)) < guard:
                return  # the bound covers the primes the solve would find
            kind = kind_of(p)
            for alphas, cost, num, den in _configs(p, kind, n, budget):
                ca, cb = a * num, b * den
                g = gcd(ca, cb)
                ca //= g
                cb //= g
                if ca * t_den > t_num * cb:
                    continue
                ents = entries + ((p, kind, alphas),)
                if (ca, cb) in target_set:
                    out.append(ents)
                child_budget = budget // cost
                if child_budget > p:
                    bound = _extension_bound(costs, env, j + 1, child_budget)
                    if _up(_up(ca / cb) * bound) >= guard:
                        walk(j + 1, child_budget, ca, cb, ents, p)
            j += 1
        if half:
            solve(a, b, budget, last, entries)

    walk(0, max_norm, 1, 1, (), 0)
    return out


# ---------------------------------------------------------------------------
# task plumbing (top level so worker processes can import them)

def _verify_hit(z: QInt, n: int, value: Fraction) -> None:
    # every reported hit goes back through the literal divisor-sum oracle
    oracle = delta_star_oracle(z, n)
    expected = RadicalValue.from_rational(value) * RadicalValue.sqrt_power(z.norm(), n)
    if oracle != expected:
        raise AssertionError(f"hit {format_element(z)} failed oracle re-verification: {oracle} != {expected}")


def _terms_json(pairs) -> str:
    """The istar JSON object of (radicand, coefficient) pairs, whose text needs no escaping."""
    return "{" + ",".join(f'"{m}":"{c}"' for m, c in pairs) + "}"


def _row_line(z: str, norm: int, istar: str, hit: bool) -> str:
    """A search record as its JSON line, in either mode; z is the element's text, istar its terms' JSON."""
    return f'{{"z":"{z}","norm":{norm},"istar":{istar},"hit":{"true" if hit else "false"}}}'


def _elements_task(cfg: SearchConfig, key) -> list[str]:
    """The row lines of the window key = [lo, hi]: its hits, or with cfg.verbose every point."""
    r, n, t, verbose = cfg.ring, cfg.n, cfg.t, cfg.verbose
    if not verbose and _cannot_reach(cfg.max_norm, n, t):
        return []
    t_num, t_den = t.numerator, t.denominator

    def derive(terms: dict[int, int], den: int) -> tuple[bool, str | None]:
        # i_star = sum(terms[m] * sqrt(m)) / den equals the rational t iff it has
        # only the m = 1 term (the parity criterion) and terms[1] / den = t
        hit = len(terms) == 1 and terms[1] * t_den == t_num * den
        if not (hit or verbose):
            return hit, None
        return hit, _terms_json(RadicalValue.from_numerators(terms, den).to_json_terms().items())

    out = []
    for norm, a, b, (hit, istar) in _index_points(r, *key, n, derive):
        if hit:
            _verify_hit(QInt(r, a, b), n, t)
        if istar is not None:
            out.append(_row_line(format_coords(a, b), norm, istar, hit))
    return out


def _signatures_task(cfg: SearchConfig, key) -> list[str]:
    """The row lines of the search's one unit, key = [2, max_norm]: the witnesses of its hit signatures."""
    return [
        _row_line(format_element(z), z.norm(), _terms_json([(1, value)]), True)
        for z, value in witness_hits(cfg.ring, search_signatures(cfg))
    ]


# ---------------------------------------------------------------------------
# checkpointing

def _config_echo(cfg: SearchConfig) -> dict:
    return {
        "d": cfg.ring.d,
        "n": cfg.n,
        "t": str(cfg.t),
        "max_norm": cfg.max_norm,
        "mode": cfg.mode,
        "verbose": cfg.verbose,
        "interval_size": _WINDOW,  # the norms per elements-mode unit
    }


# every header _task_results writes starts with this text, and so must a torn one
_HEADER_START = '{"schema_version":%d,"kind":"quadunitary-checkpoint",' % CHECKPOINT_SCHEMA

# A unit is read as the text _unit_pieces makes, by patterns
# that re compiles on first use, so no command pays for them at import: the
# unit's start with its [lo, hi] key, then each row as _row_line writes it
# with the comma before the next row, then "]}".  An istar term is
# read as RadicalValue.to_json_terms writes it: "radicand":"a" or "a/b".
_UNIT_START = r'\{"task":\[([1-9][0-9]*),([1-9][0-9]*)\],"results":\['
_ROW = r'(\{"z":"([^"]*)","norm":([1-9][0-9]*),"istar":(\{[^}]*\}),"hit":(true|false)\})(?:,(?=\{)|\Z)'
_TERM = r'"([1-9][0-9]*)":"-?([1-9][0-9]*)(?:/([1-9][0-9]*))?"'
_term_match = None  # re.compile(_TERM).fullmatch, once bound


def _truncate(path: str, size: int) -> None:
    try:
        with open(path, "r+b") as fh:
            fh.truncate(size)
    except OSError as exc:
        raise CheckpointError(f"cannot drop the torn last line of {path}: {exc}") from exc


def read_checkpoint(path: str, drop_torn: bool = False) -> tuple[SearchConfig, list[tuple[list, list, list]]] | None:
    """The search config and the checked (task, lines, hits) units of a checkpoint file.

    Returns None for a missing or empty file.  Raises CheckpointError when
    the file cannot be read, when the header does not name a search
    checkpoint of this schema version whose config encodes back to itself,
    or when a unit is not one that search writes: a task seen twice, a task
    that is not one of its units, a unit that is not the writer's text byte
    for byte, or rows that _check_rows refuses.  A unit's hits are the
    elements of its hit rows, each verified by the oracle; both modes'
    units are read alike.  Whether that search is the caller's is the
    caller's call.

    The file is read one line at a time, and each unit's text is dropped
    once its rows are taken, so its bytes are never all held at once.  A
    last line without its newline is what a crash mid-write leaves: with
    drop_torn it is not parsed, and once the rest of the file is known to
    be a checkpoint it is cut from the file, so the next unit appended
    starts on a line of its own.
    """
    try:
        fh = open(path, encoding="utf-8", newline="\n")
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    loaded, torn = None, ""
    try:
        with fh:
            header = fh.readline()
            if drop_torn and not header.endswith("\n"):
                # a crash while the header was written; the fragment must be its start
                if header[: len(_HEADER_START)] != _HEADER_START[: len(header)]:
                    raise CheckpointError(f"{path} is not a search checkpoint")
                torn = header
            elif header:
                cfg = _read_header(path, header)
                loaded, seen = (cfg, []), set()
                for line, text in enumerate(iter(fh.readline, ""), start=2):
                    if drop_torn and not text.endswith("\n"):
                        torn = text
                        break
                    loaded[1].append(_read_unit(cfg, text, f"{path}:{line}", seen))
                    del text  # one unit's text at a time
            size = os.fstat(fh.fileno()).st_size
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path} is not a UTF-8 checkpoint: {exc}") from exc
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if torn:
        _truncate(path, size - len(torn.encode()))
    return loaded


def _read_header(path: str, line: str) -> SearchConfig:
    """The SearchConfig a header line names; CheckpointError unless it is a search's header of this schema."""
    try:
        header = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise CheckpointError(f"corrupt checkpoint header in {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "quadunitary-checkpoint":
        raise CheckpointError(f"{path} is not a search checkpoint")
    if header.get("schema_version") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint schema {header.get('schema_version')} unsupported "
            f"(expected {CHECKPOINT_SCHEMA})"
        )
    try:
        c = header["config"]
        cfg = SearchConfig(
            ring(int(c["d"])), int(c["n"]), c["t"], int(c["max_norm"]), mode=c["mode"],
            verbose=bool(c["verbose"]),
        )
        # compared as JSON text, so that 2.0 or true does not pass for 2 or 1
        if json.dumps(_config_echo(cfg), sort_keys=True) != json.dumps(c, sort_keys=True):
            raise ValueError(f"config {json.dumps(c)} is not a search's")
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path} lacks a usable checkpoint header: {exc}") from exc
    return cfg


def _read_unit(cfg: SearchConfig, text: str, where: str, seen: set) -> tuple[list, list, list]:
    """A unit line's (task, lines, hits); CheckpointError unless it is a task of cfg's search not in seen.

    A unit is keyed by its range [lo, hi] of norms.  In elements mode it is
    a window: lo - 2 a multiple of _WINDOW, 2 <= lo <= max_norm and
    hi = min(lo + _WINDOW - 1, max_norm).  A signature search has the one
    unit [2, max_norm].
    """
    end = len(text) - text.endswith("\n")
    start = re.compile(_UNIT_START).match(text)
    if start is None or not text.endswith("]}", 0, end):
        raise CheckpointError(f"corrupt checkpoint entry at {where}: the line is not a unit as the search writes it")
    try:
        lo, hi = int(start[1]), int(start[2])
    except ValueError as exc:  # past Python's digit limit
        raise CheckpointError(f"corrupt checkpoint entry at {where}: {exc}") from exc
    key = f"[{lo},{hi}]"
    if cfg.mode == "elements":
        is_task = (lo - 2) % _WINDOW == 0 and 2 <= lo <= cfg.max_norm and hi == min(lo + _WINDOW - 1, cfg.max_norm)
    else:
        is_task = lo == 2 and hi == cfg.max_norm
    if key in seen or not is_task:
        raise CheckpointError(f"corrupt checkpoint entry at {where}: {key} is repeated or not a task of this search")
    seen.add(key)
    return [lo, hi], *_check_rows(cfg, lo, hi, text, start.end(), end - 2, where)


def _istar_is_target(istar: str, target: str) -> bool:
    """Whether an istar text is target; ValueError unless it is a value as RadicalValue.to_json_terms writes it.

    That is decimal radicands in increasing order, each with a nonzero
    coefficient written as a fraction writes it: "a" or "a/b" with no
    leading zero and b > 1 in lowest terms.
    """
    global _term_match
    if _term_match is None:
        _term_match = re.compile(_TERM).fullmatch
    last = 0
    for term in istar[1:-1].split(","):
        m = _term_match(term)
        if m is None:
            raise ValueError(f"istar term {term} is not a radicand and a fraction")
        radicand, num, den = m.groups()
        if den is not None and (den == "1" or gcd(int(num), int(den)) != 1):
            raise ValueError(f"istar coefficient in {term} is not in lowest terms")
        if int(radicand) <= last:
            raise ValueError(f"istar radicand {radicand} does not follow {last}")
        last = int(radicand)
    return istar == target


def _check_rows(cfg: SearchConfig, lo: int, hi: int, text: str, pos: int, stop: int, where: str) -> tuple[list[str], list[QInt]]:
    """The lines and hits of unit [lo, hi], whose rows are text[pos:stop]; CheckpointError unless they are cfg's search's.

    The rows are read in one pass, each as the text _row_line makes, joined
    by commas.  A row's z is read by Ring.parse and must have the row's
    norm; the rows are sector elements in strictly increasing (norm, a, b)
    with lo <= norm <= hi: only hits, or with verbose every point of the
    window.  Each distinct istar text of the unit is held once to the form
    _istar_is_target reads, and a row is a hit exactly when its istar is the
    target's text; its element then goes through the oracle, unless
    _cannot_reach refuses every hit of the header's search.  A row that
    passes is kept as read: its line is its own text, not re-encoded and not
    recomputed, and the unit's hits are the elements parsed from its hit rows.
    """
    row = re.compile(_ROW).match
    parse = cfg.ring.parse
    target = _terms_json([(1, cfg.t)])
    out_of_reach = _cannot_reach(cfg.max_norm, cfg.n, cfg.t)
    istars: dict[str, bool] = {}  # each istar text checked, and whether it is the target
    lines, hits = [], []
    prev: tuple = (lo,)  # below every point of the window
    try:
        while pos < stop:
            m = row(text, pos, stop)
            if m is None:
                raise ValueError(f"the text from {text[pos:pos + 80]!r} on is not a record as the search writes it")
            line, z_text, norm_text, istar, flag = m.groups()
            pos = m.end()
            hit = istars.get(istar)
            if hit is None:
                hit = istars[istar] = _istar_is_target(istar, target)
            if hit != (flag == "true"):
                raise ValueError(f"hit {flag} disagrees with istar {istar} at target {cfg.t}")
            if not (hit or cfg.verbose):
                raise ValueError(f"{z_text} is not a hit, and the unit lists only hits")
            if hit and out_of_reach:
                raise ValueError(f"no element of norm at most {cfg.max_norm} has the index {cfg.t} at n = {cfg.n}")
            z = parse(z_text)
            norm = int(norm_text)
            if norm != z.norm():
                raise ValueError(f"norm {norm} is not the norm of {z_text}")
            point = (norm, z.a, z.b)
            if not (prev < point and norm <= hi and in_sector(z)):
                raise ValueError(f"{z_text} (norm {norm}) is not a sector element after the last row in [{lo}, {hi}]")
            prev = point
            lines.append(line)
            if hit:
                _verify_hit(z, cfg.n, cfg.t)
                hits.append(z)
        if cfg.verbose and len(lines) != _interval_count(cfg.ring, lo, hi):
            raise ValueError(f"{len(lines)} rows are not every sector element of norm in [{lo}, {hi}]")
    except (AssertionError, ValueError) as exc:  # an AssertionError from the oracle
        raise CheckpointError(f"corrupt checkpoint record at {where}: {exc}") from exc
    return lines, hits


_RECORD_ROWS = 1024  # rows per piece of a unit's line as _unit_pieces yields it


def _append(path: str, pieces) -> None:
    """Append the pieces of one line to the checkpoint at path, then flush, fsync and close it.

    The file is opened for this line alone, so no handle outlives a write
    and no pool worker inherits one.  An OSError is raised as CheckpointError.
    """
    try:
        with open(path, "a", encoding="utf-8") as fh:
            for piece in pieces:
                fh.write(piece)
            fh.flush()
            os.fsync(fh.fileno())
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def _unit_pieces(key: str, lines: list[str]):
    """The line of one unit, in pieces: key is the JSON text of its task key, lines its rows.

    The line is '{"task":' + key + ',"results":[', the rows joined by
    commas and "]}" with its newline.  It comes in pieces of _RECORD_ROWS
    rows, so no string holds the whole line: a verbose unit costs its rows
    and one piece.
    """
    yield '{"task":' + key + ',"results":['
    for i in range(0, len(lines), _RECORD_ROWS):
        yield ("," if i else "") + ",".join(lines[i : i + _RECORD_ROWS])
    yield "]}\n"


# ---------------------------------------------------------------------------
# orchestration

def _fork_pool(jobs: int):
    # forked workers start from the parent's memory, with no re-import;
    # imported here because multiprocessing is slow to import and rarely used
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None).Pool(jobs)


def _task_results(cfg: SearchConfig, keys: list, task) -> list[list[str]]:
    """Each unit's lines, in the order of keys, honoring checkpoint and jobs.

    A unit is its checkpoint key, and task(key) computes its lines from the
    key alone; the task is bound to cfg by the caller.  Results arrive in
    key order (imap keeps it for a pool) and each unit is appended to the
    checkpoint as it arrives, so a stopped run keeps the units it delivered.
    A pool is forked only for two or more pending keys, which only an
    elements-mode search has, with one worker per pending key up to
    cfg.jobs.
    """
    done: dict[str, list[str]] = {}
    loaded = read_checkpoint(cfg.checkpoint_path, drop_torn=True) if cfg.checkpoint_path else None
    if loaded is not None:
        saved, units = loaded
        if _config_echo(saved) != _config_echo(cfg):
            raise CheckpointError(
                f"{cfg.checkpoint_path} was written by a different search configuration"
            )
        done = {_dumps(key): lines for key, lines, _ in units}
    pending = [key for key in keys if _dumps(key) not in done]
    path = cfg.checkpoint_path
    if path is not None:
        # the header, or nothing if the file has one: a file that cannot be written fails before any unit runs
        _append(path, () if loaded else (_HEADER_START + '"config":' + _dumps(_config_echo(cfg)) + "}\n",))
    with _fork_pool(min(cfg.jobs, len(pending))) if cfg.jobs > 1 and len(pending) > 1 else nullcontext() as pool:
        results = map(task, pending) if pool is None else pool.imap(task, pending, chunksize=1)
        for key, lines in zip(pending, results):
            text = _dumps(key)
            if path is not None:
                _append(path, _unit_pieces(text, lines))
            done[text] = lines
    return [done[_dumps(key)] for key in keys]


def search_signatures(cfg: SearchConfig, targets: tuple[Fraction, ...] | None = None) -> list[Signature]:
    """Hit signatures for any of the targets (all > 1; cfg.t by default), in DFS order, walked in this process."""
    n = cfg.n
    return [Signature(n, e) for e in _dfs_signatures(partial(prime_kind, cfg.ring.d), n, targets or (cfg.t,), cfg.max_norm)]


def signature_hits_multi(
    r: Ring,
    n: int,
    targets: tuple[Fraction, ...],
    max_norm: int,
) -> list[Signature]:
    """All hit signatures for any target in `targets`, in deterministic DFS order.

    Equivalent to the union over single-target searches; sharing one tree walk
    keeps theorem sweeps over target ranges affordable.
    """
    targets = tuple(sorted(set(Fraction(t) for t in targets)))
    if not targets or min(targets) <= 1:
        raise DomainError("targets must all exceed 1")
    cfg = SearchConfig(r, n, targets[0], max_norm, mode="signatures")
    return search_signatures(cfg, targets)


def witness_hits(r: Ring, sigs) -> list[tuple[QInt, Fraction]]:
    """Every witness element of the signatures with its signature's value, sorted by (norm, a, b).

    Each witness is checked twice: its factor-based index i_star must be its
    signature's value, and so must the literal divisor-sum oracle's.
    """
    hits = []
    for sig in sigs:
        value = sig.value()
        for z in sig.witnesses(r):
            if i_star(z, sig.n) != value:
                raise AssertionError(f"witness {format_element(z)} disagrees with signature value")
            _verify_hit(z, sig.n, value)
            hits.append((z, value))
    hits.sort(key=lambda hit: (hit[0].norm(), hit[0].a, hit[0].b))
    return hits


def run_search(cfg: SearchConfig) -> list[SearchRecord]:
    """The search's records, ordered by (norm, a, b): search_rows' lines, read back by read_rows."""
    lines, _ = search_rows(cfg)
    return [SearchRecord(cfg.ring.parse(z), norm, value, hit) for z, norm, value, hit in read_rows(lines)]


def search_rows(cfg: SearchConfig) -> tuple[list[str], int]:
    """The search's rows as their JSON lines, ordered by (norm, a, b), and how many are hits.

    The lines are the ones the tasks made with _row_line (an elements-mode
    window's rows, or a signature search's hit row for each pair of
    witness_hits), or for a resumed unit the checkpoint's rows, checked and
    kept as read (not recomputed); each hit among them was verified where
    it entered the program.
    """
    if cfg.mode == "elements":
        keys, task = list(_windows(2, cfg.max_norm, _WINDOW)), _elements_task
    else:
        keys, task = [(2, cfg.max_norm)], _signatures_task
    lines = [line for unit in _task_results(cfg, keys, partial(task, cfg)) for line in unit]
    return lines, sum(line.endswith(',"hit":true}') for line in lines)


def read_rows(lines):
    """Yield (z text, norm, istar value, hit) for each row line of search_rows, read by _ROW.

    Each distinct istar text is decoded once per norm, from a memo that is
    cleared when the norm changes, as in _index_points.
    """
    row = re.compile(_ROW).match
    memo: dict[str, RadicalValue] = {}
    last = None
    for line in lines:
        _, z, norm, istar, hit = row(line).groups()
        if norm != last:
            memo.clear()
            last = norm
        if istar not in memo:
            memo[istar] = RadicalValue.from_json_terms(json.loads(istar))
        yield z, int(norm), memo[istar], hit == "true"
