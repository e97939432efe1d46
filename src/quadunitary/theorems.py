"""Executable verification suite for the structural results on perfect elements.

Each check examines a concrete finite population (search hits below a norm
bound, or a full element sweep) and returns a TheoremReport listing every
violation found.  An honest run has zero violations; the checkers themselves
are exercised against fabricated bad inputs in the test suite.  Checks can
consume persisted search checkpoints so that expensive discovery and cheap
verification stay separate, or discover their own hit population through the
signature search.  search.read_checkpoint holds a checkpoint's records to the
search that wrote it, target included, and returns its hits: the elements of
its hit rows, in either search mode, each run through the divisor-sum oracle
as it is read.  A hit row that fails the oracle makes the file corrupt (a
CheckpointError), not a theorem violation.

Check ids (CLI surface):

* thm2.2  even norm of every hit with n in {1,2} and integer t >= 2
* thm2.3  count of odd-part primes of Gaussian hits (n = 2, integer t)
* thm2.4  reduced numerators of I*_2 avoid the divisor 3 when d = -3
* thm2.5  mod-6 structure of 2-powerfully unitarily 2-perfect hits
* thm2.6  injection of integer unitary-t-perfect numbers into every ring
* zeta    the four zeta-ratio constants certified strictly below 2

thm2.6 finds its members with the signature search's certified DFS, walked
over the integers up to the bound (every prime ramified at n = 2, so a
shape's value is sigma_star(m) / m); sigma_star_int checks each member again,
and g_map and i_star still run for every member.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd

from .factoring import CEILING_TEXT, NORM_CEILING, FactorEntry, factor_element, factor_int
from .primes import prime_above
from .rings import DomainError, K, QInt, Ring, canonical_product, format_coords, format_element, ring
from .search import (
    CheckpointError,
    SearchConfig,
    Signature,
    _dfs_signatures,
    _index_points,
    read_checkpoint,
    signature_hits_multi,
    witness_hits,
)
from .udf import _ZETA_TERMS, i_star, sigma_star_int, zeta_bound_check

REPORT_SCHEMA = 1

_TARGETS = (2, 3, 4, 5, 6)  # the integer t of the discovered thm2.2 and thm2.3 populations


class TheoremReport:
    """Outcome of one check over one concrete population."""

    __slots__ = ("check_id", "statement", "ring_d", "population", "checked", "violations", "witnesses", "notes")

    def __init__(self, check_id: str, statement: str, ring_d: int | None, population: dict) -> None:
        self.check_id = check_id
        self.statement = statement
        self.ring_d = ring_d
        self.population = population
        self.checked = 0
        self.violations = []
        self.witnesses = []
        self.notes = []

    def case(self, record: dict, failure: dict | None = None) -> None:
        """Count one case: {**record, **failure} is a violation if failure is given, else record a witness while under six."""
        self.checked += 1
        if failure is not None:
            self.violations.append({**record, **failure})
        elif len(self.witnesses) < 6:
            self.witnesses.append(record)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def vacuous(self) -> bool:
        return self.checked == 0 and not self.violations

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA,
            "check": self.check_id,
            "statement": self.statement,
            "ring": self.ring_d,
            "population": self.population,
            "checked": self.checked,
            "vacuous": self.vacuous,
            "violations": self.violations,
            "witnesses": self.witnesses,
            "notes": self.notes,
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [f"check {self.check_id}: {'PASS' if self.passed else 'FAIL'}"]
        lines.append(f"  statement: {self.statement}")
        if self.ring_d is not None:
            lines.append(f"  ring: d = {self.ring_d}")
        lines.append(f"  population: {json.dumps(self.population)}")
        if self.vacuous:
            lines.append("  result: vacuous (no qualifying cases below the bound)")
        else:
            lines.append(f"  result: checked {self.checked} cases")
        for v in self.violations:
            lines.append(f"  violation: {json.dumps(v)}")
        for w in self.witnesses:
            lines.append(f"  witness: {json.dumps(w)}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


class Hit:
    """One perfect element: i_star(z, n) = t."""

    __slots__ = ("n", "t", "z")

    def __init__(self, n: int, t: Fraction, z: QInt) -> None:
        self.n = n
        self.t = t
        self.z = z


def discover_hits(
    r: Ring,
    n_values,
    targets,
    max_norm: int,
) -> list[Hit]:
    """Find all hits via the signature search, each re-verified; deterministic order."""
    hits: list[Hit] = []
    for n in sorted(n_values):
        sigs = signature_hits_multi(r, n, tuple(Fraction(t) for t in targets), max_norm)
        hits += [Hit(n, value, z) for z, value in witness_hits(r, sigs)]
    hits.sort(key=lambda h: (h.n, h.z.norm(), h.z.a, h.z.b))
    return hits


def load_hits(path: str, r: Ring) -> tuple[SearchConfig, list[Hit]]:
    """The search that wrote a checkpoint (either mode), and its hits sorted by (norm, a, b).

    search.read_checkpoint holds every record to that search, its target
    included, and returns each unit's hits, each verified by the oracle.
    """
    loaded = read_checkpoint(path)
    if loaded is None:
        raise CheckpointError(f"{path} is missing or empty")
    cfg, units = loaded
    if cfg.ring != r:
        raise DomainError(f"checkpoint was searched in d={cfg.ring.d}, not d={r.d}")
    hits = [hit for _, _, unit_hits in units for hit in unit_hits]
    hits.sort(key=lambda z: (z.norm(), z.a, z.b))
    return cfg, [Hit(cfg.n, cfg.t, z) for z in hits]


def _hit_json(h: Hit) -> dict:
    return {"z": format_element(h.z), "norm": h.z.norm(), "n": h.n, "t": str(h.t)}


# ---------------------------------------------------------------------------
# the checks

def check_thm_2_2(
    r: Ring,
    max_norm: int = 10_000,
    hits: list[Hit] | None = None,
) -> TheoremReport:
    """Every hit with n in {1,2} and integer t >= 2 must have even norm."""
    report = TheoremReport(
        "thm2.2",
        "every element with i_star(z, n) = t for n in {1, 2} and integer t >= 2 has even norm",
        r.d,
        {"max_norm": max_norm, "n": [1, 2], "t": list(_TARGETS)},
    )
    if hits is None:
        hits = discover_hits(r, (1, 2), _TARGETS, max_norm)
        report.notes.append("population discovered by signature search")
    skipped = 0
    for h in hits:
        if h.n not in (1, 2) or h.t.denominator != 1:
            skipped += 1
            continue
        report.case(_hit_json(h), {"reason": "odd norm"} if h.z.norm() % 2 else None)
    if skipped:
        report.notes.append(f"skipped {skipped} hits outside the n in {{1, 2}}, integer-t population")
    if report.vacuous:
        report.notes.append("no hits below the bound; the claim holds vacuously")
    return report


def check_thm_2_3(
    max_norm: int = 10_000,
    hits: list[Hit] | None = None,
) -> TheoremReport:
    """Gaussian hits with n = 2: the odd part has gamma + v2(t) distinct primes.

    gamma is the adic exponent of the even prime 1+i in z; the equivalent
    power-of-two exponent is gamma/2 and both are recorded per witness.
    """
    r = ring(-1)
    report = TheoremReport(
        "thm2.3",
        "for i_star(z, 2) = t in d=-1, z = (1+i)^gamma * x with odd-norm x, "
        "and x has exactly gamma + v2(t) nonassociated prime divisors",
        r.d,
        {"max_norm": max_norm, "n": [2], "t": list(_TARGETS)},
    )
    report.notes.append(
        "gamma counts powers of 1+i; the power-of-two exponent of z is gamma/2 "
        "when gamma is even, and both normalizations appear in each witness"
    )
    if hits is None:
        hits = discover_hits(r, (2,), _TARGETS, max_norm)
        report.notes.append("population discovered by signature search")
    skipped = 0
    for h in hits:
        if h.n != 2 or h.t.denominator != 1:
            skipped += 1
            continue
        fac = factor_element(h.z)
        gamma = sum(e.exponent for e in fac.entries if e.p == 2)
        odd_part = [e for e in fac.entries if e.p != 2]
        t_int = int(h.t)
        v2 = (t_int & -t_int).bit_length() - 1
        record = {
            **_hit_json(h),
            "gamma": gamma,
            "two_exponent": gamma // 2 if gamma % 2 == 0 else None,
            "v2_of_t": v2,
            "odd_part_primes": len(odd_part),
        }
        report.case(record, {"reason": "prime count mismatch"} if len(odd_part) != gamma + v2 else None)
    if skipped:
        report.notes.append(f"skipped {skipped} hits outside the n=2, integer-t population")
    if report.vacuous:
        report.notes.append("no qualifying hits below the bound; the claim holds vacuously")
    return report


def check_thm_2_4(max_norm: int = 10_000) -> TheoremReport:
    """Sweep d=-3: reduced numerators of I*_2 are never divisible by 3.

    The kernel gives i_star(z, 2) as an integer pair (numerator, den) once per
    (norm, content); the value is rational exactly when its only radicand is
    1, and the check reads num // gcd(num, den) % 3 from the integers.  A
    Fraction, and its text, is built only for a witness or a violation.
    """
    r = ring(-3)
    report = TheoremReport(
        "thm2.4",
        "in d=-3, i_star(z, 2) reduced to lowest terms a/b always has 3 coprime to a",
        r.d,
        {"max_norm": max_norm},
    )
    if max_norm < 1:
        raise DomainError("max_norm must be at least 1")
    if max_norm > NORM_CEILING:
        raise DomainError(f"max_norm must be at most {CEILING_TEXT}")
    sample_every = max(1, max_norm // 4)

    def value(terms: dict[int, int], den: int) -> tuple[int, int] | None:
        # i_star(z, 2) = sum(terms[m] * sqrt(m)) / den, rational iff only m = 1
        return (terms[1], den) if len(terms) == 1 else None

    for norm, a, b, pair in _index_points(r, 1, max_norm, 2, value):
        report.checked += 1
        if pair is None:
            report.violations.append(
                {"z": format_coords(a, b), "norm": norm, "reason": "value not rational"}
            )
            continue
        num, den = pair
        if num // gcd(num, den) % 3 == 0:
            report.violations.append(
                {"z": format_coords(a, b), "norm": norm, "value": str(Fraction(num, den)),
                 "reason": "numerator divisible by 3"}
            )
        elif norm % sample_every == 0 and len(report.witnesses) < 6:
            report.witnesses.append(
                {"z": format_coords(a, b), "norm": norm, "value": str(Fraction(num, den))}
            )
    report.notes.append("every value in the sweep was rational, as the yes/no check above enforces")
    return report


def _mod6_conditions(odd_part: list[FactorEntry], expect_even_count: bool) -> list[str]:
    reasons = []
    for e in odd_part:
        if pow(e.prime.norm(), e.exponent, 6) != 1:
            reasons.append(f"norm power of {format_element(e.prime)} is not 1 mod 6")
    if not any(e.prime.norm() % 6 == 5 for e in odd_part):
        reasons.append("no prime divisor with norm 5 mod 6")
    count_even = len(odd_part) % 2 == 0
    if count_even != expect_even_count:
        want = "even" if expect_even_count else "odd"
        reasons.append(f"odd-part prime count {len(odd_part)} is not {want}")
    return reasons


def check_thm_2_5(
    r: Ring,
    max_norm: int = 10_000,
    hits: list[Hit] | None = None,
) -> TheoremReport:
    """Mod-6 structure of 2-powerfully unitarily 2-perfect hits coprime to 3.

    For d = -7 the two primes above 2 play the role of the single even prime
    and the expected parity of the odd-part prime count flips when both of
    their exponents are positive.
    """
    report = TheoremReport(
        "thm2.5",
        "for i_star(z, 2) = 2 with 3 not dividing N(z): the even part of z is a "
        "power of 2 (for d=-7, even powers of both primes above 2), every "
        "odd-part prime power has norm power 1 mod 6, some prime norm is "
        "5 mod 6, and the odd-part prime count has the predicted parity",
        r.d,
        {"max_norm": max_norm, "n": [2], "t": [2]},
    )
    report.notes.append(
        "the perfectness hypothesis is read in its unitary sense: i_star(z, 2) = 2 "
        "with unitary divisors throughout"
    )
    if hits is None:
        hits = discover_hits(r, (2,), (Fraction(2),), max_norm)
        report.notes.append("population discovered by signature search")
    skipped = 0
    for h in hits:
        if h.n != 2 or h.t != 2 or h.z.norm() % 3 == 0:
            skipped += 1
            continue
        fac = factor_element(h.z)
        even_part = [e for e in fac.entries if e.p == 2]
        odd_part = [e for e in fac.entries if e.p != 2]
        reasons: list[str] = []
        record = _hit_json(h)
        if not even_part:
            reasons.append("norm is odd")
            gamma = 0
        elif r.d == -7:
            g1 = even_part[0].exponent
            g2 = even_part[1].exponent if len(even_part) > 1 else 0
            record["gamma1"], record["gamma2"] = g1, g2
            if g1 % 2 or g2 % 2:
                reasons.append("an exponent above 2 is odd despite 3 not dividing N(z)")
            both = g1 > 0 and g2 > 0
            reasons.extend(_mod6_conditions(odd_part, expect_even_count=not both))
            gamma = None
        else:
            mu = even_part[0].exponent
            if r.d in (-1, -2):
                if mu % 2:
                    reasons.append("adic exponent of the even prime is odd despite 3 not dividing N(z)")
                gamma = mu // 2
            else:
                gamma = mu
            record["gamma"] = gamma
            reasons.extend(_mod6_conditions(odd_part, expect_even_count=True))
        if gamma and (pow(2, 2 * gamma, 6) + 1) % 6 != 5:
            reasons.append("2^(2*gamma) + 1 is not 5 mod 6")
        report.case(record, {"reasons": reasons} if reasons else None)
    if skipped:
        report.notes.append(f"skipped {skipped} hits outside the t = 2, norm-coprime-to-3 population")
    if report.vacuous:
        report.notes.append("no qualifying hits below the bound; the claims hold vacuously")
    return report


def g_map(n: int, r: Ring) -> QInt:
    """Multiplicative lift of positive integers into the sector.

    Non-split primes map to themselves; a split prime p maps to the canonical
    associate of pi^2 for the oriented prime pi above p.  The absolute value
    of the image equals n, so i_star(g(n), 1) = sigma_star(n) / n.  An n
    above 2^32 is refused before it is factored: its image's norm n^2 is
    above factoring.NORM_CEILING.
    """
    if n < 1:
        raise DomainError("g_map needs a positive integer")
    if n > 1 << 32:
        raise DomainError(f"norm {n * n} is above {CEILING_TEXT}")
    parts = []
    for p, e in factor_int(n):
        pc = prime_above(p, r)
        parts.append((pc.pi * pc.pi if pc.kind == "split" else r.element(p)) ** e)
    return canonical_product(r, parts)


def check_thm_2_6(b: Fraction = Fraction(2), bound: int = 100_000) -> TheoremReport:
    """Integer unitary-b-perfect numbers inject into every ring with i_star 1 = b."""
    b = Fraction(b)
    if b <= 1:
        raise DomainError("the perfectness ratio b must exceed 1")
    if bound < 1:
        raise DomainError("bound must be at least 1")
    if bound > 1 << 32:
        raise DomainError(f"bound must be at most 2^32 = {1 << 32}: an image g(n) has norm n^2, at most {CEILING_TEXT}")
    report = TheoremReport(
        "thm2.6",
        "each integer n <= bound with sigma_star(n) = b*n maps to a sector element "
        "g(n) with |g(n)| = n and i_star(g(n), 1) = b, injectively, in every ring",
        None,
        {"b": str(b), "bound": bound, "rings": sorted(K)},
    )
    num, den = b.numerator, b.denominator
    members = sorted(Signature(2, ents).norm() for ents in _dfs_signatures(lambda p: "ramified", 2, (b,), bound))
    for m in members:
        if sigma_star_int(m) * den != num * m:
            raise AssertionError(f"{m} from the signature search does not have sigma_star({m}) = {b} * {m}")
    report.witnesses.append({"members": members})
    for d in sorted(K):
        r = ring(d)
        images: list[QInt] = []
        for n in members:
            gz = g_map(n, r)
            report.checked += 1
            images.append(gz)
            if gz.norm() != n * n:
                report.violations.append(
                    {"ring": d, "n": n, "image": format_element(gz), "reason": "absolute value not preserved"}
                )
                continue
            value = i_star(gz, 1)
            if not value.is_rational or value.as_fraction() != b:
                report.violations.append(
                    {"ring": d, "n": n, "image": format_element(gz), "value": str(value), "reason": "index ratio mismatch"}
                )
        if len(set(images)) != len(members):
            report.violations.append({"ring": d, "reason": "images not pairwise distinct"})
        if members:
            report.witnesses.append(
                {"ring": d, "n": members[0], "image": format_element(images[0])}
            )
    if not members:
        report.notes.append("no integers below the bound satisfy the ratio; vacuous")
    return report


def check_zeta() -> TheoremReport:
    """Certify the four zeta-ratio constants strictly below 2 by interval arithmetic."""
    report = TheoremReport(
        "zeta",
        "the four zeta-ratio constants that cap i_star for powers n >= 3 are "
        "strictly below 2, with certified interval width under 1e-3",
        None,
        {"terms": _ZETA_TERMS, "width_limit": "1/1000"},
    )
    for check in zeta_bound_check():
        failure = None if check.passed else {"reason": "upper bound reaches 2"}
        if check.passed and check.width >= Fraction(1, 1000):
            failure = {"reason": "interval too wide to certify"}
        report.case(check.to_json_dict(), failure)
    return report


# ---------------------------------------------------------------------------
# CLI dispatch

# the options each check reads; run_check refuses any other that is given
_READS = {
    "thm2.2": ("ring", "max-norm", "hits"),
    "thm2.3": ("ring", "max-norm", "hits"),
    "thm2.4": ("ring", "max-norm"),
    "thm2.5": ("ring", "max-norm", "hits"),
    "thm2.6": ("max-norm", "target"),
    "zeta": (),
}
CHECK_IDS = tuple(_READS)

_FIXED_RING = {"thm2.3": -1, "thm2.4": -3}


def run_check(
    check_id: str,
    ring_d: int | None = None,
    max_norm: int | None = None,
    hits_path: str | None = None,
    target: Fraction | None = None,
) -> TheoremReport:
    """Dispatch one named check with per-check defaults filled in.

    An option given to a check that does not read it (_READS) is a
    DomainError.  With hits_path nothing is discovered, so max_norm is not
    read, and the report's population is the checkpoint's search.
    """
    if check_id not in _READS:
        raise DomainError(f"unknown check {check_id!r}; choose from {', '.join(CHECK_IDS)}")
    reads = _READS[check_id]
    context = check_id
    if hits_path is not None and "hits" in reads:
        reads, context = ("ring", "hits"), f"{check_id} with --hits"
    given = {"ring": ring_d, "max-norm": max_norm, "hits": hits_path, "target": target}
    for option, value in given.items():
        if value is not None and option not in reads:
            raise DomainError(f"{context} does not read --{option}")
    fixed = _FIXED_RING.get(check_id)
    if fixed is not None and ring_d not in (None, fixed):
        raise DomainError(f"this check is specific to d={fixed}")
    if check_id == "zeta":
        return check_zeta()
    if check_id == "thm2.6":
        bound = 100_000 if max_norm is None else max_norm
        return check_thm_2_6(Fraction(2) if target is None else target, bound)
    bound = 10_000 if max_norm is None else max_norm
    if check_id == "thm2.4":
        return check_thm_2_4(bound)
    r = ring(fixed or ring_d or -1)
    cfg, hits = load_hits(hits_path, r) if hits_path is not None else (None, None)
    if check_id == "thm2.2":
        report = check_thm_2_2(r, bound, hits=hits)
    elif check_id == "thm2.3":
        report = check_thm_2_3(bound, hits=hits)
    else:
        report = check_thm_2_5(r, bound, hits=hits)
    if cfg is not None:
        t = cfg.t.numerator if cfg.t.denominator == 1 else str(cfg.t)
        report.population = {"max_norm": cfg.max_norm, "n": [cfg.n], "t": [t]}
    return report
