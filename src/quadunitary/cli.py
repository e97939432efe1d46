"""Command-line interface: one binary, one subcommand per operation.

Exit codes: 0 success, 1 usage error or stdout closed early, 2 domain error
(bad ring, bad element, corrupt checkpoint, a number in an argument or a
result past Python's limit on the digits it converts between integer and
text), 3 verification failure (a check
ran and found violations).  JSON output is schema-stable and versioned; identical
invocations produce byte-identical JSON.  Text output is for humans and is
not parsed by the test suite.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from fractions import Fraction
from functools import partial
from itertools import chain

from .factoring import factor_element
from .primes import prime_above
from .rings import DomainError, K, format_element, parse_element, pretty_element, ring
from .search import (
    CheckpointError,
    SearchConfig,
    _config_echo,
    _dumps,
    read_rows,
    search_rows,
)
from .theorems import CHECK_IDS, g_map, run_check
from .udf import delta_star, i_star, sigma_star_int, unitary_divisors

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ring_type(text: str) -> int:
    try:
        d = int(text)
    except ValueError:
        d = None
    if d not in K:
        legal = ", ".join(str(k) for k in sorted(K))
        raise argparse.ArgumentTypeError(f"unknown ring {text!r}; legal values: {legal}")
    return d


def _fraction_type(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _emit(fmt: str, **render) -> None:
    """Print one command's output in the requested format, computing only that one.

    render maps each format to a zero-argument callable: "json" returns the
    documents, printed compactly one per line, each a dict or its JSON text
    already encoded; "csv" returns (header, rows); "text" returns the lines.
    """
    out = render[fmt]()
    if fmt == "json":
        sys.stdout.writelines((doc if isinstance(doc, str) else _dumps(doc)) + "\n" for doc in out)
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(out[0])
        writer.writerows(out[1])
    else:
        sys.stdout.writelines(line + "\n" for line in out)


# ---------------------------------------------------------------------------
# subcommand handlers

def _classify_text(p: int, r, pc) -> str:
    if pc.kind == "inert":
        return f"{p} is inert in d={r.d}: it stays prime, norm {p ** 2}"
    if pc.kind == "ramified":
        return f"{p} ramifies in d={r.d}: {p} ~ ({pretty_element(pc.pi)})^2"
    return (
        f"{p} splits in d={r.d}: pi = {pretty_element(pc.pi)}, "
        f"conjugate ~ {pretty_element(pc.pi_bar)}"
    )


def _cmd_classify(args) -> int:
    r = ring(args.ring)
    pc = prime_above(args.prime, r)
    pi_bar = None if pc.pi_bar is None else format_element(pc.pi_bar)
    _emit(
        args.format,
        json=lambda: [{
            "schema_version": SCHEMA_VERSION,
            "ring": r.d,
            "prime": args.prime,
            "kind": pc.kind,
            "pi": format_element(pc.pi),
            "pi_pretty": pretty_element(pc.pi),
            "pi_bar": pi_bar,
            "pi_bar_pretty": None if pc.pi_bar is None else pretty_element(pc.pi_bar),
        }],
        csv=lambda: (
            ["prime", "ring", "kind", "pi", "pi_bar"],
            [[args.prime, r.d, pc.kind, format_element(pc.pi), pi_bar]],
        ),
        text=lambda: [_classify_text(args.prime, r, pc)],
    )
    return 0


def _factor_text(z, fac) -> str:
    parts = []
    if fac.unit_index != 0:
        parts.append(format_element(fac.unit))
    for e in fac.entries:
        base = format_element(e.prime)
        if "+" in base or "-" in base[1:]:
            base = f"({base})"
        parts.append(base if e.exponent == 1 else f"{base}^{e.exponent}")
    return f"{format_element(z)} = {' * '.join(parts) if parts else '1'}"


def _cmd_factor(args) -> int:
    r = ring(args.ring)
    z = parse_element(r, args.element)
    fac = factor_element(z)
    columns = ["prime", "exponent", "p", "kind", "norm"]
    rows = [[format_element(e.prime), e.exponent, e.p, e.kind, e.prime.norm()] for e in fac.entries]
    _emit(
        args.format,
        json=lambda: [{
            "schema_version": SCHEMA_VERSION,
            "ring": r.d,
            "element": format_element(z),
            "norm": z.norm(),
            "unit": format_element(fac.unit),
            "unit_index": fac.unit_index,
            "factors": [dict(zip(columns, row)) for row in rows],
        }],
        csv=lambda: (columns, rows),
        text=lambda: [_factor_text(z, fac)],
    )
    return 0


def _refuse_past_digit_limit(norm: int, s: int) -> None:
    """DomainError if delta_star(z, s), N(z) = norm, must print a number past the digit limit.

    Decided from bit lengths before any power is taken: the value is a sum of
    c_m * sqrt(m) > 0 over squarefree m | norm, from k < norm.bit_length()
    prime powers of norm >= 2.  For s > 0 the c_m are at most norm integers,
    weighted by sqrt(m) <= sqrt(norm), whose sum is at least norm^(s/2), so
    one is at least norm^((s - 3) / 2).  For s < 0 the value exceeds 1 by at
    most 2k * 2^(-|s|/2), so a coefficient in lowest terms has a denominator
    of at least 2^(|s|/2) / 2k.  B bits exceed limit digits if 3B >= 10 * limit.
    i_star(z, n) is delta_star(z, -n); sigma_star_k(m) is the value at norm m, s = 2k.
    """
    limit, size = sys.get_int_max_str_digits(), norm.bit_length()
    bits = (size - 1) * (s - 3) // 2 if s > 0 else -s // 2 - (2 * size).bit_length()
    if limit and norm > 1 and 3 * bits >= 10 * limit:
        raise DomainError(f"Exceeds the limit ({limit} digits) for integer string conversion")


def _cmd_value(fn, name: str, args) -> int:
    """delta and istar: fn(z, n), keyed by the subcommand in JSON and CSV, by name in text."""
    r = ring(args.ring)
    z = parse_element(r, args.element)
    _refuse_past_digit_limit(z.norm(), args.power if args.command == "delta" else -args.power)
    value = fn(z, args.power)
    element = format_element(z)
    _emit(
        args.format,
        json=lambda: [{
            "schema_version": SCHEMA_VERSION,
            "ring": r.d,
            "element": element,
            "power": args.power,
            args.command: value.to_json_terms(),
            "rational": value.is_rational,
            "approx": value.approx(),
        }],
        csv=lambda: (
            ["element", "power", args.command, "approx"],
            [[element, args.power, str(value), value.approx()]],
        ),
        text=lambda: [f"{name}({element}, {args.power}) = {value}"],
    )
    return 0


def _cmd_divisors(args) -> int:
    r = ring(args.ring)
    z = parse_element(r, args.element)
    divisors = unitary_divisors(z)
    _emit(
        args.format,
        json=lambda: [{
            "schema_version": SCHEMA_VERSION,
            "ring": r.d,
            "element": format_element(z),
            "count": len(divisors),
            "divisors": [{"z": format_element(w), "norm": w.norm()} for w in divisors],
        }],
        csv=lambda: (["z", "norm"], [[format_element(w), w.norm()] for w in divisors]),
        text=lambda: [
            f"{len(divisors)} unitary divisors of {format_element(z)}:",
            *(f"  {format_element(w)}  (norm {w.norm()})" for w in divisors),
        ],
    )
    return 0


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        ring=ring(args.ring),
        n=args.power,
        t=args.target,
        max_norm=args.max_norm,
        mode=args.mode,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
        verbose=args.verbose,
    )
    lines, hits = search_rows(cfg)
    header = {
        "schema_version": SCHEMA_VERSION,
        "kind": "search",
        "config": _config_echo(cfg),
        "hits": hits,
    }
    _emit(
        args.format,
        json=lambda: chain([header], lines),
        csv=lambda: (
            ["z", "norm", "istar", "hit"],
            ([z, norm, str(value), hit] for z, norm, value, hit in read_rows(lines)),
        ),
        text=lambda: chain(
            (
                f"{'hit ' if hit else '    '}{z}  norm {norm}  i_star = {value}"
                for z, norm, value, hit in read_rows(lines)
            ),
            [f"{hits} hits"],
        ),
    )
    if not args.quiet and args.format != "text":
        print(
            f"search d={cfg.ring.d} n={cfg.n} t={cfg.t} max_norm={cfg.max_norm} "
            f"mode={cfg.mode}: {hits} hits, {len(lines)} records",
            file=sys.stderr,
        )
    return 0


def _cmd_verify(args) -> int:
    report = run_check(
        args.check,
        ring_d=args.ring,
        max_norm=args.max_norm,
        hits_path=args.hits,
        target=args.target,
    )
    _emit(
        args.format,
        json=lambda: [report.to_json_dict()],
        csv=lambda: (
            ["check", "ring", "checked", "vacuous", "violations", "passed"],
            [[report.check_id, report.ring_d, report.checked, report.vacuous,
              len(report.violations), report.passed]],
        ),
        text=lambda: [report.to_text()],
    )
    return 0 if report.passed else 3


def _cmd_gmap(args) -> int:
    r = ring(args.ring)
    image = g_map(args.integer, r)
    value = i_star(image, 1)
    _emit(
        args.format,
        json=lambda: [{
            "schema_version": SCHEMA_VERSION,
            "ring": r.d,
            "n": args.integer,
            "image": format_element(image),
            "image_pretty": pretty_element(image),
            "norm": image.norm(),
            "istar1": str(value),
        }],
        csv=lambda: (
            ["n", "ring", "image", "norm", "istar1"],
            [[args.integer, r.d, format_element(image), image.norm(), str(value)]],
        ),
        text=lambda: [
            f"g({args.integer}) = {format_element(image)}  "
            f"(norm {image.norm()}, i_star_1 = {value})"
        ],
    )
    return 0


def _cmd_sigma_star(args) -> int:
    _refuse_past_digit_limit(args.integer, 2 * args.power)
    value = sigma_star_int(args.integer, args.power)
    _emit(
        args.format,
        json=lambda: [{
            "schema_version": SCHEMA_VERSION,
            "n": args.integer,
            "k": args.power,
            "value": value if isinstance(value, int) else str(value),
        }],
        csv=lambda: (["n", "k", "value"], [[args.integer, args.power, value]]),
        text=lambda: [f"sigma_star_{args.power}({args.integer}) = {value}"],
    )
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(sub, ring_required: bool = True) -> None:
    if ring_required:
        sub.add_argument(
            "--ring", type=_ring_type, required=True,
            help="ring discriminant d, one of " + ", ".join(str(k) for k in sorted(K)),
        )
    sub.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="output format (default: text)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="quadunitary",
        description=(
            "Exact arithmetic for unitary divisor functions in the nine "
            "imaginary quadratic unique factorization domains."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = subs.add_parser("classify", help="classify an integer prime as inert, ramified, or split")
    _add_common(p)
    p.add_argument("--prime", type=int, required=True, help="integer prime to classify")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("factor", help="factor an element into canonical sector primes")
    _add_common(p)
    p.add_argument("--element", required=True, help="element, e.g. '30', '3+4*w', '1+2i'")
    p.set_defaults(func=_cmd_factor)

    p = subs.add_parser("delta", help="evaluate the unitary divisor power sum delta_star")
    _add_common(p)
    p.add_argument("--element", required=True)
    p.add_argument("--power", type=int, required=True, help="power n (any integer)")
    p.set_defaults(func=partial(_cmd_value, delta_star, "delta_star"))

    p = subs.add_parser("istar", help="evaluate the normalized index i_star")
    _add_common(p)
    p.add_argument("--element", required=True)
    p.add_argument("--power", type=int, required=True, help="power n (any integer)")
    p.set_defaults(func=partial(_cmd_value, i_star, "i_star"))

    p = subs.add_parser("divisors", help="list the unitary divisors of an element")
    _add_common(p)
    p.add_argument("--element", required=True)
    p.set_defaults(func=_cmd_divisors)

    p = subs.add_parser("search", help="search for elements with i_star(z, n) = t")
    _add_common(p)
    p.add_argument("--power", type=int, required=True, help="power n >= 1")
    p.add_argument("--target", type=_fraction_type, required=True, help="target t > 1, e.g. 2 or 5/2")
    p.add_argument("--max-norm", type=int, default=10_000, help="inclusive norm bound (default 10000)")
    p.add_argument("--mode", choices=("elements", "signatures"), default="elements")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--checkpoint", help="JSON-lines checkpoint path for resumable runs")
    p.add_argument("--verbose", action="store_true", help="emit non-hits too (elements mode)")
    p.add_argument("--quiet", action="store_true", help="omit the summary line (hits, records) that json and csv print on stderr")
    p.set_defaults(func=_cmd_search)

    p = subs.add_parser("verify", help="run one theorem check and report violations")
    p.add_argument("check", choices=CHECK_IDS, help="which check to run")
    p.add_argument(
        "--ring", type=_ring_type, default=None,
        help="ring discriminant d for thm2.2 and thm2.5 (default -1); thm2.3 takes only -1, thm2.4 only -3",
    )
    _add_common(p, ring_required=False)
    p.add_argument("--max-norm", type=int, default=None, help="population bound (per-check default; not with --hits)")
    p.add_argument("--hits", help="search checkpoint whose hits thm2.2, thm2.3 or thm2.5 check instead of searching")
    p.add_argument("--target", type=_fraction_type, default=None, help="perfectness ratio b for thm2.6")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("gmap", help="lift a positive integer into the sector, preserving absolute value")
    _add_common(p)
    p.add_argument("--integer", type=int, required=True, help="positive integer n")
    p.set_defaults(func=_cmd_gmap)

    p = subs.add_parser("sigma-star", help="integer unitary divisor power sum sigma_star_k(n)")
    _add_common(p, ring_required=False)
    p.add_argument("--integer", type=int, required=True, help="positive integer n")
    p.add_argument("--power", type=int, default=1, help="power k (default 1)")
    p.set_defaults(func=_cmd_sigma_star)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (DomainError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # the digit limit stays: the checkpoint readers rely on it to refuse huge integers at once
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: {str(exc).split(';')[0]}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (`| head`); point it at devnull so the
        # interpreter's final flush cannot fail again (Python docs, SIGPIPE note)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
