"""Command-line front end: expansions, candidate tables, orbit simulation,
growth estimates, y(x) scatter data, and rational enumeration.

Every command prints machine-readable output (JSON or CSV) built from
exact arithmetic, so a rerun with the same flags and seed is byte
identical.  Exit codes: 0 success, 2 bad input (including a count flag
out of range, or a value that cannot be evaluated exactly), 4 internal
invariant violation.

The common flags --seed, --format and --out can also be set through the
environment (PROPCF_SEED, PROPCF_FORMAT, PROPCF_OUT); an explicit flag
wins over the environment.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from pathlib import Path

from .exactreal import (
    Rational,
    parse_exact,
    to_text,
)
from .pcf import (
    MiddleCaseError,
    PCFExpansion,
    _pairs_text,
    convergents,
    enumerate_rational_expansions,
    expand,
)
from .candidates import (
    InvariantViolation,
    candidate_p_for_q,
    q2_cutoff_check,
    realizable_as_q2,
    realizable_as_q2_oracle,
    sweep_rows,
)
from .gauss2d import (
    bits_for_orbit_length,
    emit_y_scatter,
    engel_pairs,
    growth_exponent,
    orbit,
    random_unit_rational,
    varnum_expand,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 4

_ENV = {
    "seed": "PROPCF_SEED",
    "output_format": "PROPCF_FORMAT",
    "out": "PROPCF_OUT",
}

_DEFAULT_LEN = 12
_SCHEMA = 1

# count flags of the subcommands as (flag, argparse destination, least
# value); yofx stores its --n apart from the orbit length of simulate and
# growth, which RunConfig checks
_COUNT_FLAGS = (("--orbits", "orbits", 1), ("--len", "len", 1),
                ("--limit", "limit", 0), ("--n", "numerator", 1))


class UsageError(ValueError):
    """Bad command-line input that argparse itself cannot catch."""


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by every subcommand."""

    seed: int = 0
    output_format: str = "json"
    orbit_length: int = 100
    search_bound: int | None = None

    def __post_init__(self):
        if not (0 <= self.seed < 1 << 64):
            raise UsageError("seed must fit in 64 bits")
        if self.output_format not in ("json", "csv"):
            raise UsageError("format must be json or csv")
        if self.orbit_length < 1:
            raise UsageError("orbit length must be at least 1")
        if self.search_bound is not None and self.search_bound < 1:
            raise UsageError("search bound must be at least 1")


# ---------------------------------------------------------------------------
# argument parsing helpers


def _env_or(name: str, flag_value, fallback, convert):
    """Flag wins, then the environment, then the built-in default."""
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(_ENV[name])
    if raw is None:
        return fallback
    try:
        return convert(raw)
    except ValueError as exc:
        raise UsageError(f"bad {_ENV[name]}={raw!r}: {exc}") from None


def parse_x_spec(text: str):
    """An exact value from "p/q", a decimal literal, "(sqrt5-1)/2" style
    surds, or the alias "golden"; must lie strictly between 0 and 1."""
    value = parse_exact(text)
    if not (Rational(0) < value < Rational(1)):
        raise UsageError(f"{text!r} does not lie strictly between 0 and 1")
    return value


def _parse_range(text: str) -> tuple[int, int]:
    """"3" or "1..5" (inclusive); an inverted range is simply empty."""
    lo, sep, hi = text.partition("..")
    try:
        low = int(lo)
        high = int(hi) if sep else low
    except ValueError:
        raise UsageError(f"bad range {text!r}: use N or LO..HI") from None
    if low < 1:
        raise UsageError("range must start at 1 or above")
    return low, high


def _numerator_pairs(x, spec: str, length: int | None):
    """Resolve a numerators-spec against x.

    Returns a complete PCFExpansion.  Literal lists and numerator streams
    go through the standard digit recurrence; the family names drive
    their own self-reading expansions.
    """
    cap = length
    if spec == "varnum":
        pairs, tail = varnum_expand(x, cap or _DEFAULT_LEN)
        return PCFExpansion.from_pairs(pairs, tail)
    if spec == "engel":
        pairs, tail = engel_pairs(x, cap or _DEFAULT_LEN)
        return PCFExpansion.from_pairs(pairs, tail)
    if spec.startswith("all:"):
        try:
            n = int(spec[4:])
        except ValueError:
            raise UsageError(f"bad numerator spec {spec!r}") from None
        if n < 1:
            raise UsageError("constant numerator must be at least 1")
        return expand(x, repeat(n), max_len=cap or _DEFAULT_LEN)
    if spec.startswith("rcf-of:"):
        y = parse_x_spec(spec[len("rcf-of:"):])
        want = cap or _DEFAULT_LEN
        stream = expand(y, repeat(1), max_len=want).digits()
        return expand(x, stream, max_len=want)
    try:
        literal = [int(part) for part in spec.split(",")]
    except ValueError:
        raise UsageError(
            f"bad numerator spec {spec!r}: expected a comma-separated list, "
            "all:N, rcf-of:SPEC, varnum, or engel") from None
    if not literal or any(a < 1 for a in literal):
        raise UsageError("numerators must be positive integers")
    return expand(x, literal, max_len=cap)


# ---------------------------------------------------------------------------
# output plumbing


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(row.get(col)) for col in header])
    return buf.getvalue()


def _emit(doc: dict, tables: list[tuple[str, list[str], list[dict]]],
          config: RunConfig, out: str | None) -> None:
    """Write the JSON document, or the CSV tables, to stdout or --out.

    Several CSV tables go to one sectioned stream on stdout; with --out
    the first table takes the named file and each further table gets the
    table name spliced in before the extension.
    """
    if config.output_format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if out is None:
            sys.stdout.write(text)
        else:
            Path(out).write_text(text)
        return
    if out is None:
        chunks = []
        for name, header, rows in tables:
            section = _csv_text(header, rows)
            if len(tables) > 1:
                section = f"# {name}\n{section}"
            chunks.append(section)
        sys.stdout.write("\n".join(chunks))
        return
    base = Path(out)
    for i, (name, header, rows) in enumerate(tables):
        target = base if i == 0 else base.with_name(
            f"{base.stem}-{name}{base.suffix}")
        target.write_text(_csv_text(header, rows))


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args, config: RunConfig):
    x = parse_x_spec(args.x)
    expansion = _numerator_pairs(x, args.numerators, args.len)
    cv = convergents(expansion)
    sign, product = 1, 1
    rows = []
    for n, quot in enumerate(expansion.quotients, start=1):
        sign, product = -sign, product * quot.a
        residual = cv.p(n - 1) * cv.q(n) - cv.p(n) * cv.q(n - 1) - sign * product
        if residual != 0:
            raise InvariantViolation(
                f"determinant identity failed at index {n}")
        reduced = Rational(cv.p(n), cv.q(n)) if cv.q(n) else None
        margin = x - abs(cv.q(n) * x - cv.p(n))
        rows.append({
            "n": n, "a": quot.a, "b": quot.b,
            "p": cv.p(n), "q": cv.q(n),
            "reduced": to_text(reduced) if reduced is not None else "",
            "det_residual": residual,
            "margin": to_text(margin),
        })
    doc = {
        "schema": _SCHEMA,
        "command": "expand",
        "x": to_text(x),
        "numerators": args.numerators,
        "length": len(expansion),
        "complete": expansion.is_complete(),
        "tail": to_text(expansion.tail),
        "pairs": [{"a": str(q.a), "b": str(q.b)} for q in expansion.quotients],
        "convergents": [{key: _cell(row[key]) for key in row} for row in rows],
    }
    header = ["n", "a", "b", "p", "q", "reduced", "det_residual", "margin"]
    return doc, [("expansion", header, rows)]


def _classify_by_p(x, x_text: str, low: int, high: int, config: RunConfig,
                   oracle: bool):
    rows = sweep_rows(x, x_text, high, bound=config.search_bound,
                      oracle=oracle) if high >= low else []
    rows = [row for row in rows if row["p"] >= low]
    header = ["x", "p", "q", "parity", "realizable", "witness", "cutoff"]
    return rows, header


def _classify_by_q(x, x_text: str, low: int, high: int, config: RunConfig,
                   oracle: bool):
    rows = []
    for q in range(low, high + 1):
        p_even, p_odd = candidate_p_for_q(x, q)
        witness = None
        realizable = None
        if p_even is not None:
            witness = realizable_as_q2(x, p_even)
            realizable = witness is not None
            if oracle:
                other = realizable_as_q2_oracle(x, p_even,
                                                config.search_bound)
                if (witness is None) != (other is None):
                    raise InvariantViolation(
                        "divisor criterion and brute force disagree "
                        f"at q={q}")
        rows.append({
            "x": x_text, "q": q,
            "p_even": p_even, "p_odd": p_odd,
            "even_realizable": realizable,
            "witness": _pairs_text(witness.quotients)
            if witness is not None else "",
            "cutoff": q2_cutoff_check(x, q).value,
        })
    header = ["x", "q", "p_even", "p_odd", "even_realizable", "witness",
              "cutoff"]
    return rows, header


def cmd_classify(args, config: RunConfig):
    if (args.p is None) == (args.q is None):
        raise UsageError("give exactly one of --p or --q")
    x = parse_x_spec(args.x)
    x_text = to_text(x)
    if args.p is not None:
        low, high = _parse_range(args.p)
        rows, header = _classify_by_p(x, x_text, low, high, config,
                                      args.oracle)
        mode = "p"
    else:
        low, high = _parse_range(args.q)
        rows, header = _classify_by_q(x, x_text, low, high, config,
                                      args.oracle)
        mode = "q"
    doc = {
        "schema": _SCHEMA,
        "command": "classify",
        "x": x_text,
        "mode": mode,
        "range": [low, high],
        "oracle_checked": bool(args.oracle),
        "rows": [{key: _cell(row[key]) for key in header} for row in rows],
    }
    return doc, [("candidates", header, rows)]


def cmd_simulate(args, config: RunConfig):
    y = parse_x_spec(args.y)
    n = config.orbit_length
    bits = bits_for_orbit_length(n)
    master = random.Random(config.seed)
    digests = []
    visits: Counter[tuple[int, int]] = Counter()
    partial = False
    for index in range(args.orbits):
        x0 = random_unit_rational(master, bits)
        record = orbit(x0, y, n)
        report = growth_exponent(x0, y, n, record=record)
        partial = partial or report.truncated
        visits.update(record.digits)
        digests.append({
            "orbit": index,
            "seed": config.seed,
            "n": n,
            "steps": record.steps,
            "estimate": report.estimate,
            "trend_slope": report.trend_slope,
            "oscillation": report.oscillation,
            "reliable": report.reliable,
            "truncated": report.truncated,
            "terminated_by": record.terminated_by,
        })
    total = sum(visits.values())
    frequencies = [
        {"a": a, "b": b, "count": count,
         "frequency": str(Fraction(count, total))}
        for (a, b), count in sorted(visits.items())
    ]
    doc = {
        "schema": _SCHEMA,
        "command": "simulate",
        "seed": config.seed,
        "orbits": args.orbits,
        "n": n,
        "seed_bits": bits,
        "y": to_text(y),
        "partial": partial,
        "digests": [{key: _cell(row[key]) for key in row} for row in digests],
        "frequencies": [{key: _cell(row[key]) for key in row}
                        for row in frequencies],
    }
    digest_header = ["orbit", "seed", "n", "steps", "estimate", "trend_slope",
                     "oscillation", "reliable", "truncated", "terminated_by"]
    freq_header = ["a", "b", "count", "frequency"]
    return doc, [("digests", digest_header, digests),
                 ("frequencies", freq_header, frequencies)]


def cmd_growth(args, config: RunConfig):
    y = parse_x_spec(args.y)
    n = config.orbit_length
    doc = {
        "schema": _SCHEMA,
        "command": "growth",
        "y": to_text(y),
        "n": n,
        "seed": config.seed,
    }
    if args.x is not None:
        x0 = parse_x_spec(args.x)
        doc["x"] = to_text(x0)
    else:
        bits = bits_for_orbit_length(n)
        x0 = random_unit_rational(random.Random(config.seed), bits)
        doc["seed_bits"] = bits
    report = growth_exponent(x0, y, n)
    row = {
        "n": n,
        "steps": report.steps,
        "estimate": report.estimate,
        "trend_slope": report.trend_slope,
        "oscillation": report.oscillation,
        "reliable": report.reliable,
        "truncated": report.truncated,
    }
    doc.update({key: _cell(value) for key, value in row.items()})
    header = ["n", "steps", "estimate", "trend_slope", "oscillation",
              "reliable", "truncated"]
    return doc, [("growth", header, [row])]


def cmd_yofx(args, config: RunConfig):
    rows = emit_y_scatter(args.family, args.grid, args.depth, n=args.numerator)
    live = [row for row in rows if not row["skip"]]
    min_y = None
    for row in live:
        value = Rational(int(row["y_num"]), int(row["y_den"]))
        if min_y is None or value < min_y:
            min_y = value
    doc = {
        "schema": _SCHEMA,
        "command": "yofx",
        "family": args.family,
        "grid": args.grid,
        "depth": args.depth,
        "live_rows": len(live),
        "min_y": to_text(min_y) if min_y is not None else "",
        "rows": rows,
    }
    if args.numerator is not None:
        doc["n"] = args.numerator
    header = ["x_num", "x_den", "family", "depth", "digits_used",
              "y_num", "y_den", "skip", "residual"]
    return doc, [("scatter", header, rows)]


def cmd_rational(args, config: RunConfig):
    value = parse_x_spec(args.value)
    if not isinstance(value, Rational):
        raise UsageError("rational enumeration needs a rational value")
    expansions = enumerate_rational_expansions(value, length=args.len)
    lengths = sorted({len(e) for e in expansions})
    rows = [{
        "index": i,
        "length": len(e),
        "pairs": _pairs_text(e.quotients),
    } for i, e in enumerate(expansions)]
    if args.limit is not None:
        rows = rows[:args.limit]
    doc = {
        "schema": _SCHEMA,
        "command": "rational",
        "value": to_text(value),
        "count": len(expansions),
        "max_length": max(lengths) if lengths else 0,
        "lengths": lengths,
        "rows": [{key: _cell(row[key]) for key in row} for row in rows],
    }
    header = ["index", "length", "pairs"]
    return doc, [("expansions", header, rows)]


# ---------------------------------------------------------------------------
# dispatch


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="64-bit master seed (default 0)")
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (default json)")
    common.add_argument("--out", default=None,
                        help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="propcf",
        description="Proper continued fractions: expansions, candidate "
                    "classification, and joint-map statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", parents=[common],
                       help="expand x and print convergents")
    p.add_argument("x", help='value spec: "5/6", "(sqrt5-1)/2", "golden", '
                            "or a decimal literal")
    p.add_argument("--numerators", required=True,
                   help='"4,3,2,1,1", "all:N", "rcf-of:SPEC", "varnum", '
                        'or "engel"')
    p.add_argument("--len", type=int, default=None,
                   help="cap on the number of digits (default: the literal "
                        f"list length, else {_DEFAULT_LEN})")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("classify", parents=[common],
                       help="candidate/realizability table")
    p.add_argument("x", help="value spec")
    p.add_argument("--p", default=None, help="numerator range N or LO..HI")
    p.add_argument("--q", default=None, help="denominator range N or LO..HI")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the divisor criterion by brute force")
    p.add_argument("--bound", type=int, default=None,
                   help="cap on the brute-force numerator search")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", parents=[common],
                       help="seeded joint-map orbits with digests and "
                            "cylinder frequencies")
    p.add_argument("--n", type=int, default=None, help="orbit length")
    p.add_argument("--orbits", type=int, default=1,
                   help="number of orbits (default 1)")
    p.add_argument("--y", default="golden",
                   help="y seed spec (default golden)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("growth", parents=[common],
                       help="denominator growth-rate estimate of one orbit")
    p.add_argument("--y", default="golden",
                   help="y seed spec (default golden)")
    p.add_argument("--x", default=None,
                   help="explicit x seed (default: drawn from --seed)")
    p.add_argument("--n", type=int, default=None, help="orbit length")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("yofx", parents=[common],
                       help="y(x) scatter table on a uniform grid")
    p.add_argument("--family", required=True,
                   choices=("varnum", "engel", "greedy"))
    p.add_argument("--grid", type=int, required=True,
                   help="number of grid points i/(grid+1)")
    p.add_argument("--depth", type=int, required=True,
                   help="digits of y to keep")
    p.add_argument("--n", dest="numerator", type=int, default=None,
                   help="numerator for the greedy family")
    p.set_defaults(func=cmd_yofx)

    p = sub.add_parser("rational", parents=[common],
                       help="every complete expansion of a rational")
    p.add_argument("value", help='rational spec like "5/6"')
    p.add_argument("--len", type=int, default=None,
                   help="keep only expansions of exactly this length")
    p.add_argument("--limit", type=int, default=None,
                   help="print at most this many rows (summary stays exact)")
    p.set_defaults(func=cmd_rational)
    return parser


def _config_from(args) -> tuple[RunConfig, str | None]:
    for flag, dest, least in _COUNT_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and value < least:
            raise UsageError(f"{flag} must be at least {least}")
    orbit_length = getattr(args, "n", None)
    config = RunConfig(
        seed=_env_or("seed", args.seed, 0, int),
        output_format=_env_or("output_format", args.format, "json", str),
        orbit_length=orbit_length if orbit_length is not None else 100,
        search_bound=getattr(args, "bound", None),
    )
    out = _env_or("out", args.out, None, str)
    return config, out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config, out = _config_from(args)
        doc, tables = args.func(args, config)
        _emit(doc, tables, config, out)
    except (InvariantViolation, MiddleCaseError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        # covers UsageError, ParseError, and library input validation
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ArithmeticError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
