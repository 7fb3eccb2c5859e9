"""Command-line front end: expansions, candidate tables, orbit simulation,
growth estimates, y(x) scatter data, and rational enumeration.

Every command prints machine-readable output (JSON or CSV) built from
exact arithmetic, so a rerun with the same flags and seed is byte
identical.  Exit codes: 0 success, 2 bad input (including a count flag
such as --n or --orbits below its least value, a reversed range, a value
that cannot be evaluated exactly, or an --out path that cannot be
written), 4 internal invariant violation.

Every request takes one path: argparse, on one parser built per process,
then ``_config_from`` (range checks and the common flags), then the
``cmd_<command>`` found by name, which returns the document and its
tables with every cell already text, then ``_emit``.  JSON text comes
from ``_json_text`` alone, byte-identical to ``json.dumps(doc, indent=2,
sort_keys=True)``: a top-level table of string cells is written
from one template per table instead of through the pure-Python encoder
that ``indent`` selects.  CSV text comes from ``_csv_text`` alone,
byte-identical to ``csv.writer``: a table whose cells need no quoting is
written by one join, and any other table by the writer.  The common flags
--seed, --format and --out can also be set through the environment
(PROPCF_SEED, PROPCF_FORMAT, PROPCF_OUT); an explicit flag wins over the
environment.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import random
import sys
from collections import Counter
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Rounded,
    localcontext,
)
from itertools import repeat
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter
from pathlib import Path

from .exactreal import (
    Rational,
    _affine_sign,
    _affine_text,
    _at_least,
    _margin,
    _rational_text,
    _unit,
    parse_exact,
    to_text,
)
from .pcf import (
    MiddleCaseError,
    PCFExpansion,
    _recurrence,
    convergents,
    enumerate_rational_expansions,
    expand,
)
from .candidates import (
    InvariantViolation,
    sweep_q_rows,
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

_DEFAULT_LEN = 12
_SCHEMA = 1

# count flags of the subcommands as (flag, argparse destination, least
# value); --n is the orbit length of simulate and growth but the greedy
# numerator of yofx, which stores it apart
_COUNT_FLAGS = (("--orbits", "orbits", 1), ("--len", "len", 1),
                ("--limit", "limit", 0), ("--n", "n", 1),
                ("--n", "numerator", 1), ("--grid", "grid", 2),
                ("--depth", "depth", 1))


# expand's decimal cells are computed in this context alone: it keeps
# every digit, and a result that would lose one raises instead of printing
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, InvalidOperation, DivisionByZero])


class UsageError(ValueError):
    """Bad command-line input that argparse itself cannot catch."""


# ---------------------------------------------------------------------------
# argument parsing helpers


def _env_or(flag_value, variable: str, fallback, convert):
    """Flag wins, then the environment, then the built-in default."""
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(variable)
    if raw is None:
        return fallback
    try:
        return convert(raw)
    except ValueError as exc:
        raise UsageError(f"bad {variable}={raw!r}: {exc}") from None


def parse_x_spec(text: str):
    """An exact value from "p/q", a decimal literal, "(sqrt5-1)/2" style
    surds, or the alias "golden"; must lie strictly between 0 and 1."""
    return _unit(parse_exact(text), repr(text))


def _parse_range(text: str) -> tuple[int, int]:
    """"3" or "1..5" (inclusive), starting at 1 or above; an inverted
    range such as "5..1" is bad input."""
    lo, sep, hi = text.partition("..")
    try:
        low = int(lo)
        high = int(hi) if sep else low
    except ValueError:
        raise UsageError(f"bad range {text!r}: use N or LO..HI") from None
    _at_least("range start", low, 1)
    if high < low:
        raise UsageError(f"bad range {text!r}: the end lies below the start")
    return low, high


def _numerator_pairs(x, spec: str, length: int | None):
    """Resolve a numerators-spec against x.

    Returns a complete PCFExpansion.  Literal lists and numerator streams
    go through the standard digit recurrence; the family names drive
    their own self-reading expansions.
    """
    want = length or _DEFAULT_LEN
    if spec in ("varnum", "engel"):
        family = varnum_expand if spec == "varnum" else engel_pairs
        return PCFExpansion.from_pairs(*family(x, want))
    if spec.startswith("all:"):
        try:
            n = int(spec[4:])
        except ValueError:
            raise UsageError(f"bad numerator spec {spec!r}") from None
        _at_least("constant numerator", n, 1)
        return expand(x, repeat(n), max_len=want)
    if spec.startswith("rcf-of:"):
        y = parse_x_spec(spec[len("rcf-of:"):])
        stream = expand(y, repeat(1), max_len=want).digits()
        return expand(x, stream, max_len=want)
    try:
        literal = [int(part) for part in spec.split(",")]
    except ValueError:
        raise UsageError(
            f"bad numerator spec {spec!r}: expected a comma-separated list, "
            "all:N, rcf-of:SPEC, varnum, or engel") from None
    for a in literal:
        _at_least("numerator", a, 1)
    return expand(x, literal, max_len=length)


# ---------------------------------------------------------------------------
# output plumbing


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _text_row(row: dict) -> dict:
    """The row with every cell as the string both output formats print."""
    return {key: _cell(value) for key, value in row.items()}


def _csv_text(header: list[str], rows: list[dict]) -> str:
    """Exactly the bytes of ``csv.writer(lineterminator="\\n")`` writing
    ``header`` and then each row's cells in header order.

    A table of two or more columns is written by one join and kept when no
    cell holds a character the writer would quote: no ``"`` and no ``\\r``
    anywhere, and no newline or comma beyond the ones the join put in.
    Every other table (one column, where a lone empty cell prints as
    ``""``, a missing key or a non-``str`` cell) goes through the writer.
    """
    if len(header) > 1:
        try:
            text = "\n".join([",".join(header),
                              *map(",".join, map(itemgetter(*header), rows)),
                              ""])
        except (KeyError, TypeError):
            pass
        else:
            lines = len(rows) + 1
            if ('"' not in text and "\r" not in text
                    and text.count("\n") == lines
                    and text.count(",") == lines * (len(header) - 1)):
                return text
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[col] for col in header])
    return buf.getvalue()


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def _table_parts(rows) -> list[str] | None:
    """The pieces of ``rows`` as ``_dumps`` lays them out one level deep,
    or None unless ``rows`` is a non-empty list of dicts that all have the
    first row's string keys and only ``str`` cells.

    One list holds every piece: for each row, a lead (comma, newline,
    indent, key) before each cell, then the row's closing brace.  Each
    column is filled by one slice assignment, so no per-row string is
    built and the per-cell loop runs in C.
    """
    if type(rows) is not list or not rows or set(map(type, rows)) != {dict}:
        return None
    first = rows[0]
    count, width = len(rows), len(first)
    if (not first or not all(type(key) is str for key in first)
            or set(map(len, rows)) != {width}):
        return None
    stride = 2 * width + 1
    parts = [""] * (count * stride)
    lead = "{\n      "
    for column, key in enumerate(sorted(first)):
        parts[2 * column::stride] = [lead + encode_basestring_ascii(key)
                                     + ": "] * count
        try:
            # a missing key or a non-str cell leaves the table to _dumps
            parts[2 * column + 1::stride] = map(
                encode_basestring_ascii, map(itemgetter(key), rows))
        except (KeyError, TypeError):
            return None
        lead = ",\n      "
    parts[stride - 1::stride] = ["\n    },\n    "] * count
    parts[0] = "[\n    " + parts[0]
    parts[-1] = "\n    }\n  ]"
    return parts


def _json_text(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)``, without the
    pure-Python encoder that ``indent`` selects for the output tables.

    A top-level table goes through ``_table_parts``; every other value is
    dumped on its own and indented one level, which is safe because JSON
    text holds no raw newline inside a string.
    """
    if (type(doc) is not dict or not doc
            or not all(type(key) is str for key in doc)):
        return _dumps(doc)
    parts = []
    lead = "{\n  "
    for key in sorted(doc):
        parts.append(lead + encode_basestring_ascii(key) + ": ")
        value = doc[key]
        table = _table_parts(value)
        if table is None:
            parts.append(_dumps(value).replace("\n", "\n  "))
        else:
            parts += table
        lead = ",\n  "
    parts.append("\n}")
    return "".join(parts)


def _emit(doc: dict, tables: list[tuple[str, list[str], list[dict]]],
          args) -> None:
    """Write the JSON document, or the CSV tables, to stdout or --out.

    Several CSV tables go to one sectioned stream on stdout; with --out
    the first table takes the named file and each further table gets the
    table name spliced in before the extension.
    """
    out = args.out
    if args.format == "json":
        text = _json_text(doc) + "\n"
        if out is None:
            sys.stdout.write(text)
        else:
            _write(Path(out), text)
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
        _write(target, _csv_text(header, rows))


def _write(path: Path, text: str) -> None:
    """Write an --out file; a path that cannot be written is bad input."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {str(path)!r}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args):
    """The expansion of x and its convergent rows.

    The ints p_n, q_n decide every check and sign; the big cells are
    printed from exact decimal copies of them, run through the same
    recurrence, since str() of an int is quadratic in its length and is
    refused past ``sys.get_int_max_str_digits()``.  The last two decimal
    pairs are checked against the int pairs before anything is returned:
    with every a_n >= 1, the recurrence run backwards carries that
    agreement to every index."""
    x = parse_x_spec(args.x)
    expansion = _numerator_pairs(x, args.numerators, args.len)
    cv = convergents(expansion)
    pairs = expansion.pairs()
    with localcontext(_EXACT):
        p_dec = _recurrence(pairs, Decimal(1), Decimal(0))
        q_dec = _recurrence(pairs, Decimal(0), Decimal(1))
        sign, product = 1, 1
        p_prev, q_prev = cv.pair(0)
        rows = []
        for n, (a, b) in enumerate(pairs, start=1):
            p, q = cv.pair(n)
            pd, qd = p_dec[n + 1], q_dec[n + 1]
            sign, product = -sign, product * a
            residual = p_prev * q - p * q_prev - sign * product
            if residual != 0:
                raise InvariantViolation(
                    f"determinant identity failed at index {n}")
            # the identity just checked makes every common divisor of p and
            # q divide the product a_1...a_n, so the gcd starts from it; the
            # decimal // is exact, g dividing both
            g = gcd(product, q, p)
            # margin = x - |q x - p| = (1 - s q) x + s p
            s = _affine_sign(x, q, p)
            rows.append({
                "n": str(n), "a": str(a), "b": str(b),
                "p": str(pd), "q": str(qd),
                "reduced": _rational_text(pd // g, qd // g),
                "det_residual": str(residual),
                "margin": _affine_text(x, _margin(x, q, p, s), 1 - s * qd,
                                       s * pd),
            })
            p_prev, q_prev = p, q
        for n in (len(rows) - 1, len(rows)):
            if (int(p_dec[n + 1]), int(q_dec[n + 1])) != cv.pair(n):
                raise InvariantViolation(
                    f"decimal convergents differ from the integer ones at "
                    f"index {n}")
    doc = {
        "x": to_text(x),
        "numerators": args.numerators,
        "length": len(expansion),
        "complete": expansion.is_complete(),
        "tail": to_text(expansion.tail),
        "pairs": [{"a": row["a"], "b": row["b"]} for row in rows],
        "convergents": rows,
    }
    header = ["n", "a", "b", "p", "q", "reduced", "det_residual", "margin"]
    return doc, [("expansion", header, rows)]


def cmd_classify(args):
    if (args.p is None) == (args.q is None):
        raise UsageError("give exactly one of --p or --q")
    x = parse_x_spec(args.x)
    x_text = to_text(x)
    if args.p is not None:
        low, high = _parse_range(args.p)
        # the sweep starts at p = 1: starting it at low would change what
        # the classify benchmark measures (ROADMAP.md, item 8)
        rows = [_text_row(row) for row in sweep_rows(
            x, x_text, high, oracle=args.oracle)
            if row["p"] >= low]
        header = ["x", "p", "q", "parity", "realizable", "witness", "cutoff"]
        mode = "p"
    else:
        low, high = _parse_range(args.q)
        rows = [_text_row(row) for row in sweep_q_rows(
            x, x_text, low, high, oracle=args.oracle)]
        header = ["x", "q", "p_even", "p_odd", "even_realizable", "witness",
                  "cutoff"]
        mode = "q"
    doc = {
        "x": x_text,
        "mode": mode,
        "range": [low, high],
        "oracle_checked": bool(args.oracle),
        "rows": rows,
    }
    return doc, [("candidates", header, rows)]


# the GrowthReport fields that simulate and growth both print, in order
_GROWTH_CELLS = ["estimate", "trend_slope", "oscillation", "reliable",
                 "truncated"]


def _growth_cells(report) -> dict:
    return {name: getattr(report, name) for name in _GROWTH_CELLS}


def cmd_simulate(args):
    y = parse_x_spec(args.y)
    n = args.n
    bits = bits_for_orbit_length(n)
    master = random.Random(args.seed)
    digests = []
    visits: Counter[tuple[int, int]] = Counter()
    partial = False
    for index in range(args.orbits):
        x0 = random_unit_rational(master, bits)
        record = orbit(x0, y, n)
        report = growth_exponent(x0, y, n, record=record)
        partial = partial or report.truncated
        visits.update(record.digits)
        digests.append(_text_row({
            "orbit": index,
            "seed": args.seed,
            "n": n,
            "steps": record.steps,
            **_growth_cells(report),
            "terminated_by": record.terminated_by,
        }))
    total = sum(visits.values())
    frequencies = [
        {"a": str(a), "b": str(b), "count": str(count),
         "frequency": str(Rational(count, total))}
        for (a, b), count in sorted(visits.items())
    ]
    doc = {
        "seed": args.seed,
        "orbits": args.orbits,
        "n": n,
        "seed_bits": bits,
        "y": to_text(y),
        "partial": partial,
        "digests": digests,
        "frequencies": frequencies,
    }
    digest_header = ["orbit", "seed", "n", "steps", *_GROWTH_CELLS,
                     "terminated_by"]
    freq_header = ["a", "b", "count", "frequency"]
    return doc, [("digests", digest_header, digests),
                 ("frequencies", freq_header, frequencies)]


def cmd_growth(args):
    y = parse_x_spec(args.y)
    n = args.n
    # the row below adds "n" as text, like every other row cell
    doc = {"y": to_text(y), "seed": args.seed}
    if args.x is not None:
        x0 = parse_x_spec(args.x)
        doc["x"] = to_text(x0)
    else:
        bits = bits_for_orbit_length(n)
        x0 = random_unit_rational(random.Random(args.seed), bits)
        doc["seed_bits"] = bits
    report = growth_exponent(x0, y, n)
    row = _text_row({
        "n": n,
        "steps": report.steps,
        **_growth_cells(report),
    })
    doc.update(row)
    return doc, [("growth", ["n", "steps", *_GROWTH_CELLS], [row])]


def cmd_yofx(args):
    rows = emit_y_scatter(args.family, args.grid, args.depth, n=args.numerator)
    # every grid point has a y, so every row is live
    min_y = min(Rational(int(row["y_num"]), int(row["y_den"])) for row in rows)
    doc = {
        "family": args.family,
        "grid": args.grid,
        "depth": args.depth,
        "live_rows": len(rows),
        "min_y": to_text(min_y),
        "rows": rows,
    }
    if args.numerator is not None:
        doc["n"] = args.numerator
    header = ["x_num", "x_den", "family", "depth", "digits_used",
              "y_num", "y_den", "skip", "residual"]
    return doc, [("scatter", header, rows)]


def cmd_rational(args):
    value = parse_x_spec(args.value)
    if not isinstance(value, Rational):
        raise UsageError("rational enumeration needs a rational value")
    expansions = enumerate_rational_expansions(value, length=args.len,
                                               text=True)
    sizes = [e.count(" ") + 1 for e in expansions]
    lengths = sorted(set(sizes))
    rows = [{
        "index": str(i),
        "length": str(size),
        "pairs": e,
    } for i, (e, size) in enumerate(zip(expansions[:args.limit], sizes))]
    doc = {
        "value": to_text(value),
        "count": len(expansions),
        "max_length": max(lengths) if lengths else 0,
        "lengths": lengths,
        "rows": rows,
    }
    header = ["index", "length", "pairs"]
    return doc, [("expansions", header, rows)]


# ---------------------------------------------------------------------------
# dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It holds no command
    function and no environment value: ``main`` finds ``cmd_<command>`` by
    name on every call, and ``_config_from`` reads the environment after
    parsing."""
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

    p = sub.add_parser("classify", parents=[common],
                       help="candidate/realizability table")
    p.add_argument("x", help="value spec")
    p.add_argument("--p", default=None, help="numerator range N or LO..HI")
    p.add_argument("--q", default=None, help="denominator range N or LO..HI")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the divisor criterion by brute force")

    p = sub.add_parser("simulate", parents=[common],
                       help="seeded joint-map orbits with digests and "
                            "cylinder frequencies")
    p.add_argument("--n", type=int, default=100,
                   help="orbit length (default 100)")
    p.add_argument("--orbits", type=int, default=1,
                   help="number of orbits (default 1)")
    p.add_argument("--y", default="golden",
                   help="y seed spec (default golden)")

    p = sub.add_parser("growth", parents=[common],
                       help="denominator growth-rate estimate of one orbit")
    p.add_argument("--y", default="golden",
                   help="y seed spec (default golden)")
    p.add_argument("--x", default=None,
                   help="explicit x seed (default: drawn from --seed)")
    p.add_argument("--n", type=int, default=100,
                   help="orbit length (default 100)")

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

    p = sub.add_parser("rational", parents=[common],
                       help="every complete expansion of a rational")
    p.add_argument("value", help='rational spec like "5/6"')
    p.add_argument("--len", type=int, default=None,
                   help="keep only expansions of exactly this length")
    p.add_argument("--limit", type=int, default=None,
                   help="print at most this many rows (summary stays exact)")
    return parser


def _config_from(args) -> None:
    """Range-check the count flags, then settle --seed, --format and --out
    in place: the flag, else its PROPCF_* variable, else the default."""
    for flag, dest, least in _COUNT_FLAGS:
        value = getattr(args, dest, None)
        if value is not None:
            _at_least(flag, value, least)
    args.seed = _env_or(args.seed, "PROPCF_SEED", 0, int)
    if not 0 <= args.seed < 1 << 64:
        raise UsageError("seed must fit in 64 bits")
    args.format = _env_or(args.format, "PROPCF_FORMAT", "json", str)
    if args.format not in ("json", "csv"):
        raise UsageError("format must be json or csv")
    args.out = _env_or(args.out, "PROPCF_OUT", None, str)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _config_from(args)
        doc, tables = globals()[f"cmd_{args.command}"](args)
        doc.update(schema=_SCHEMA, command=args.command)
        _emit(doc, tables, args)
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
