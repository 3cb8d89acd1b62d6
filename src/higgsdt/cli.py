"""Command line interface.

Subcommands:
  compute     invariant table for one curve (text, json, csv or latex)
  verify      run the self-check suites
  oracle-p1   finite-field count on the line vs the formula
  specialize  exact values at a curve over F_q given by its L-polynomial

compute takes IDT_r on Weil orbit representatives (`dt.idt_orbits`), sets
t = 1 on them and expands each once before it writes a byte; the volume is a
shift of the t = 1 value.  _pairs sorts and formats each printed polynomial
once, and every format is a template over those pairs, written rank by rank.

Exit status: 0 on success, 1 when a verification or comparison fails or
stdout is closed before the output is written (no traceback), 2 on usage
errors and on rejected input values.  A rejected value (a bad curve or
twist, an exponent out of range, an unknown suite) is reported in exactly
one stderr line, "higgsdt <command>: error: <reason>"; argparse's own usage
errors keep argparse's form, with the usage line.
"""

import argparse
import os
import sys

from .algebra import ExponentRangeError
from .dt import CurveParams, idt_orbits, moduli_volume, omega
from .oracle_p1 import SUPPORTED_Q, compare_with_formula
from .weil import weil_table
from .zeta import ZetaData, specialize_integer

SCHEMA_VERSION = 1


def _pairs(poly, latex=False):
    """(monomial, str(coefficient)) of each term of poly, leading term first;
    compute sorts and formats nowhere else.  The keys are distinct, so sorting
    them alone gives the term order.  Equal coefficients share one string."""
    table, keys = poly.table, sorted(poly.terms, reverse=True)
    # in latex q and t keep their names; a_i and z_i become \alpha_{i}, \z_{i}
    names = [nm if len(nm) == 1 or not latex
             else "\\%s_{%s}" % ("alpha" if nm[0] == "a" else "z", nm[1:])
             for nm in table.names]
    monos = table.format_monomials(keys, names, "%s^{%d}" if latex else "%s^%d")
    text = {c: str(c) for c in set(poly.terms.values())}
    return [(m, text[poly.terms[e]]) for m, e in zip(monos, keys)]


def poly_pairs(poly):
    """Deterministic [monomial string, coefficient string] pairs, as in json."""
    return [[m, c] for m, c in _pairs(poly)]


def _line(pairs, sep):
    """The signed sum of pairs on one line, "0" if empty; sep goes between a
    coefficient other than 1 and its monomial."""
    out, signs = [], ("", "-")  # the leading term: no "+", no space after "-"
    for mono, c in pairs:
        mag = c.lstrip("-")
        body = mag if mono == "1" else mono if mag == "1" else mag + sep + mono
        out.append(signs[c[0] == "-"] + body)
        signs = ("+ ", "- ")
    return " ".join(out) or "0"


def _json_list(pairs):
    """json.dumps(pairs, indent=2) at the depth of a rank's fields.  No string
    needs escaping: a monomial is "1" or names q, t, a<i>, z<i> with "^<int>"
    exponents, joined by spaces, and a coefficient is str() of an int, so
    neither holds '"', '\\' or a control or non-ASCII character, the only
    characters json.dumps escapes."""
    pair = '\n        [\n          "%s",\n          "%s"\n        ]'
    return "[%s\n      ]" % ",".join(pair % p for p in pairs) if pairs else "[]"


# compute --format json up to its first rank, then one rank
_JSON_HEAD = ('{\n  "schema_version": %d,\n  "params": {\n    "genus": %d,\n'
              '    "ell": %d,\n    "mode": "%s",\n    "rmax": %d\n  },\n  "results": [')
_JSON_RANK = """
    {
      "r": %d,
      "idt": %s,
      "idt_t1": %s,
      "omega": {
        "sign": %d,
        "half_power_exponent": %d,
        "poly": %s
      },
      "volume": %s
    }"""
_TEXT_RANK = """rank %d
  invariant      %s
  at t = 1       %s
  weighted       q^(%d/2) * [%s]
  %s
"""


def _refuse(args, reason):
    """The one way out for a rejected input value: one stderr line
    "higgsdt <command>: error: <reason>" and exit status 2 (SystemExit, as
    argparse's own errors), without the usage line."""
    args.parser.exit(2, "%s: error: %s\n" % (args.parser.prog, reason))


def _curve(args, genus, ell_default):
    """The CurveParams of --canonical and --ell at genus.  In twisted mode a
    missing --ell is ell_default, or refused if that is None."""
    ell = ell_default if args.ell is None else args.ell
    if not args.canonical and ell is None:
        _refuse(args, "--ell is required in twisted mode")
    try:
        cp = (CurveParams(genus=genus, ell=2 * genus - 2, mode="canonical")
              if args.canonical else CurveParams(genus=genus, ell=ell))
    except ValueError as e:
        _refuse(args, e)
    if args.ell is not None and args.ell != cp.ell:
        _refuse(args, "canonical twist degree is fixed at 2g - 2 = %d" % cp.ell)
    return cp


def _rank_bound(text):
    """--rmax: a nonnegative int (0 gives an empty table)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer, got %r" % text)
    return value


def _cmd_compute(args):
    cp = _curve(args, args.genus, None)
    canonical = cp.mode == "canonical"
    rows = []   # per rank: r, IDT_r, its t = 1 value, omega, volume (None if canonical)
    wt, wq = weil_table(cp.genus), weil_table(cp.genus, "q")
    try:
        reps = idt_orbits(cp, args.rmax) if args.rmax >= 1 else {}
        for r in sorted(reps):
            # t = 1 is taken on the representatives and each is expanded once;
            # t1 is t-free, so omega and moduli_volume substitute nothing again
            t1 = wq.expand(wt.at_t_one(reps[r]))
            rows.append((r, wt.expand(reps[r]), t1, omega(cp, r, idt_poly=t1),
                         None if canonical else moduli_volume(cp, r, 1, idt_poly=t1)))
    except ExponentRangeError as e:
        _refuse(args, e)

    # one rank at a time; the t = 1 pairs also serve omega's body and A
    write = sys.stdout.write
    if args.format == "json":
        write(_JSON_HEAD % (SCHEMA_VERSION, cp.genus, cp.ell, cp.mode, args.rmax))
        for i, (r, idt, t1, hp, volume) in enumerate(rows):
            t1_text = _json_list(_pairs(t1))
            last = ('null,\n      "A": ' + t1_text if canonical
                    else _json_list(_pairs(volume)))
            write(("," if i else "") + _JSON_RANK % (
                r, _json_list(_pairs(idt)), t1_text, hp.sign, hp.half,
                t1_text.replace("\n", "\n  "), last))
        write("\n  ]\n}\n" if rows else "]\n}\n")
        return 0

    if args.format == "csv":
        write("r,field,monomial,coefficient\n")
        for r, idt, t1, _, volume in rows:
            for field, poly in (("idt", idt), ("idt_t1", t1), ("volume", volume)):
                if poly is not None:
                    write("".join("%d,%s,%s,%s\n" % (r, field, m, c)
                                  for m, c in _pairs(poly)))
        return 0

    latex = args.format == "latex"
    sep = " \\, " if latex else " "
    write("curve: genus %d, twist degree %d, %s mode\n" % (cp.genus, cp.ell, cp.mode))
    for r, idt, t1, hp, volume in rows:
        t1_line = _line(_pairs(t1, latex), sep)
        last = ("A value        " + t1_line if canonical
                else "volume (d=1)   " + _line(_pairs(volume, latex), sep))
        write(_TEXT_RANK % (r, _line(_pairs(idt, latex), sep), t1_line, hp.half,
                            t1_line, last))
    if not rows:
        write("(empty table: rmax = %d)\n" % args.rmax)
    return 0


def _cmd_verify(args):
    # imported here: the suites are compiled and registered only for verify
    from .verify import SUITES, run_suites_timed
    if args.list:
        for name in SUITES:
            print("%-14s %s" % (name, SUITES[name][0]))
        return 0
    try:
        results, failures, seconds, memo = run_suites_timed(args.suite or None)
    except KeyError as e:
        _refuse(args, e.args[0])
    for r in results:
        tag = "PASS" if r.ok is True else ("FAIL" if r.ok is False else "INFO")
        line = "%s  [%s] %s" % (tag, r.suite, r.label)
        if r.detail:
            line += "  (%s)" % r.detail
        print(line)
    if args.timings:
        for name, wall in seconds:
            print("TIME  [%s] %.3f s" % (name, wall), file=sys.stderr)
        print("SHARED  idt tables built %d, served %d; terms built %d, served %d"
              % (memo.tables_built, memo.tables_served, memo.terms_built,
                 memo.terms_served), file=sys.stderr)
    checked = sum(1 for r in results if r.ok is not None)
    print("%d checks, %d failed" % (checked, failures), file=sys.stderr)
    return 1 if failures else 0


def _cmd_oracle(args):
    try:
        count, formula, equal = compare_with_formula(args.rank, args.deg,
                                                     args.ell, args.q)
    except (ValueError, NotImplementedError) as e:
        _refuse(args, e)
    print("groupoid count   %s" % count)
    print("formula value    %s" % formula)
    print("MATCH" if equal else "MISMATCH")
    return 0 if equal else 1


def _cmd_specialize(args):
    try:
        zd = (ZetaData.from_trace(args.q0, args.trace) if args.lpoly is None
              else ZetaData.from_lpoly(args.q0, args.lpoly))
    except ValueError as e:
        _refuse(args, e)
    cp = _curve(args, zd.genus, 1)
    try:
        reps = idt_orbits(cp, args.rmax)
    except ExponentRangeError as e:
        _refuse(args, e)
    print("curve over F_%d with point counts %s" % (args.q0, zd.point_counts(3)))
    wt = weil_table(cp.genus)
    for r in sorted(reps):
        val = specialize_integer(wt.at_t_one(reps[r]), zd)
        print("rank %d value at t = 1: %d" % (r, val))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="higgsdt",
        description="Exact invariants of twisted Higgs bundles on a curve.")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="invariant table for one curve")
    pc.add_argument("--genus", type=int, required=True)
    pc.add_argument("--ell", type=int, default=None,
                    help="twist degree (required unless --canonical)")
    pc.add_argument("--canonical", action="store_true",
                    help="canonical twist 2g - 2 instead of a positive twist")
    pc.add_argument("--rmax", type=_rank_bound, default=6, help="largest rank computed")
    pc.add_argument("--format", choices=("text", "json", "csv", "latex"),
                    default="text")
    pc.set_defaults(fn=_cmd_compute, parser=pc)

    pv = sub.add_parser("verify", help="run the self-check suites")
    pv.add_argument("--suite", action="append",
                    help="suite name, repeatable (default: all)")
    pv.add_argument("--list", action="store_true", help="list suites and exit")
    pv.add_argument("--timings", action="store_true",
                    help="write each suite's wall seconds, and what the "
                         "run built and shared, to stderr")
    pv.set_defaults(fn=_cmd_verify, parser=pv)

    po = sub.add_parser("oracle-p1",
                        help="closed-form semistable count over F_q on the line "
                             "vs the formula")
    po.add_argument("--rank", type=int, required=True, choices=(1, 2))
    po.add_argument("--deg", type=int, required=True)
    po.add_argument("--ell", type=int, required=True)
    po.add_argument("--q", type=int, required=True, choices=SUPPORTED_Q)
    po.set_defaults(fn=_cmd_oracle, parser=po)

    ps = sub.add_parser("specialize",
                        help="exact invariants of a curve over F_q0")
    ps.add_argument("--q0", type=int, required=True, help="base field size")
    curve = ps.add_mutually_exclusive_group(required=True)
    curve.add_argument("--trace", type=int,
                       help="genus-1 Frobenius trace (Hasse bound enforced)")
    curve.add_argument("--lpoly", type=int, nargs="+", metavar="C",
                       help="L-polynomial coefficients c_1 .. c_g of a genus-g "
                            "curve, e.g. '-1' for the genus-1 curve of trace 1")
    ps.add_argument("--ell", type=int, default=None,
                    help="twist degree (default 1; with --canonical only 2g - 2)")
    ps.add_argument("--canonical", action="store_true")
    ps.add_argument("--rmax", type=_rank_bound, default=2)
    ps.set_defaults(fn=_cmd_specialize, parser=ps)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed: point it at devnull, so that the flush at exit
        # cannot fail again, and exit 1 as Python does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
