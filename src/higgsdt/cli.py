"""Command line interface.

Subcommands:
  compute     invariant table for one curve (text, json, csv or latex)
  verify      run the self-check suites
  oracle-p1   finite-field count on the line vs the formula
  specialize  exact values at a curve over F_q given by its L-polynomial

compute takes IDT_r on Weil orbit representatives (`dt.idt_orbits`), sets
t = 1 on them and shifts that into the volume, all slice by slice, and
never builds a whole polynomial: `VarTable.format_terms` walks each printed
polynomial's representatives and their image offsets (`orbit_groups`) in
print order and hands over the monomial and coefficient texts one (q, t)
bucket at a time.  Every format is a template over those texts, written
piece by piece, so neither a rank's text nor the term strings of a whole
polynomial are held at once.

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


def _formatter(table, latex=False):
    """pieces(groups): `VarTable.format_terms` of table in the style of the
    output; compute sorts and formats terms nowhere else."""
    # in latex q and t keep their names; a_i and z_i become \alpha_{i}, \z_{i}
    names = [nm if len(nm) == 1 or not latex
             else "\\%s_{%s}" % ("alpha" if nm[0] == "a" else "z", nm[1:])
             for nm in table.names]
    power = "%s^{%d}" if latex else "%s^%d"
    return lambda groups: table.format_terms(groups, names, power)


def poly_pairs(poly):
    """Deterministic [monomial string, coefficient string] pairs, as in json,
    of a whole polynomial or of one held on Weil representatives."""
    table = poly.table
    return [[m, c] for monos, coeffs in _formatter(table)(table.orbit_groups(poly))
            for m, c in zip(monos, coeffs)]


def _fill(write, template, fields, put):
    """Write template with the i-th field of fields at its i-th NUL, written
    by put(field, line), line the template's text before it on its line."""
    texts = template.split("\0")
    for text, field in zip(texts, fields):
        write(text)
        put(field, text[text.rfind("\n") + 1:])
    write(texts[-1])


def _line(write, pieces, sep):
    """The signed sum of the terms of pieces on one line, "0" if none; sep
    goes between a coefficient other than 1 and its monomial."""
    signs, gap = ("", "-"), ""  # the leading term: no "+", no space after "-"
    for monos, coeffs in pieces:
        out = []
        for mono, c in zip(monos, coeffs):
            mag = c.lstrip("-")
            body = mag if mono == "1" else mono if mag == "1" else mag + sep + mono
            out.append(signs[c[0] == "-"] + body)
            signs = ("+ ", "- ")
        write(gap + " ".join(out))
        gap = " "
    if not gap:
        write("0")


def _json_list(write, pieces, line):
    """json.dumps(pairs, indent=2) of the [monomial, coefficient] pairs of
    pieces, as the value of a key on a line indented like line.  No string
    needs escaping: a monomial is "1" or names q, t, a<i>, z<i> with "^<int>"
    exponents, joined by spaces, and a coefficient is str() of an int, so
    neither holds '"', '\\' or a control or non-ASCII character, the only
    characters json.dumps escapes."""
    pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
    head, mid, tail = pad + '  [' + pad + '    "', '",' + pad + '    "', '"' + pad + '  ]'
    sep = "["
    for monos, coeffs in pieces:
        # head m_1 mid c_1 tail,head m_2 mid c_2 ... tail, in one join
        frags = [tail + "," + head, None, mid, None] * len(monos)
        frags[0] = sep + head
        frags[1::4], frags[3::4] = monos, coeffs
        write("".join(frags) + tail)
        sep = ","
    write("[]" if sep == "[" else pad + "]")


# compute --format json up to its first rank, then one rank, and a rank in
# text and latex; each NUL is where `_fill` puts a polynomial
_JSON_HEAD = ('{\n  "schema_version": %d,\n  "params": {\n    "genus": %d,\n'
              '    "ell": %d,\n    "mode": "%s",\n    "rmax": %d\n  },\n  "results": [')
_JSON_RANK = """%s
    {
      "r": %d,
      "idt": \0,
      "idt_t1": \0,
      "omega": {
        "sign": %d,
        "half_power_exponent": %d,
        "poly": \0
      },
      "volume": %s\0
    }"""
_TEXT_RANK = """rank %d
  invariant      \0
  at t = 1       \0
  weighted       q^(%d/2) * [\0]
  %s\0
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
    wt = weil_table(cp.genus)
    # per rank: r, omega, and the orbit groups of IDT_r, of its t = 1 value
    # and of the rank's last polynomial: the volume, or if canonical the
    # t = 1 value again, as A
    rows = []
    try:
        reps = idt_orbits(cp, args.rmax) if args.rmax >= 1 else {}
        for r, idt in reps.items():
            # t = 1 and the volume's q-shift act on the representatives slice
            # by slice; t1 is t-free, so omega and moduli_volume substitute
            # nothing again.  orbit_groups range-checks every image, so a
            # refusal comes before a byte is written.
            t1 = wt.at_t_one(idt)
            end = t1 if canonical else moduli_volume(cp, r, 1, idt_poly=t1)
            rows.append((r, omega(cp, r, idt_poly=t1),
                         *(p.table.orbit_groups(p) for p in (idt, t1, end))))
    except ExponentRangeError as e:
        _refuse(args, e)

    # one rank at a time, each polynomial one bucket of terms at a time
    write = sys.stdout.write
    terms = _formatter(wt, args.format == "latex")
    if args.format == "json":
        write(_JSON_HEAD % (SCHEMA_VERSION, cp.genus, cp.ell, cp.mode, args.rmax))
        lead = 'null,\n      "A": ' if canonical else ""
        for i, (r, hp, idt, t1, end) in enumerate(rows):
            _fill(write, _JSON_RANK % ("," if i else "", r, hp.sign, hp.half, lead),
                  (idt, t1, t1, end), lambda g, line: _json_list(write, terms(g), line))
        write("\n  ]\n}\n" if rows else "]\n}\n")
        return 0

    if args.format == "csv":
        write("r,field,monomial,coefficient\n")
        # canonical: no volume field, and A is not repeated
        fields = ("idt", "idt_t1") if canonical else ("idt", "idt_t1", "volume")
        for r, _, *groups in rows:
            for field, g in zip(fields, groups):
                head = "%d,%s," % (r, field)
                for monos, coeffs in terms(g):
                    frags = [head, None, ",", None, "\n"] * len(monos)
                    frags[1::5], frags[3::5] = monos, coeffs
                    write("".join(frags))
        return 0

    sep = " \\, " if args.format == "latex" else " "
    lead = "A value        " if canonical else "volume (d=1)   "
    write("curve: genus %d, twist degree %d, %s mode\n" % (cp.genus, cp.ell, cp.mode))
    for r, hp, idt, t1, end in rows:
        _fill(write, _TEXT_RANK % (r, hp.half, lead), (idt, t1, t1, end),
              lambda g, line: _line(write, terms(g), sep))
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
    for r in reps:
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
