"""The forge command line tool.

Spaces travel as .sset files, simplicial maps as .smap, and monotone
maps as .pmap, with their source and target posets inside; these are
plain text formats of textio.  ``forge verify <suite>`` runs a suite of
``verify.SUITES``, the counterexamples among them, prints a report tree
and exits nonzero on failures, so it works in shell pipelines and CI jobs.

Inputs are read as UTF-8.  Outputs are overwritten in place
(``textio.write_file``): the same bytes, file, mode and links as a
truncating rewrite leaves, and, like one, not atomic.

Exit codes: 0 success; 1 a failed verification; 2 no certified
desingularization, which only the explicit checks ``desing --method
zipper`` and ``--method oracle`` (above its ``--bound``, default 10) end
with, as the default method always certifies; 3 a malformed input file
(one that is not UTF-8 included, a corpus manifest whose regular or
singular flag disagrees with its member, and one whose member sd-X is
not sd of its member X), reported as one line
``forge: <file>:<line>: <message>`` on stderr, a file that cannot be
read or written, reported as ``forge: <file>: <reason>``, or a usage
error (an unknown command or option, a missing argument, a value of the
wrong type, ``desing --bound`` without ``--method oracle`` or below 0,
``verify --corpus`` with ``--seed``), reported as ``forge: <message>``.
``--help`` prints the usage and exits 0.

The argument parser is built once per process, on the first call of
``main``, and shared by every later call: ``parse_args`` returns a fresh
namespace each time and leaves the parser as it was, so calls stay
independent.  A request that names a subcommand is parsed once, by that
subcommand's own parser; the top-level parser takes the rest (no
argument, an unknown command, ``--help``) and reports them as usage
errors or prints the usage.  Either way a command line reads as the
top-level parser alone reads it, the ``command`` name aside.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .corpus import gen_corpus, load_corpus, save_corpus
from .cylinders import cylinder_reduction, dcr, injective_in_degree, surjective_in_degree
from .desingularize import (
    Certificate,
    desingularize,
    oracle_desingularize,
    zipper_desingularize,
)
from .posets import barratt
from .subdivision import b_nat, last_vertex, sd
from .textio import (
    ParseError,
    format_smap,
    format_sset,
    parse_file,
    parse_pmap,
    parse_sset,
    write_file,
)
from .verify import SUITES, format_report, run_suite


class UsageError(Exception):
    """A command line the parser rejects."""


class _Parser(argparse.ArgumentParser):
    # argparse would print the usage and exit 2, the code that means no
    # certified desingularization; main reports the message and exits 3
    def error(self, message: str):
        raise UsageError(message)


def _emit(text: str, out: str | None) -> None:
    if out:
        write_file(out, text)
    else:
        sys.stdout.write(text)


def _load_space(path: str):
    return parse_file(path, parse_sset)


def cmd_corpus(args) -> int:
    corpus = gen_corpus(args.seed)
    save_corpus(corpus, args.out)
    regular = sum(1 for e in corpus if e.regular)
    print(f"wrote {len(corpus)} members ({regular} regular) to {args.out}")
    return 0


def cmd_verify(args) -> int:
    if args.corpus:
        corpus = load_corpus(args.corpus)
    else:
        corpus = gen_corpus(0 if args.seed is None else args.seed)
    merged = run_suite(args.suite, corpus)
    _emit(format_report(merged, timings=args.timings), args.report)
    if args.report:
        print(f"{merged.count('pass')} pass, {merged.count('fail')} fail"
              f" -> {args.report}")
    return 0 if merged.ok else 1


def cmd_transform(args) -> int:
    _emit(args.format(args.build(_load_space(args.space))), args.out)
    return 0


def cmd_desing(args) -> int:
    if args.bound is not None:
        if args.method != "oracle":
            raise UsageError("argument --bound: only --method oracle takes a cell bound")
        if args.bound < 0:
            raise UsageError(f"argument --bound: a cell bound is at least 0, not {args.bound}")
    space = _load_space(args.space)
    if args.method == "zipper":
        res = zipper_desingularize(space)
    elif args.method == "oracle":
        try:
            if args.bound is None:
                res = oracle_desingularize(space)
            else:
                res = oracle_desingularize(space, args.bound)
        except ValueError as err:
            # above its cell bound the oracle certifies nothing
            print(f"certificate {Certificate.UNCERTIFIED.value}")
            print(f"error: {err}", file=sys.stderr)
            return 2
    else:
        res = desingularize(space)
    print(f"certificate {res.certificate.value}")
    if res.witness is not None:
        print(f"singular cell {res.witness}")
    print(f"cells {len(space.cells)} -> {len(res.quotient.cells)}")
    if args.out:
        write_file(args.out, format_sset(res.quotient))
    if args.emit_eta:
        write_file(args.emit_eta, format_smap(res.eta))
    return 0 if res.certificate is not Certificate.UNCERTIFIED else 2


def cmd_cylinder(args) -> int:
    b = cylinder_reduction(parse_file(args.phi, parse_pmap))
    if args.topological:
        _emit(format_sset(b.space), args.out)
    elif args.bundle:
        _emit(format_smap(b.reduction), args.out)
    else:
        _emit(format_sset(b.reduced), args.out)
    return 0


def cmd_dcr(args) -> int:
    g, res = dcr(parse_file(args.phi, parse_pmap))
    print(f"certificate {res.certificate.value}")
    print(f"cells {len(g.source.cells)} -> {len(g.target.cells)}")
    print("degree injective surjective")
    for q in range(max(g.source.dim, g.target.dim) + 1):
        inj = "yes" if injective_in_degree(g, q) else "no"
        sur = "yes" if surjective_in_degree(g, q) else "no"
        print(f"{q:6d} {inj:9s} {sur}")
    verdict = "isomorphism" if g.is_isomorphism() else "not-an-isomorphism"
    print(f"verdict {verdict}")
    return 0


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the table of its subcommands' parsers."""
    parser = _Parser(
        prog="forge",
        description="subdivide, desingularize, and verify finite simplicial sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="generate the verification corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(SUITES))
    source = p.add_mutually_exclusive_group()
    source.add_argument("--corpus", help="directory written by forge corpus")
    source.add_argument("--seed", type=int, help="generate the corpus of this seed "
                        "instead (default 0)")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument("--timings", action="store_true", help="include per-case seconds")
    p.set_defaults(fn=cmd_verify)

    for name, build, fmt, outhelp in [
        ("sd", sd, format_sset, "subdivided space (.sset)"),
        ("barratt", barratt, format_sset, "nerve of the cell poset (.sset)"),
        ("bnat", b_nat, format_smap, "comparison from the subdivision (.smap)"),
        ("lastvertex", last_vertex, format_smap, "last vertex map (.smap)"),
    ]:
        p = sub.add_parser(name)
        p.add_argument("space", help="input space (.sset)")
        p.add_argument("-o", "--out", help=outhelp)
        p.set_defaults(fn=cmd_transform, build=build, format=fmt)

    p = sub.add_parser("desing", help="desingularize a space")
    p.add_argument("space", help="input space (.sset)")
    p.add_argument("--method", choices=["auto", "zipper", "oracle"], default="auto")
    p.add_argument("--bound", type=int,
                   help="cell bound of --method oracle, at least 0 (default 10)")
    p.add_argument("-o", "--out", help="desingularized space (.sset)")
    p.add_argument("--emit-eta", help="projection onto the quotient (.smap)")
    p.set_defaults(fn=cmd_desing)

    p = sub.add_parser("cylinder", help="cylinder of a monotone map")
    p.add_argument("phi", help="monotone map (.pmap)")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--reduced", action="store_true", help="reduced cylinder (default)")
    kind.add_argument("--topological", action="store_true", help="unreduced cylinder")
    kind.add_argument("--bundle", action="store_true", help="the reduction map (.smap)")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_cylinder)

    p = sub.add_parser("dcr", help="desingularized cylinder reduction verdict")
    p.add_argument("phi", help="monotone map (.pmap)")
    p.set_defaults(fn=cmd_dcr)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser()
    try:
        # a named command's parser reads the rest; anything else (no
        # argument, an unknown command, --help) goes to the top-level one
        command = commands.get(argv[0]) if argv else None
        args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
        return args.fn(args)
    except UsageError as err:
        print(f"forge: {err}", file=sys.stderr)
        return 3
    except ParseError as err:
        where = err.path if err.line is None else f"{err.path}:{err.line}"
        print(f"forge: {where}: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        where = "" if err.filename is None else f"{err.filename}: "
        print(f"forge: {where}{err.strerror or err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
