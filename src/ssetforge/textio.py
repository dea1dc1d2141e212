"""Line-oriented text formats for the five kinds of file we exchange.

A simplicial set is a list of `cell` lines, each naming its cell by a
non-negative integer id; a face entry is written as `<target>{j,...}`
where the braces hold the repeat set of the attached degeneracy, which
together with the declared dimensions pins the operator down.  The
braces list the repeat positions in ascending order, as they are
written, so every token reads back as the text it came from.  Maps
inline their source and target between `begin`/`end` fences followed by
`send` lines.  Posets list `el` and `lt` lines; monotone maps mirror the
simplicial layout.  A corpus manifest has at most one `seed` line (the
seed is 0 without one) and a `member <name> <provenance> <flag> <file>`
line per member: the provenance `builtin`, `random-quotient` or
`sd-image`, the flag `regular` or `singular`.  Every integer is ASCII
digits: a simplex token's cell id and repeat positions, and, after an
optional minus, a `cell` line's id and dimension, a `send` line's id and
a manifest's seed; no plus sign, underscore or other script's digit is
read.  `#` comments and blank lines are ignored everywhere.  Every
parser reports malformed text as a ParseError that names the line at
fault; a cell, an element, a `send`, a section, a seed or a member
declared a second time is malformed at its second line, and so is a
section other than `source` and `target` at its `begin`, a negative id
or dimension, a cell face or a `send` image whose degree disagrees with
the cell it names, and braces that list a position twice or out of
order.  A face that names a missing cell is a fault of the whole text.

Simplex tokens are read and written through per-operator caches: the
braces text of each degeneracy is built once, and the degeneracy that
each (braces text, degree) pair names is read once, so both caches grow
with the operators a process meets and never with cell ids.  A token
that fails to read leaves no entry, and raises at its own line each
time it is read.

Files are read and written as UTF-8 through ``parse_file`` and
``write_file``; a file that is not UTF-8 is a ParseError naming the line
of its first bad byte.
"""

from __future__ import annotations

import os
import re
import stat
from functools import lru_cache
from pathlib import Path

from .operators import Operator, degeneracy_from_repeats
from .posets import FinPoset, MonotoneMap
from .simplicial import Cell, Simplex, SimplicialMap, SimplicialSet

_PLAIN = re.compile(r"[A-Za-z0-9_.:+'-]+$")


class ParseError(ValueError):
    """Malformed input text.

    ``line`` is the 1-based source line at fault, or None when the text as
    a whole is: a missing section, or a presentation that parses but fails
    validation.  ``path`` names the file, for callers that read one.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
        self.path: str | None = None


def parse_file(path, parse):
    """``parse`` applied to the UTF-8 text of the file at ``path``; a
    ParseError it raises, or bytes that are not UTF-8, name the file."""
    data = Path(path).read_bytes()
    try:
        return parse(_decode(data))
    except ParseError as err:
        err.path = str(path)
        raise


def _decode(data: bytes) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as err:
        # the text before the bad byte is valid; the byte sits on the line
        # after its last line break, counted as the parsers count lines
        line = len((data[:err.start].decode() + "_").splitlines())
        bad = data[err.start]
        raise ParseError(f"byte 0x{bad:02x} is not UTF-8", line) from None


def write_file(path, text: str) -> None:
    """Write ``text`` as UTF-8 to the file at ``path``, replacing what it held.

    The file is overwritten in place: opened without truncation, written
    from offset 0, then cut to the written length if it is a regular file.
    The bytes, inode, mode, symlinks and hard links end as
    ``Path.write_text`` leaves them.  Neither write is atomic or durable:
    a reader racing this one, or a write cut short, may see new bytes
    followed by old ones, where a truncating write shows a prefix of the
    new bytes.  Truncating a file that holds data to zero first makes ext4
    (its replace-via-truncate heuristic) start writeback on close, which
    the next rewrite of the same file waits for.  An OSError names the file.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            # a device or a pipe cannot be truncated (EINVAL) and need not be
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as err:
        err.filename = os.fspath(path)
        raise


Rows = list[tuple[int, list[str]]]
Member = tuple[str, str, str, str]  # a manifest's name, provenance, flag and file


def _rows(text: str) -> Rows:
    """The non-blank lines with comments stripped, as (line number, tokens)."""
    rows = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((number, line.split()))
    return rows


def _unexpected(line: int, row: list[str]) -> ParseError:
    return ParseError(f"unexpected line {' '.join(row)!r}", line)


def _ascii_digits(tok: str) -> bool:
    """Whether tok is one or more ASCII digits: ``isdigit`` alone also
    takes other scripts' digits and superscripts, and ``int`` takes signs
    and underscores, none of which is written back as read."""
    return tok.isascii() and tok.isdigit()


def _int(tok: str, line: int) -> int:
    """The integer an ASCII ``-?[0-9]+`` token spells; anything else raises."""
    if not _ascii_digits(tok.removeprefix("-")):
        raise ParseError(f"expected an integer, got {tok!r}", line)
    return int(tok)


def _whole(build, *args, **kwargs):
    """``build(...)``, its validation error reported against the whole text."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        raise ParseError(str(err)) from None


@lru_cache(maxsize=None)
def _braces(degen: Operator) -> str:
    """The `{i,j,...}` text of a degeneracy: its repeat positions, ascending."""
    return "{" + ",".join(map(str, degen.repeats())) + "}"


def _simplex_token(cell: int, degen: Operator) -> str:
    return f"{cell}{_braces(degen)}"


class _TokenFault(ValueError):
    """A fault of a token's braces; its message is a template for the token."""


@lru_cache(maxsize=None)
def _read_braces(braces: str, degree: int) -> Operator:
    """The degeneracy out of [degree] whose repeat positions a `{i,j,...}`
    text lists, in ascending order.  A text that names none raises, and
    lru_cache keeps no entry for it."""
    inner = braces[1:-1]
    positions = inner.split(",") if inner else ()
    if braces[-1] != "}" or not all(map(_ascii_digits, positions)):
        raise _TokenFault("bad simplex token {!r}")
    reps = tuple(map(int, positions))
    if any(a >= b for a, b in zip(reps, reps[1:])):
        if len(set(reps)) != len(reps):
            raise _TokenFault("simplex token {!r} lists a repeat position twice")
        raise _TokenFault("simplex token {!r} lists its repeat positions out of order")
    return degeneracy_from_repeats(reps, degree)


def _parse_simplex(tok: str, degree: int, line: int) -> tuple[int, Operator]:
    """The (cell, degeneracy) pair a `<cell>{repeats}` token names, given its degree."""
    brace = tok.find("{")
    cell = tok[:brace]
    # brace == -1 leaves no braces
    if brace < 1 or not _ascii_digits(cell):
        raise ParseError(f"bad simplex token {tok!r}", line)
    try:
        return int(cell), _read_braces(tok[brace:], degree)
    except _TokenFault as err:
        raise ParseError(str(err).format(tok), line) from None
    except ValueError as err:
        raise ParseError(str(err), line) from None


# -- simplicial sets ----------------------------------------------------------


def format_sset(space: SimplicialSet) -> str:
    lines = []
    for cid in sorted(space.cells):
        cell = space.cells[cid]
        toks = [_simplex_token(t, d) for t, d in cell.faces]
        lines.append(" ".join(["cell", str(cid), str(cell.dim), *toks]))
    return "\n".join(lines) + "\n"


def parse_sset(text: str) -> SimplicialSet:
    return _parse_cells(_rows(text))


def _parse_cells(rows: Rows) -> SimplicialSet:
    cells: dict[int, Cell] = {}
    lines: dict[int, int] = {}
    for line, row in rows:
        if row[0] != "cell":
            raise _unexpected(line, row)
        if len(row) < 3:
            raise ParseError("a cell line needs an id and a dimension", line)
        cid, dim = _int(row[1], line), _int(row[2], line)
        if cid < 0:
            raise ParseError(f"cell {cid} has a negative id", line)
        if dim < 0:
            raise ParseError(f"cell {cid} has negative dimension", line)
        toks = row[3:]
        need = dim + 1 if dim else 0
        if len(toks) != need:
            raise ParseError(f"cell {cid} needs {need} faces, got {len(toks)}", line)
        if cid in cells:
            raise ParseError(f"cell {cid} declared twice", line)
        cells[cid] = Cell(dim, tuple(_parse_simplex(tok, dim - 1, line) for tok in toks))
        lines[cid] = line
    # a face's rank is checked at its line up to the first face that names
    # a missing cell, which is a fault of the whole text
    for cid, cell in cells.items():
        for i, (t, op) in enumerate(cell.faces):
            if t not in cells:
                return _whole(SimplicialSet, cells)
            if op.dst != cells[t].dim:
                raise ParseError(f"cell {cid} face {i} has mismatched ranks", lines[cid])
    return _whole(SimplicialSet, cells)


# -- simplicial maps ----------------------------------------------------------


def _sections(rows: Rows) -> tuple[Rows, Rows, Rows]:
    """The rows of the source and target sections, and the rows outside."""
    blocks: dict[str, Rows] = {}
    loose: Rows = []
    current: str | None = None
    opened = 0
    for line, row in rows:
        if row[0] == "begin":
            if current is not None:
                raise ParseError("nested begin", line)
            if len(row) != 2:
                raise ParseError("begin needs one section name", line)
            if row[1] not in ("source", "target"):
                raise ParseError(f"unknown section {row[1]!r}", line)
            if row[1] in blocks:
                raise ParseError(f"section {row[1]!r} declared twice", line)
            current, opened = row[1], line
            blocks[current] = []
        elif row[0] == "end":
            if current is None:
                raise ParseError("end without begin", line)
            if len(row) != 1:
                raise ParseError("end takes no section name", line)
            current = None
        elif current is not None:
            blocks[current].append((line, row))
        else:
            loose.append((line, row))
    if current is not None:
        raise ParseError(f"unterminated section {current!r}", opened)
    if "source" not in blocks or "target" not in blocks:
        raise ParseError("map needs source and target sections")
    return blocks["source"], blocks["target"], loose


def format_smap(f: SimplicialMap) -> str:
    out = ["begin source", format_sset(f.source).rstrip(), "end"]
    out += ["begin target", format_sset(f.target).rstrip(), "end"]
    for cid in sorted(f.assignment):
        s = f.assignment[cid]
        out.append(f"send {cid} {_simplex_token(s.cell, s.degen)}")
    return "\n".join(out) + "\n"


def parse_smap(text: str) -> SimplicialMap:
    source_rows, target_rows, loose = _sections(_rows(text))
    source = _parse_cells(source_rows)
    target = _parse_cells(target_rows)
    asg: dict[int, Simplex] = {}
    for line, row in loose:
        if row[0] != "send" or len(row) != 3:
            raise _unexpected(line, row)
        cid = _int(row[1], line)
        if cid not in source.cells:
            raise ParseError(f"cell {cid} is not in the source", line)
        if cid in asg:
            raise ParseError(f"cell {cid} sent twice", line)
        tcell, degen = _parse_simplex(row[2], source.cells[cid].dim, line)
        if tcell not in target.cells:
            raise ParseError(f"cell {tcell} is not in the target", line)
        if degen.dst != target.cells[tcell].dim:
            raise ParseError(f"cell {cid} sent to simplex of wrong degree", line)
        asg[cid] = Simplex(tcell, degen)
    return _whole(SimplicialMap, source, target, asg)


# -- posets and monotone maps -------------------------------------------------


def _element_tokens(p: FinPoset) -> dict:
    names = [str(e) for e in p.elements]
    if len(set(names)) == len(names) and all(_PLAIN.match(n) for n in names):
        return dict(zip(p.elements, names))
    return {e: f"e{i}" for i, e in enumerate(p.elements)}


def format_poset(p: FinPoset) -> str:
    toks = _element_tokens(p)
    lines = [f"el {toks[e]}" for e in p.elements]
    lines += sorted(f"lt {toks[a]} {toks[b]}" for a, b in p.strict_pairs())
    return "\n".join(lines) + "\n"


def parse_poset(text: str) -> FinPoset:
    return _parse_poset(_rows(text))


def _parse_poset(rows: Rows) -> FinPoset:
    elements: dict[str, None] = {}
    pairs: list[tuple[str, str]] = []
    for line, row in rows:
        if row[0] == "el" and len(row) == 2:
            if row[1] in elements:
                raise ParseError(f"element {row[1]!r} declared twice", line)
            elements[row[1]] = None
        elif row[0] == "lt" and len(row) == 3:
            pairs.append((row[1], row[2]))
        else:
            raise _unexpected(line, row)
    return _whole(FinPoset, elements, pairs)


def format_pmap(phi: MonotoneMap) -> str:
    stoks = _element_tokens(phi.source)
    ttoks = _element_tokens(phi.target)
    out = ["begin source", format_poset(phi.source).rstrip(), "end"]
    out += ["begin target", format_poset(phi.target).rstrip(), "end"]
    out += [f"send {stoks[e]} {ttoks[phi(e)]}" for e in phi.source.elements]
    return "\n".join(out) + "\n"


def parse_pmap(text: str) -> MonotoneMap:
    source_rows, target_rows, loose = _sections(_rows(text))
    source = _parse_poset(source_rows)
    target = _parse_poset(target_rows)
    mapping = {}
    for line, row in loose:
        if row[0] != "send" or len(row) != 3:
            raise _unexpected(line, row)
        _, a, b = row
        if a not in source:
            raise ParseError(f"{a!r} is not in the source", line)
        if a in mapping:
            raise ParseError(f"{a!r} sent twice", line)
        if b not in target:
            raise ParseError(f"{b!r} is not in the target", line)
        mapping[a] = b
    return _whole(MonotoneMap, source, target, mapping)


# -- corpus manifests ---------------------------------------------------------


def format_manifest(seed: int, members: list[Member]) -> str:
    lines = ["# corpus manifest", f"seed {seed}", *(" ".join(["member", *m]) for m in members)]
    return "\n".join(lines) + "\n"


def parse_manifest(text: str) -> tuple[int, list[tuple[int, Member]]]:
    """The seed (0 when no line sets it) and the members of a manifest,
    each with its line number."""
    seed = None
    members: dict[str, tuple[int, Member]] = {}
    for line, row in _rows(text):
        if row[0] == "seed" and len(row) == 2:
            if not _ascii_digits(row[1].removeprefix("-")):
                raise ParseError(f"expected an integer seed, got {row[1]!r}", line)
            if seed is not None:
                raise ParseError("seed declared twice", line)
            seed = int(row[1])
        elif row[0] == "member" and len(row) == 5:
            _, name, provenance, flag, _ = row
            if provenance not in ("builtin", "random-quotient", "sd-image"):
                raise ParseError("expected the provenance builtin, random-quotient or"
                                 f" sd-image, got {provenance!r}", line)
            if flag not in ("regular", "singular"):
                raise ParseError(f"expected the flag regular or singular, got {flag!r}", line)
            if name in members:
                raise ParseError(f"member {name} declared twice", line)
            members[name] = (line, tuple(row[1:]))
        elif row[0] == "seed":
            raise ParseError("a seed line needs one integer", line)
        elif row[0] == "member":
            raise ParseError("a member line needs a name, a provenance, a flag and a file", line)
        else:
            raise ParseError(f"unknown manifest line {' '.join(row)!r}", line)
    return seed or 0, list(members.values())
