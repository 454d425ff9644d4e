"""Command-line front end: enumerate, multiply, giambelli, presentation, gysin.

Schubert classes are addressed either by minimized word ("3,2,1"), by a
length.index pair ("4.2"), or by "wN" as shorthand for the one-letter word
(N,).  Exit codes: 1 = could not parse the invocation, 2 = a mathematical
precondition failed (bad node, degree mismatch, class not in the table) or
the cache path is unusable, 3 = a resource cap was exceeded or memory ran
out (a ``MemoryError``: one line on stderr, nothing on stdout).

Coset tables are cached under --cache-dir; without the flag nothing is
persisted, so the arguments alone decide a run.  A cache file holds the
lex-least-word tree of a full enumeration (see ``CosetTable.save_binary``).
A warm run enumerates once, held to --max-elements, and accepts the file
only if it is byte for byte what a cold run writes
(``CosetTable.load_binary``); any other file is a domain error.  All output
is deterministic for fixed inputs, so repeated runs (cached or not) emit
byte-identical JSON.  JSON output is ``json.dumps(result, indent=1,
sort_keys=True)`` to the byte, written one top-level value at a time by
``_write_json``.  The ``enumerate`` listing is rendered from the table's
tree, one chunk per level in JSON: the text of each class's word is its
letter's text followed by its parent's text, so no word is joined letter
by letter (``_word_texts``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .cartan import LieType
from .characteristics import SchubertClass, expand_product
from .cohomology import (
    minimal_generators,
    minimal_relations,
    giambelli,
    gysin_analysis,
)
from .weyl import (
    DEFAULT_MAX_ELEMENTS,
    CosetTable,
    EnumerationLimit,
    enumerate_cosets,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3

COMMANDS = ("enumerate", "multiply", "giambelli", "presentation", "gysin")
FORMATS = ("json", "table", "text")

_WORD_TOKEN = re.compile(r"\d+(,\d+)*$")
_PAIR_TOKEN = re.compile(r"(\d+)\.(\d+)$")
_SHORT_TOKEN = re.compile(r"[wW](\d+)$")


class CliParseError(ValueError):
    """Invocation that cannot be interpreted (exit code 1)."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliParseError(message)


@dataclass(frozen=True)
class JobSpec:
    """One validated CLI job; `run` executes it."""

    command: str
    lie_type: LieType
    K: tuple[int, ...]
    arguments: tuple[str, ...] = ()
    fmt: str = "json"
    degree: int | None = None
    cache_dir: Path | None = None
    max_elements: int = DEFAULT_MAX_ELEMENTS

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise CliParseError(f"unknown command {self.command!r}")
        if self.fmt not in FORMATS:
            raise CliParseError(f"unknown format {self.fmt!r}")
        if self.max_elements < 1:
            raise CliParseError("--max-elements must be at least 1")
        n = self.lie_type.rank
        for node in self.K:
            if not 1 <= node <= n:
                raise ValueError(f"node {node} outside 1..{n} for {self.lie_type}")
        if len(set(self.K)) != len(self.K):
            raise CliParseError(f"repeated node in K={list(self.K)}")
        if self.command == "multiply" and not self.arguments:
            raise CliParseError("multiply needs at least one class argument")
        if self.command in ("giambelli", "gysin") and self.degree is None:
            raise CliParseError(f"{self.command} needs --degree")
        if self.command == "gysin" and len(self.K) != 1:
            raise CliParseError("gysin needs a single excluded node (--K i)")
        if self.degree is not None and self.degree < 0:
            raise CliParseError("--degree must be nonnegative")


def parse_node_list(text: str, rank: int) -> tuple[int, ...]:
    """Parse "--K 1,3"; "all" or "" gives every node (full flag)."""
    body = text.strip()
    if body.lower() in ("", "all"):
        return tuple(range(1, rank + 1))
    try:
        return tuple(int(p) for p in body.split(","))
    except ValueError:
        raise CliParseError(f"cannot parse node list {text!r}") from None


def parse_class_token(table: CosetTable, token: str) -> SchubertClass:
    """Resolve "3,2,1" / "4.2" / "w3" against the table (domain errors).

    A pair resolves through ``CosetTable.element`` and a word through
    ``CosetTable.class_of_word``; their ValueError or KeyError becomes a
    ValueError prefixed with the token.
    """
    tok = token.strip()
    short, pair = _SHORT_TOKEN.match(tok), _PAIR_TOKEN.match(tok)
    try:
        if short:
            return SchubertClass(*table.class_of_word((int(short.group(1)),)))
        if pair:
            r, i = (int(g) for g in pair.groups())
            table.element(r, i)  # raises KeyError when absent
            return SchubertClass(r, i)
        if _WORD_TOKEN.match(tok):
            return SchubertClass(*table.class_of_word(int(p) for p in tok.split(",")))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{token!r}: {exc.args[0]}") from None
    raise CliParseError(
        f"cannot parse class {token!r} (use a word '3,2,1', a pair '4.2', or 'wN')"
    )


def _cache_path(cache_dir: Path, lie_type: LieType, K) -> Path:
    return cache_dir / f"{lie_type}-K{'_'.join(str(k) for k in sorted(K))}.json"


def load_table(spec: JobSpec) -> CosetTable:
    """Enumerate (or load from cache) the coset table of the job."""
    path = None
    if spec.cache_dir is not None:
        path = _cache_path(spec.cache_dir, spec.lie_type, spec.K)
        if path.exists():
            return CosetTable.load_binary(
                path, spec.lie_type, spec.K, max_elements=spec.max_elements
            )
    table = enumerate_cosets(spec.lie_type, spec.K, max_elements=spec.max_elements)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        table.save_binary(path)
    return table


# -- per-command execution -----------------------------------------------------


def _class_obj(table: CosetTable, cls: SchubertClass) -> dict:
    return {
        "r": cls.r,
        "i": cls.i,
        "word": list(table.element(cls.r, cls.i).word),
    }


# Items of the "elements" list of ``enumerate`` as ``json.dumps(...,
# indent=1)`` writes them: the identity (level 0) opens the list, and each
# class follows its predecessor.
_IDENTITY_JSON = '[\n  {\n   "i": 1,\n   "r": 0,\n   "word": []\n  }'
_ELEMENT_JSON = ',\n  {{\n   "i": {},\n   "r": {},\n   "word": [\n    {}\n   ]\n  }}'


def _word_texts(table: CosetTable, sep: str):
    """The word text of each class, letters joined by `sep`, one list per level.

    Class (r, i) is sigma_a times class (r-1, p) in ``table.tree``, and its
    lex-least word is a followed by the parent's word, so its text is one
    concatenation of the letter's text and the parent's.  Level 0 (the
    identity) is the empty text and level 1 the letter alone.
    """
    letters = [str(a) for a in range(table.lie_type.rank + 1)]
    heads = [a + sep for a in letters]
    texts = [""]
    yield texts
    for r, flat in enumerate(table.tree, start=1):
        if r == 1:
            texts = [letters[a] for a in flat[::2]]
        else:
            texts = [heads[a] + texts[p - 1] for a, p in zip(flat[::2], flat[1::2])]
        yield texts


def _run_enumerate(spec: JobSpec, table: CosetTable):
    """The listing of every class, rendered from ``table.tree``.

    The JSON listing is one chunk per level, so no string of the whole
    listing is built.
    """
    if spec.fmt == "json":
        fmt = _ELEMENT_JSON.format
        chunks = [_IDENTITY_JSON]
        words = _word_texts(table, ",\n    ")
        next(words)  # the identity opens the list
        for r, texts in enumerate(words, start=1):
            chunks.append("".join([fmt(i, r, w) for i, w in enumerate(texts, start=1)]))
        chunks.append("\n ]")
        return {
            "lie_type": str(table.lie_type),
            "K": sorted(table.K),
            "complete": table.complete,
            "max_length": table.max_length,
            "beta": list(table.betti),
            "count": table.total,
            "elements": _Rendered(chunks),
        }
    rows = [
        (str(r), str(i), w or "-")
        for r, texts in enumerate(_word_texts(table, ","))
        for i, w in enumerate(texts, start=1)
    ]
    if spec.fmt == "table":
        return _columns(["r", "i", "word"], rows)
    lines = [f"{table.lie_type} K={sorted(table.K)}: {table.total} classes"]
    lines += [f"  s[{r},{i}] = [{w}]" for r, i, w in rows]
    return "\n".join(lines)


def _run_multiply(spec: JobSpec, table: CosetTable):
    factors = [parse_class_token(table, tok) for tok in spec.arguments]
    exp = expand_product(table, factors)
    if spec.fmt == "json":
        return {
            "lie_type": str(spec.lie_type),
            "K": sorted(spec.K),
            "factors": [_class_obj(table, f) for f in factors],
            "degree": exp.degree,
            "terms": [
                {**_class_obj(table, c), "coeff": v} for c, v in exp.items()
            ],
        }
    rows = [
        (str(c.r), str(c.i), str(v), ",".join(map(str, table.element(c.r, c.i).word)))
        for c, v in exp.items()
    ]
    if spec.fmt == "table":
        return _columns(["r", "i", "coeff", "word"], rows)
    return str(exp)


def _run_giambelli(spec: JobSpec, table: CosetTable):
    gens = minimal_generators(table, up_to=spec.degree)
    polys = giambelli(table, gens, spec.degree)
    entries = [
        {**_class_obj(table, SchubertClass(spec.degree, j)), "polynomial": str(p)}
        for j, p in enumerate(polys, start=1)
    ]
    if spec.fmt == "json":
        return {
            "lie_type": str(spec.lie_type),
            "K": sorted(spec.K),
            "degree": spec.degree,
            "generators": [{"name": g.name, "degree": g.degree} for g in gens],
            "classes": entries,
        }
    rows = [(str(e["r"]), str(e["i"]), e["polynomial"]) for e in entries]
    if spec.fmt == "table":
        return _columns(["r", "i", "polynomial"], rows)
    return "\n".join(f"s[{e['r']},{e['i']}] = {e['polynomial']}" for e in entries)


def _run_presentation(spec: JobSpec, table: CosetTable):
    up_to = spec.degree if spec.degree is not None else table.lmax
    gens = minimal_generators(table, up_to=spec.degree)
    pres = minimal_relations(table, gens, up_to)
    if spec.fmt == "json":
        return {
            "lie_type": str(spec.lie_type),
            "K": sorted(spec.K),
            "up_to": up_to,
            "generators": [
                {"name": g.name, "degree": g.degree, "word": list(g.word)}
                for g in pres.generators
            ],
            "relations": [str(r) for r in pres.relations],
            "relation_degrees": list(pres.relation_degrees()),
        }
    if spec.fmt == "table":
        rows = [(g.name, str(g.degree), ",".join(map(str, g.word))) for g in pres.generators]
        head = _columns(["generator", "degree", "word"], rows)
        rows2 = [(str(r.degree()), str(r)) for r in pres.relations]
        return head + "\n\n" + _columns(["degree", "relation"], rows2)
    return pres.text()


def _run_gysin(spec: JobSpec, table: CosetTable):
    """The groups through ``--degree``, listed up to the bundle's dimension.

    The circle bundle over G/P has real dimension 2 * lmax + 1, so every
    group above it is 0 and is not listed.
    """
    i = spec.K[0]
    top = min(spec.degree, 2 * table.lmax + 1)
    gysin = gysin_analysis(table, i, (top + 1) // 2)
    groups = [(k, gysin.group(k)) for k in range(top + 1)]
    if spec.fmt == "json":
        return {
            "lie_type": str(spec.lie_type),
            "node": i,
            "up_to_degree": spec.degree,
            "groups": [
                {
                    "degree": k,
                    "free_rank": g.free_rank,
                    "torsion": list(g.torsion),
                    "name": str(g),
                }
                for k, g in groups
            ],
        }
    rows = [(str(k), str(g)) for k, g in groups if not g.is_trivial()]
    if spec.fmt == "table":
        return _columns(["degree", "group"], rows)
    lines = [f"circle bundle over {spec.lie_type}/P, node {i}"]
    lines += [f"  H^{k} = {g}" for k, g in rows]
    return "\n".join(lines)


def _columns(header, rows) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    out += [fmt.format(*row) for row in rows]
    return "\n".join(out)


class _Rendered:
    """JSON text in chunks, already indented for its place.

    Only ``_write_json`` takes one, as a top-level value, and writes its
    chunks one by one.
    """

    __slots__ = ("chunks",)

    def __init__(self, chunks):
        self.chunks = chunks


def _write_json(obj, out):
    """Write ``json.dumps(obj, indent=1, sort_keys=True)`` and a newline to `out`.

    A nonempty dict is written one top-level value at a time, and the
    chunks of a ``_Rendered`` value as they are, so the text of the whole
    output is never one string.  Any other value is ``json.dumps`` of it
    with each line moved one space right, which is exact because a JSON
    string never holds a raw newline.  Top-level keys must be ``str``
    (``TypeError`` otherwise).  Every piece is rendered before the first
    write, so an error writes nothing.
    """
    if not (isinstance(obj, dict) and obj):
        out.write(json.dumps(obj, indent=1, sort_keys=True) + "\n")
        return
    for key in obj:
        if not isinstance(key, str):
            raise TypeError(f"key {key!r} is not a str")
    pieces = []
    for key in sorted(obj):
        pieces.append((",\n " if pieces else "{\n ") + json.dumps(key) + ": ")
        value = obj[key]
        if type(value) is _Rendered:
            pieces += value.chunks
        else:
            pieces.append(json.dumps(value, indent=1, sort_keys=True).replace("\n", "\n "))
    pieces.append("\n}\n")
    out.writelines(pieces)


_RUNNERS = {
    "enumerate": _run_enumerate,
    "multiply": _run_multiply,
    "giambelli": _run_giambelli,
    "presentation": _run_presentation,
    "gysin": _run_gysin,
}


def run(spec: JobSpec, out=None) -> int:
    """Execute one job; writes serialized output, returns the exit status."""
    out = out if out is not None else sys.stdout
    try:
        result = _RUNNERS[spec.command](spec, load_table(spec))
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EnumerationLimit, MemoryError) as exc:
        print(f"resource limit: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"domain error: {msg}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:  # args[0] is only the errno; str names the path
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if spec.fmt == "json":
        _write_json(result, out)
    else:
        out.writelines([str(result), "\n"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="schubert",
        description="Exact Schubert calculus on flag manifolds G/P.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_degree=False):
        p.add_argument("lie_type", help="Lie type, e.g. A3, F4, E6")
        p.add_argument(
            "--K",
            default="all",
            help="comma-separated nodes excluded from the parabolic (default: all)",
        )
        if with_degree:
            p.add_argument("--degree", type=int, default=None)
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)

    common(sub.add_parser("enumerate", help="list the Schubert classes of G/P"))
    p_mult = sub.add_parser("multiply", help="expand a product of Schubert classes")
    common(p_mult)
    p_mult.add_argument("classes", nargs="+", help="classes: '3,2,1', '4.2', or 'wN'")
    common(sub.add_parser("giambelli", help="polynomials hitting each class of one degree"),
           with_degree=True)
    common(sub.add_parser("presentation", help="generators and minimal relations"),
           with_degree=True)
    common(sub.add_parser("gysin", help="cohomology of the circle bundle over G/P"),
           with_degree=True)
    return parser


def spec_from_args(argv) -> JobSpec:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        lie_type = LieType.parse(ns.lie_type)
    except ValueError as exc:
        raise CliParseError(str(exc)) from None
    return JobSpec(
        command=ns.command,
        lie_type=lie_type,
        K=parse_node_list(ns.K, lie_type.rank),
        arguments=tuple(getattr(ns, "classes", ())),
        fmt=ns.format,
        degree=getattr(ns, "degree", None),
        cache_dir=Path(ns.cache_dir) if ns.cache_dir else None,
        max_elements=ns.max_elements,
    )


def main(argv=None) -> int:
    try:
        spec = spec_from_args(sys.argv[1:] if argv is None else argv)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SystemExit as exc:  # argparse --help and explicit exits
        return exc.code or 0
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
