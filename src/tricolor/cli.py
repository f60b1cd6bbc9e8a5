"""Batch command-line surface and file I/O.

Data goes to stdout, logs to stderr.  Graphs are read either as DIMACS
coloring files (``p edge n m`` header, ``e u v`` lines, 1-based ids) or as
JSON ``{"n": ..., "edges": [[u, v], ...]}``; the text tells which: a graph
JSON document starts with ``{`` and no DIMACS file does.  The file name
plays no part, so ``/dev/stdin`` works too.

Exit codes: 0 success, 1 negative verdict (non-member, invalid certificate,
unclassified), 2 malformed input, 3 budget exceeded, 4 internal
classification failure, 141 stdout closed before the output was written.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from .coloring import chi_exact
from .errors import (
    BudgetExceededError,
    ContractViolationError,
    GenerationError,
    MalformedInputError,
    PipelineError,
)
from .generators import (
    gen_glue,
    gen_line_of_subdivided_cubic,
    gen_nonmember,
    gen_series_parallel,
    random_cubic_graph,
)
from .graph import Graph, build_graph, json_int
from .patterns import DEFAULT_EXACT_BUDGET, verify_membership
from .pipeline import ColoringCertificate, color_class_member, decompose, verify_certificate
from .recognition import BRANCH_UNCLASSIFIED, classify_basic

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_MALFORMED = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process killed by SIGPIPE

# Ten times the largest scale the scaling checks cover; build_graph allocates
# one adjacency list per vertex before reading any edge.
MAX_VERTICES = 1_000_000

logger = logging.getLogger(__name__)
T = TypeVar("T")


# ---------------------------------------------------------------------------
# Graph file I/O


def _int_field(token: str, lineno: int, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise MalformedInputError(f"line {lineno}: non-integer {token!r} in {line!r}") from None


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise MalformedInputError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def parse_dimacs(text: str) -> Graph:
    """``p edge n m`` once, then ``e u v`` lines, ids 1..n; m need not match (often doubled)."""
    n = None
    edges: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split()
        # The common case first: a well-formed edge line; any other e line is an error.
        if len(fields) == 3 and fields[0] == "e" and n is not None:
            try:
                u, v = int(fields[1]), int(fields[2])
                if 0 < u <= n and 0 < v <= n and u != v:
                    edges.append((u - 1, v - 1))
                    continue
            except ValueError:
                pass
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if fields[0] == "p":
            if n is not None:
                raise MalformedInputError(f"line {lineno}: second problem line {line!r}")
            if len(fields) < 4 or fields[1] not in ("edge", "edges", "col"):
                raise MalformedInputError(f"line {lineno}: bad problem line {line!r}")
            n, _ = (_int_field(token, lineno, line) for token in fields[2:4])
            _check_vertex_count(n)
        elif fields[0] == "e":
            if n is None:
                raise MalformedInputError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise MalformedInputError(f"line {lineno}: bad edge line {line!r}")
            ends = [_int_field(token, lineno, line) for token in fields[1:]]
            why = next((f"vertex {x} out of range [1,{n}]" for x in ends if not 0 < x <= n),
                       f"self-loop at vertex {ends[0]}")
            raise MalformedInputError(f"line {lineno}: {why} in {line!r}")
        else:
            raise MalformedInputError(f"line {lineno}: unknown record {fields[0]!r}")
    if n is None:
        raise MalformedInputError("missing problem line")
    return build_graph(edges, n)


def write_dimacs(g: Graph) -> str:
    if g.vertices != tuple(range(g.n)):
        raise MalformedInputError("DIMACS output requires contiguous ids starting at 0")
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph_json(data: Dict) -> Graph:
    try:
        n = json_int(data["n"], "n")
        edges = [(json_int(u, "edge end"), json_int(v, "edge end")) for u, v in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad graph JSON: {exc}") from exc
    _check_vertex_count(n)
    return build_graph(edges, n)


def graph_to_json(g: Graph) -> Dict:
    if g.vertices != tuple(range(g.n)):
        raise MalformedInputError("JSON output requires contiguous ids starting at 0")
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def _load(path: str, parse: Callable[[str], T]) -> T:
    """``parse`` the UTF-8 text of ``path``; what cannot be read or parsed is malformed.

    ``ValueError`` covers bytes that are not UTF-8, invalid JSON and integers
    over ``int``'s digit limit; the JSON decoder recurses once per nesting level.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError, KeyError, TypeError, RecursionError, MalformedInputError) as exc:
        raise MalformedInputError(f"cannot load {path}: {exc}") from exc


def read_graph(path: str) -> Graph:
    """Graph JSON if the first non-blank character of the text is ``{``, else DIMACS."""
    return _load(path, lambda text: (parse_graph_json(json.loads(text))
                                     if re.match(r"\s*\{", text) else parse_dimacs(text)))


def _emit(data: Dict) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_recognize(args) -> int:
    g = read_graph(args.file)
    verdict = classify_basic(g)
    _emit(verdict.to_json())
    return EXIT_OK if verdict.branch != BRANCH_UNCLASSIFIED else EXIT_NEGATIVE


def cmd_decompose(args) -> int:
    g = read_graph(args.file)
    _emit(decompose(g).to_json())
    return EXIT_OK


def cmd_color(args) -> int:
    g = read_graph(args.file)
    _emit(color_class_member(g).to_json())
    return EXIT_OK


def cmd_verify(args) -> int:
    g = read_graph(args.graph)
    cert = _load(args.cert, lambda text: ColoringCertificate.from_json(json.loads(text)))
    ok = verify_certificate(g, cert)
    _emit({"valid": ok})
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_chi(args) -> int:
    g = read_graph(args.file)
    chi, witness = chi_exact(g, budget=args.budget)
    sys.stdout.write(f"{chi}\n")
    logger.info("witness colors: %s", witness.to_json())
    return EXIT_OK


def cmd_membership(args) -> int:
    g = read_graph(args.file)
    report = verify_membership(g, budget=args.budget)
    _emit(report.to_json())
    if report.verdict == "member":
        return EXIT_OK
    if report.verdict == "nonmember":
        return EXIT_NEGATIVE
    return EXIT_BUDGET


def _generate(kind: str, seed: int, size: int) -> Graph:
    if kind == "sp":
        return gen_series_parallel(seed, size)
    if kind == "line":
        base = random_cubic_graph(seed, 2 * (size // 6))
        return gen_line_of_subdivided_cubic(seed, base, double_one_edge=size % 2 == 1)
    if kind == "glue":
        half = size // 2
        parts = [gen_series_parallel(seed * 2 + 1, half),
                 gen_series_parallel(seed * 2 + 2, size - half)]
        return gen_glue(seed, parts, mode="vertex" if seed % 2 == 0 else "edge")
    if kind in ("diamond", "bowtie", "isk4"):
        return gen_nonmember(seed, kind, size)
    raise MalformedInputError(f"unknown generator kind {kind!r}")


def cmd_generate(args) -> int:
    _check_vertex_count(args.size)
    try:
        g = _generate(args.kind, args.seed, args.size)
    except ContractViolationError as exc:
        # A generator refuses a size it cannot build; that is a bad argument.
        raise MalformedInputError(str(exc)) from exc
    if args.format == "json":
        _emit(graph_to_json(g))
    else:
        sys.stdout.write(write_dimacs(g))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricolor",
        description="Decompose and 3-color graphs from the supported hereditary class.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log details to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="classify a graph into a structure branch")
    p.add_argument("file")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("decompose", help="emit the full decomposition tree")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("color", help="emit a verified 3-coloring certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("cert")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chi", help="exact chromatic number (small graphs)")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=20, help="maximum vertex count (>= 0)")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("membership", help="run the forbidden-pattern oracles")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=DEFAULT_EXACT_BUDGET,
                   help="exact subdivision-oracle size budget (>= 0)")
    p.set_defaults(func=cmd_membership)

    p = sub.add_parser("generate", help="emit a generated member or planted non-member")
    p.add_argument("--kind", required=True,
                   choices=["sp", "line", "glue", "diamond", "bowtie", "isk4"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--format", choices=["col", "json"], default="col")
    p.set_defaults(func=cmd_generate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if getattr(args, "budget", 0) < 0:
            raise MalformedInputError(f"--budget must be non-negative, got {args.budget}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, under the handler below
        return code
    except BrokenPipeError:
        # The reader left early (`| head`): send the flush at exit to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except MalformedInputError as exc:
        logger.error("malformed input: %s", exc)
        return EXIT_MALFORMED
    except BudgetExceededError as exc:
        logger.error("budget exceeded: %s", exc)
        return EXIT_BUDGET
    except PipelineError as exc:
        logger.error("pipeline failure: %s", exc)
        if exc.payload:
            json.dump(exc.payload, sys.stderr, indent=2, sort_keys=True)
            sys.stderr.write("\n")
        return EXIT_INTERNAL
    except (ContractViolationError, GenerationError) as exc:
        logger.error("%s", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
