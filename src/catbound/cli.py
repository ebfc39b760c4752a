"""Command-line front end.

Exit codes: 0 success, 1 usage or input errors, 2 a verification or
validation failure or a broken invariant (the command ran but the
mathematics disagreed).

File formats: trees are the edge-list text format of ``parse_tree``;
segment families are JSON ``{"n": N, "segments": [[a, b], ...]}``;
alternating paths are JSON ``{"mode": M, "segments": K, "endpoints":
[...]}``, K optional and half the endpoint count.  Numbers are JSON integers.
The loaders only read a format; the constructors (``Tree``,
``SegmentFamily``, ``AlternatingPath``) judge the values read, and a file's
error is the constructor's message after the file's path.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from .contraction import (
    build_spider,
    contraction_guarantee,
    extremal_size_contraction,
    extremal_spider,
    max_edges_diameter_leaves,
)
from .duality import (
    AlternatingPath,
    SegmentFamily,
    among_path,
    compatible_path,
    segments_to_tree,
    tree_to_segments,
    validate_path,
)
from .induced import (
    beautiful_tree,
    branch_star_bound,
    extremal_branch_star,
    extremal_size_induced,
    induced_guarantee,
    max_branch_size,
    max_caterpillar,
)
from .oracle import _SEARCH_LIMIT, MAX_SCORE, MAX_SWEEP, verify_all
from .render import render_segments, render_tree
from .trees import _check_count, diameter, format_tree, is_spider, parse_tree


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; keep 2 for math failures."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on first use: parsing leaves it
    unchanged, and building it at import would cost every ``import
    catbound``."""
    parser = _Parser(prog="catbound", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[], description="Evaluate one bound.")
    p.add_argument("quantity", choices=list(_EVAL))
    p.add_argument("--m", type=int, help="edge budget (p, q)")
    p.add_argument("--k", type=int, help="caterpillar size (f, g, e-*)")

    p = sub.add_parser("table", description="Tabulate one bound over a range.")
    p.add_argument("quantity", choices=list(_EVAL))
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("build", description="Emit an extremal construction.")
    p.add_argument("shape", choices=["rk", "rdl", "bk", "tk"])
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int, help="diameter (rdl)")
    p.add_argument("--l", type=int, help="leaf count (rdl)")
    p.add_argument("--out", help="write tree here instead of stdout")

    p = sub.add_parser("analyze", description="Measure a tree file.")
    p.add_argument("--tree", required=True)
    p.add_argument("--witness", action="store_true", help="print the caterpillar")

    p = sub.add_parser("dual", description="Swap between trees and families.")
    p.add_argument("direction", choices=["to-segments", "to-tree"])
    p.add_argument("--tree", help="tree file (to-segments)")
    p.add_argument("--root", type=int, default=0, help="outer cell (to-segments)")
    p.add_argument("--segments", help="family file (to-tree)")
    p.add_argument("--out")

    p = sub.add_parser("path", description="Build an alternating path.")
    p.add_argument("mode", choices=["compatible", "among"])
    p.add_argument("--segments", required=True)
    p.add_argument("--out")

    p = sub.add_parser("verify", description="Run the brute-force cross-checks.")
    p.add_argument("--max-edges", type=int, default=10)
    p.add_argument("--max-k", type=int, default=21)
    p.add_argument("--sweep", type=int, default=200_000)
    p.add_argument(
        "--corrupt-f",
        type=int,
        metavar="K",
        help="deliberately misstate one branch size (the report must FAIL)",
    )
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("render", description="Draw a family or tree as SVG.")
    p.add_argument("--segments")
    p.add_argument("--path", help="overlay this path file (with --segments)")
    p.add_argument("--tree")
    p.add_argument("--root", type=int, help="layout root (with --tree)")
    p.add_argument("--out", required=True)
    return parser


# ----------------------------------------------------------------------
# I/O helpers
# ----------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: not UTF-8 text") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from exc


def _read_json(path: str) -> Any:
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc.msg})") from exc


def _load_family(path: str) -> SegmentFamily:
    data = _read_json(path)
    if not isinstance(data, dict) or "n" not in data or "segments" not in data:
        raise ValueError(f'{path}: expected {{"n": ..., "segments": [...]}}')
    try:
        return SegmentFamily(data["n"], data["segments"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_path(path: str) -> tuple[AlternatingPath, str]:
    data = _read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("endpoints"), list):
        raise ValueError(f'{path}: expected {{"mode": ..., "endpoints": [...]}}')
    mode = data.get("mode", "simple")
    if mode not in ("simple", "among", "compatible"):
        raise ValueError(f"{path}: unknown mode {mode!r}")
    endpoints = data["endpoints"]
    k = data.get("segments", len(endpoints) // 2)
    try:
        _check_count(k, "segments")  # named as the file names it, not "k"
        return AlternatingPath(endpoints, k), mode
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _family_json(s: SegmentFamily) -> str:
    return json.dumps({"n": s.n, "segments": [list(p) for p in s.pairs]}) + "\n"


def _path_json(mode: str, p: AlternatingPath) -> str:
    return (
        json.dumps(
            {"mode": mode, "segments": p.k, "endpoints": list(p.endpoints)}
        )
        + "\n"
    )


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

_EVAL = {
    "p": ("--m", contraction_guarantee),
    "q": ("--m", induced_guarantee),
    "f": ("--k", max_branch_size),
    "g": ("--k", branch_star_bound),
    "e-contract": ("--k", extremal_size_contraction),
    "e-induced": ("--k", extremal_size_induced),
}


def _pick_argument(args) -> int:
    flag, _fn = _EVAL[args.quantity]
    value = args.m if flag == "--m" else args.k
    other = args.k if flag == "--m" else args.m
    if value is None:
        raise ValueError(f"eval {args.quantity} needs {flag}")
    if other is not None:
        raise ValueError(f"eval {args.quantity} takes only {flag}")
    return value


# eval and table print no value longer than this many digits, Python's
# default limit on int-to-str conversion
MAX_RESULT_DIGITS = 4300

# the largest k at which each exponential closed form stays within
# MAX_RESULT_DIGITS; all three grow with k, so a larger k is refused
# without evaluating anything.  e-contract, about k^2 / 8, is cheap to
# evaluate at any k, and p and q are no longer than their argument
_MAX_PRINTABLE_K = {"f": 27_036, "g": 54_067, "e-induced": 54_067}


def _refuse_unprintable(command: str, quantity: str, largest: int) -> None:
    if quantity == "e-contract":
        too_long = extremal_size_contraction(largest) >= 10**MAX_RESULT_DIGITS
    else:
        too_long = largest > _MAX_PRINTABLE_K.get(quantity, largest)
    if too_long:
        raise ValueError(
            f"{command} {quantity} would print more than {MAX_RESULT_DIGITS} digits"
        )


def _cmd_eval(args) -> int:
    value = _pick_argument(args)
    _refuse_unprintable("eval", args.quantity, value)
    print(_EVAL[args.quantity][1](value))
    return 0


# table refuses to tabulate more rows than this; every row is held in memory
MAX_TABLE_ROWS = 1_000_000


def _format_table(key: str, value: str, rows: list[tuple[int, int]], csv: bool) -> str:
    """One or more (key, value) rows below a header, as CSV or as aligned
    two-column text."""
    if csv:
        lines = [f"{key},{value}"] + [f"{k},{v}" for k, v in rows]
    else:
        kw = max(len(key), *(len(str(k)) for k, _ in rows))
        vw = max(len(value), *(len(str(v)) for _, v in rows))
        lines = [f"{k:>{kw}}  {v:>{vw}}" for k, v in [(key, value), *rows]]
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> int:
    flag, fn = _EVAL[args.quantity]
    if args.start > args.stop:
        raise ValueError("--from must not exceed --to")
    if args.stop - args.start >= MAX_TABLE_ROWS:
        raise ValueError(
            f"table {args.quantity} would have more than {MAX_TABLE_ROWS} rows"
        )
    _refuse_unprintable("table", args.quantity, args.stop)
    rows = [(i, fn(i)) for i in range(args.start, args.stop + 1)]
    sys.stdout.write(_format_table(flag.lstrip("-"), args.quantity, rows, args.csv))
    return 0


# build refuses to make a tree with more edges than this
MAX_BUILD_EDGES = 1_000_000

# each shape that takes --k: its edge count by closed form, and its tree; the
# lambdas look the constructors up when called, so tracing that rebinds
# their module names (bench/spans.py) sees each call
_BUILD_BY_K = {
    "rk": (extremal_size_contraction, lambda k: extremal_spider(k)),
    "bk": (max_branch_size, lambda k: beautiful_tree(k)),
    "tk": (extremal_size_induced, lambda k: extremal_branch_star(k)),
}


def _cmd_build(args) -> int:
    if args.shape == "rdl":
        if args.d is None or args.l is None:
            raise ValueError("build rdl needs --d and --l")
        edges = max_edges_diameter_leaves(args.d, args.l)
        build = functools.partial(build_spider, args.d, args.l)
    else:
        if args.k is None:
            raise ValueError(f"build {args.shape} needs --k")
        # each shape has at least k edges, so a k past the limit is refused
        # without evaluating an exponential closed form; k < 1 is left to
        # the constructor's own message
        k = args.k
        size, tree_of = _BUILD_BY_K[args.shape]
        edges = size(k) if 1 <= k <= MAX_BUILD_EDGES else k
        build = functools.partial(tree_of, k)
    if edges > MAX_BUILD_EDGES:
        raise ValueError(
            f"build {args.shape} would have more than {MAX_BUILD_EDGES} edges"
        )
    _emit(format_tree(build()), args.out)
    return 0


def _cmd_analyze(args) -> int:
    tree = parse_tree(_read(args.tree))  # at least one edge
    witness = max_caterpillar(tree)
    leaf_count, length = tree.degrees.count(1), diameter(tree)
    rows = [
        ("vertices", tree.vertex_count),
        ("edges", tree.m),
        ("leaves", leaf_count),
        ("diameter", length),
        # a tree is a caterpillar exactly when its largest induced
        # caterpillar has every edge
        ("caterpillar", "yes" if witness.size == tree.m else "no"),
        ("spider", "yes" if is_spider(tree) else "no"),
        # max_caterpillar_by_contraction's score, from the two counts
        ("score by contraction", leaf_count + length - 2),
        ("largest induced caterpillar", witness.size),
    ]
    for label, value in rows:
        print(f"{label:<28} {value}")
    if args.witness:
        print(f"{'witness spine':<28} {' '.join(map(str, witness.spine))}")
        print(
            f"{'witness vertices':<28} "
            f"{' '.join(map(str, sorted(witness.vertex_set)))}"
        )
    return 0


def _cmd_dual(args) -> int:
    if args.direction == "to-segments":
        if args.tree is None:
            raise ValueError("dual to-segments needs --tree")
        tree = parse_tree(_read(args.tree))
        _emit(_family_json(tree_to_segments(tree, args.root)), args.out)
    else:
        if args.segments is None:
            raise ValueError("dual to-tree needs --segments")
        tree, _chords = segments_to_tree(_load_family(args.segments))
        _emit(format_tree(tree), args.out)
    return 0


def _cmd_path(args) -> int:
    family = _load_family(args.segments)
    if args.mode == "compatible":
        tree, _ = segments_to_tree(family)
        chain = compatible_path(family, max_caterpillar(tree))
    else:
        chain, _plan = among_path(family)
    _emit(_path_json(args.mode, chain), args.out)
    return 0


def _cmd_verify(args) -> int:
    # refused here so that the message names the flag, not verify_all's
    # parameter; the library keeps its own checks
    _check_count(args.max_edges, "--max-edges", 1, _SEARCH_LIMIT - 1)
    _check_count(args.max_k, "--max-k", 1, MAX_SCORE)
    _check_count(args.sweep, "--sweep", 1, MAX_SWEEP)
    # only k <= --max-k is checked, so any other K would corrupt nothing
    if args.corrupt_f is not None and not 1 <= args.corrupt_f <= args.max_k:
        raise ValueError(
            f"--corrupt-f must lie in 1..{args.max_k}, the --max-k range"
        )
    report = verify_all(
        max_edges=args.max_edges,
        max_score=args.max_k,
        sweep_limit=args.sweep,
        misstated_branch=args.corrupt_f,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.ok else 2


def _cmd_render(args) -> int:
    if (args.segments is None) == (args.tree is None):
        raise ValueError("render needs exactly one of --segments or --tree")
    if args.segments is not None:
        if args.root is not None:
            raise ValueError("--root goes with --tree")
        family = _load_family(args.segments)
        chain = None
        if args.path is not None:
            chain, mode = _load_path(args.path)
            report = validate_path(family, chain, mode)
            if not report.ok:
                for issue in report.issues:
                    print(f"invalid: {issue}", file=sys.stderr)
                return 2
        svg = render_segments(family, chain)
    else:
        if args.path is not None:
            raise ValueError("--path goes with --segments")
        tree = parse_tree(_read(args.tree))
        svg = render_tree(tree, args.root)
    _emit(svg, args.out)
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "table": _cmd_table,
    "build": _cmd_build,
    "analyze": _cmd_analyze,
    "dual": _cmd_dual,
    "path": _cmd_path,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"catbound: error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"catbound: broken invariant: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
