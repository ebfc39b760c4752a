"""Seeded inputs, operations and output checks of the three workloads.

Every operation goes through a public entry point: ``catbound.cli.main``
in-process with captured output, or a public library function.  Library
calls are looked up on the ``catbound`` package at call time, so the traced
run (see ``spans.py``) sees them.

A workload is a list of operations that make up one *pass*; the runner
repeats passes.  Each operation returns bytes whose digest is compared with
the one recorded in ``digests.json`` when the output does not depend on the
seed, and otherwise with the digest of its first pass in the run.  The
semantic checks (``Op.check``) run the first time an output digest is seen,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import catbound
import catbound.cli

WORKLOADS = ("census", "dual-large", "extremal")

# dual-large: random families on a size ladder, plus the path family, whose
# compatible chain uses every segment (the worst case for validate_path)
PRUEFER_SIZES = (250, 500, 1000)
PATH_SIZES = (250, 500)
# extremal: builds, a full contraction plan and an adversarial ladder
RK_K = 90
TK_K = 36
ADVERSARIAL_SIZES = (2000, 4000)


@dataclass
class Op:
    """One timed operation of a pass.

    ``run`` returns the output bytes; ``check`` returns the problems found
    in them (empty when correct).  ``shape`` groups inputs of one kind for
    growth slopes; ``items`` is the work the operation counts toward
    ``items_per_ref``; ``recorded`` says whether ``digests.json`` holds the
    expected digest (seed-independent output).
    """

    name: str
    shape: str
    items: int
    run: Callable[[], bytes]
    check: Callable[[bytes], list[str]]
    recorded: bool


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_output(argv: list[str], out_file: Path | None = None) -> bytes:
    """Run ``catbound`` in-process; the command must exit 0.  Its output is
    the captured stdout, or the file it wrote with ``--out``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = catbound.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    if code != 0:
        raise RuntimeError(f"catbound {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out_file.read_bytes() if out_file is not None else out.getvalue().encode()


# ======================================================================
# input generators (deterministic in the seed)
# ======================================================================


def family_json(family) -> str:
    """The CLI's segment-family file format."""
    return json.dumps({"n": family.n, "segments": [list(p) for p in family.pairs]}) + "\n"


def pruefer_tree(rng: random.Random, edges: int):
    """Uniform random labelled tree with ``edges`` edges."""
    n = edges + 1
    return catbound.tree_from_pruefer(tuple(rng.randrange(n) for _ in range(n - 2)), n)


def path_tree(edges: int):
    return catbound.Tree(edges + 1, tuple((i, i + 1) for i in range(edges)))


def adversarial_tree(n: int):
    """A bare path on the low labels, hung off the middle of a heavy spine
    on the high labels; every spine vertex carries 3 pendant leaves.  Also
    returns the ends of the optimal induced caterpillars: the two end spine
    vertices and their leaves.

    The spine takes about 2n/9 vertices and the bare path about n/9.  Then
    no optimal induced caterpillar touches the bare path, so a witness scan
    that tries start vertices in label order runs one traversal per bare
    path vertex.  A bare path longer than the spine becomes optimal itself
    and hides the quadratic scan.
    """
    spine = 2 * n // 9
    bare = n - 4 * spine
    edges = [(i, i + 1) for i in range(bare - 1)]
    first = bare
    edges += [(first + i, first + i + 1) for i in range(spine - 1)]
    leaf = first + spine
    for i in range(spine):
        for _ in range(3):
            edges.append((first + i, leaf))
            leaf += 1
    edges.append((bare - 1, first + spine // 2))
    last = first + spine - 1
    ends = [first, last, *range(first + spine, first + spine + 3), *range(n - 3, n)]
    return catbound.Tree(n, tuple(edges)), ends


def relabelled(tree, ends, rng: random.Random):
    """The control twin of an adversarial tree: labels shuffled at random,
    then label 0 swapped onto a randomly chosen end of an optimal
    caterpillar, so a label-order witness scan stops at its first start.

    A plain shuffle is no control: the scan stops at the smallest label
    among the 8 optimal ends, which is about n/9 on average, as for the
    adversarial labels, and varies widely from seed to seed.
    """
    perm = list(range(tree.vertex_count))
    rng.shuffle(perm)
    end = rng.choice(ends)
    zero = perm.index(0)
    perm[zero], perm[end] = perm[end], 0
    return catbound.Tree(tree.vertex_count, tuple((perm[u], perm[v]) for u, v in tree.edges))


def generate(workload: str, seed: int, work: Path) -> dict:
    """Make the workload's inputs from ``seed`` and write them under
    ``work``; returns the in-memory inputs by name."""
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    inputs: dict = {}
    if workload == "census":
        pass  # exhaustive: the seed does not enter
    elif workload == "dual-large":
        trees = [(f"pruefer-{n}", pruefer_tree(rng, n)) for n in PRUEFER_SIZES]
        trees += [(f"path-{n}", path_tree(n)) for n in PATH_SIZES]
        for name, tree in trees:
            family = catbound.tree_to_segments(tree, 0)
            (work / f"{name}.json").write_text(family_json(family))
            inputs[name] = (tree, family)
    elif workload == "extremal":
        inputs["spider"] = catbound.extremal_spider(RK_K)
        for n in ADVERSARIAL_SIZES:
            tree, ends = adversarial_tree(n)
            inputs[f"adversarial-{n}"] = tree
            inputs[f"relabelled-{n}"] = relabelled(tree, ends, rng)
        for name, tree in inputs.items():
            (work / f"{name}.txt").write_text(catbound.format_tree(tree))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


# ======================================================================
# operations and checks
# ======================================================================


def _induced_caterpillar_size(tree, vertex_set) -> int | None:
    """Edges of the subgraph induced by ``vertex_set`` when it is a
    caterpillar, else None."""
    order = sorted(vertex_set)
    rank = {v: i for i, v in enumerate(order)}
    edges = tuple((rank[u], rank[v]) for u, v in tree.edges if u in rank and v in rank)
    try:
        sub = catbound.Tree(len(order), edges)
    except ValueError:
        return None  # not connected
    return sub.m if catbound.is_caterpillar(sub)[0] else None


def _witness_bytes(w) -> bytes:
    return json.dumps(
        {"size": w.size, "spine": list(w.spine), "vertices": sorted(w.vertex_set)}
    ).encode()


def census_ops(inputs: dict, work: Path) -> list[Op]:
    """``verify --max-edges 12``: 2,287 tree classes of at most 13 vertices,
    so per-call overhead dominates; computing or checking things once shows
    here, asymptotic rewrites barely do.  Exhaustive, so seed-independent."""
    argv = ["verify", "--max-edges", "12"]
    classes = sum(catbound.FREE_TREE_COUNTS[1:13])
    return [
        Op("verify", "census", classes, lambda: cli_output(argv), lambda out: [], True)
    ]


def dual_large_ops(inputs: dict, work: Path) -> list[Op]:
    """The duality layer of ``census`` on a few large families, where the
    quadratic kernels dominate: a rewrite that speeds these up but adds
    constant cost per call shows up as a ``census`` regression."""
    ops: list[Op] = []
    for name, (tree, family) in inputs.items():
        shape = name.split("-")[0]
        fam_file = str(work / f"{name}.json")
        chain_file = work / f"{name}.chain.json"
        among_file = work / f"{name}.among.json"
        svg_file = work / f"{name}.svg"
        cell_tree, _ = catbound.segments_to_tree(family)
        want_compatible = catbound.max_caterpillar(cell_tree).size
        want_among = catbound.max_caterpillar_by_contraction(cell_tree)
        source_code = catbound.canonical_code(tree)
        recorded = shape == "path"

        def path_check(mode, want, family=family):
            def check(out: bytes) -> list[str]:
                data = json.loads(out)
                path = catbound.AlternatingPath(tuple(data["endpoints"]), data["segments"])
                report = catbound.validate_path(family, path, mode)
                problems = [f"invalid {mode} path: {i}" for i in report.issues]
                if path.k != want:
                    problems.append(f"{mode} path has {path.k} segments, want {want}")
                return problems

            return check

        def svg_check(out: bytes, family=family) -> list[str]:
            ok = out.rstrip().endswith(b"</svg>") and out.count(b"<polyline ") == 1
            if not ok or out.count(b"<line ") != family.n:
                return ["render did not draw one chord per segment and the path"]
            return []

        def round_trip(family=family) -> bytes:
            back, _ = catbound.segments_to_tree(family)
            return str(catbound.canonical_code(back)).encode()

        def round_trip_check(out: bytes, source_code=source_code) -> list[str]:
            ok = out == str(source_code).encode()
            return [] if ok else ["cell tree is not isomorphic to the source tree"]

        argv_compatible = ["path", "compatible", "--segments", fam_file, "--out", str(chain_file)]
        argv_render = [
            "render", "--segments", fam_file, "--path", str(chain_file), "--out", str(svg_file)
        ]
        argv_among = ["path", "among", "--segments", fam_file, "--out", str(among_file)]
        ops += [
            Op(
                f"{name}/round-trip", shape, 0,
                round_trip, round_trip_check, recorded,
            ),
            Op(
                f"{name}/path-compatible", shape, family.n,
                lambda a=argv_compatible, f=chain_file: cli_output(a, f),
                path_check("compatible", want_compatible), recorded,
            ),
            Op(
                f"{name}/render", shape, 0,
                lambda a=argv_render, f=svg_file: cli_output(a, f),
                svg_check, recorded,
            ),
            Op(
                f"{name}/path-among", shape, 0,
                lambda a=argv_among, f=among_file: cli_output(a, f),
                path_check("simple", want_among), recorded,
            ),
        ]
    return ops


def extremal_ops(inputs: dict, work: Path) -> list[Op]:
    """The extremal constructions: ``analyze`` is dominated by
    ``diameter_path`` on the tk-36 star, building and replaying a full
    contraction plan shows whether cost moves between the two, and the
    adversarial labels trigger the quadratic witness scan that the
    relabelled control does not."""
    rk_file, tk_file = work / f"rk{RK_K}.txt", work / f"tk{TK_K}.txt"
    rk_edges = catbound.extremal_size_contraction(RK_K)
    tk_edges = catbound.extremal_size_induced(TK_K)
    spider = inputs["spider"]
    plan_box: list = []

    def tree_size_check(want):
        def check(out: bytes) -> list[str]:
            m = catbound.parse_tree(out.decode()).m
            return [] if m == want else [f"built {m} edges, want {want}"]

        return check

    def contract() -> bytes:
        plan_box[:] = [catbound.contract_to_caterpillar(spider, RK_K)]
        plan = plan_box[0]
        return json.dumps(
            {
                "steps": [list(s.edge) for s in plan.contract_sequence],
                "kept": [list(e) for e in plan.kept_caterpillar.edges],
            }
        ).encode()

    def contract_check(out: bytes) -> list[str]:
        plan = plan_box[0]
        kept = plan.kept_caterpillar
        problems = []
        if plan.target_size != RK_K or kept.m != RK_K or not catbound.is_caterpillar(kept)[0]:
            problems.append(f"plan does not reach a {RK_K}-edge caterpillar")
        if len(plan.contract_sequence) != spider.m - RK_K:
            problems.append("plan length differs from the contracted edge count")
        return problems

    def apply() -> bytes:
        if not plan_box:
            raise RuntimeError("no plan to apply")
        return catbound.format_tree(plan_box[0].apply(spider)).encode()

    def apply_check(out: bytes) -> list[str]:
        ok = out == catbound.format_tree(plan_box[0].kept_caterpillar).encode()
        return [] if ok else ["plan.apply(spider) differs from kept_caterpillar"]

    def witness_op(name):
        tree = inputs[name]
        twin = inputs["adversarial-" + name.split("-")[1]]

        def run() -> bytes:
            return _witness_bytes(catbound.max_caterpillar(tree))

        def check(out: bytes) -> list[str]:
            data = json.loads(out)
            problems = []
            if _induced_caterpillar_size(tree, data["vertices"]) != data["size"]:
                problems.append(f"{name}: witness is not an induced caterpillar of its size")
            if tree is not twin:
                twin_size = catbound.max_caterpillar(twin).size
                if data["size"] != twin_size:
                    problems.append(
                        f"{name}: size {data['size']} differs from the isomorphic twin's {twin_size}"
                    )
            return problems

        shape = name.split("-")[0]
        return Op(f"{name}/max-caterpillar", shape, tree.m, run, check, shape == "adversarial")

    ops = [
        Op(
            f"build-rk{RK_K}", "rk", 0,
            lambda: cli_output(["build", "rk", "--k", str(RK_K), "--out", str(rk_file)], rk_file),
            tree_size_check(rk_edges), True,
        ),
        Op(
            f"build-tk{TK_K}", "tk", 0,
            lambda: cli_output(["build", "tk", "--k", str(TK_K), "--out", str(tk_file)], tk_file),
            tree_size_check(tk_edges), True,
        ),
        Op(
            f"analyze-rk{RK_K}", "rk", rk_edges,
            lambda: cli_output(["analyze", "--tree", str(rk_file), "--witness"]),
            lambda out: [], True,
        ),
        Op(
            f"analyze-tk{TK_K}", "tk", tk_edges,
            lambda: cli_output(["analyze", "--tree", str(tk_file), "--witness"]),
            lambda out: [], True,
        ),
        Op(f"contract-spider{RK_K}", "rk", spider.m, contract, contract_check, True),
        Op(f"apply-spider{RK_K}", "rk", spider.m, apply, apply_check, True),
    ]
    for n in ADVERSARIAL_SIZES:
        ops += [witness_op(f"adversarial-{n}"), witness_op(f"relabelled-{n}")]
    return ops


OPS = {"census": census_ops, "dual-large": dual_large_ops, "extremal": extremal_ops}


def corrupted_census_op() -> Op:
    """A census run with a deliberately misstated branch size, judged as the
    census ``verify`` operation: the output gate must reject it."""
    argv = ["verify", "--max-edges", "4", "--max-k", "9", "--sweep", "1000", "--corrupt-f", "9"]
    return Op("verify", "census", 0, lambda: cli_output(argv), lambda out: [], True)
