"""Acceptance battery.

Every test here is one end-to-end criterion and prints exactly one
``PASS criterion-name: detail`` line (visible with ``pytest -s``); the
assert carries the same message, so a failure names its criterion.
"""

import json
import random
import time
import xml.etree.ElementTree as ET

from catbound import (
    brute_max_caterpillar,
    canonical_code,
    compatible_path,
    among_path,
    beautiful_tree,
    build_spider,
    contraction_guarantee,
    extremal_branch_star,
    free_trees,
    guarantee_change_points,
    induced_guarantee,
    induced_guarantee_reference,
    induced_guarantee_residue,
    max_branch_size,
    max_caterpillar,
    max_caterpillar_by_contraction,
    segments_to_tree,
    tree_to_segments,
    validate_path,
    very_hungry_max,
)
from catbound.cli import main
from catbound.oracle import _branch_sizes
from helpers import spider_tree


def _conclude(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_contraction_guarantee_is_the_brute_minimum():
    start = time.perf_counter()
    failures = []
    class_count_at_12 = 0
    for m in range(1, 13):
        low = None
        count = 0
        for t in free_trees(m):
            count += 1
            low = min(low or 10**9, max_caterpillar_by_contraction(t))
        if m == 12:
            class_count_at_12 = count
        if low != contraction_guarantee(m):
            failures.append(f"m={m}: minimum {low} vs {contraction_guarantee(m)}")
    elapsed = time.perf_counter() - start
    ok = not failures and class_count_at_12 == 1301 and elapsed < 10.0
    _conclude(
        "contraction guarantee equals brute minimum (m<=12)",
        ok,
        failures[0] if failures else f"1301 classes at m=12, {elapsed:.1f}s",
    )


def test_criterion_02_guarantee_closed_form_values():
    bad = []
    if contraction_guarantee(1) != 1:
        bad.append("p(1) != 1")
    for k in range(1, 21):
        if contraction_guarantee(2 * k * k) != 4 * k - 2:
            bad.append(f"p(2*{k}^2) != {4 * k - 2}")
    _conclude(
        "contraction guarantee hits its exact-square values",
        not bad,
        bad[0] if bad else "p(1)=1 and p(2k^2)=4k-2 for k<=20",
    )


def test_criterion_03_induced_guarantee_is_the_brute_minimum():
    start = time.perf_counter()
    failures = []
    for m in range(1, 13):
        low = min(brute_max_caterpillar(t) for t in free_trees(m))
        if low != induced_guarantee(m):
            failures.append(f"m={m}: minimum {low} vs {induced_guarantee(m)}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _conclude(
        "induced guarantee equals brute minimum (m<=12)",
        ok,
        failures[0] if failures else f"all m<=12 agree, {elapsed:.1f}s",
    )


def test_criterion_04_branch_sizes_solve_the_recurrence():
    pinned = [1, 2, 3, 5, 7, 11, 16, 23, 34, 49, 70]
    bad = []
    if [max_branch_size(k) for k in range(1, 12)] != pinned:
        bad.append("small table mismatch")
    recurrence = _branch_sizes(60)
    for k in range(1, 61):
        if max_branch_size(k) != recurrence[k]:
            bad.append(f"k={k} disagrees with the recurrence")
            break
    for k in range(2, 61):
        if 5 * max_branch_size(k) < 7 * max_branch_size(k - 1):
            bad.append(f"k={k}: growth below 7/5")
            break
        if k >= 7 and 2 * max_branch_size(k) >= 3 * max_branch_size(k - 1):
            bad.append(f"k={k}: growth at or above 3/2")
            break
    _conclude(
        "branch sizes match recurrence and growth ratios (k<=60)",
        not bad,
        bad[0] if bad else "closed forms, recurrence, and ratios agree",
    )


def test_criterion_05_extremal_branch_stars():
    table = [
        2, 3, 4, 6, 8, 10, 12, 15, 20, 25, 30, 35, 44, 55, 66, 80, 96,
        115, 138, 170, 204, 245, 294, 350, 420,
    ]
    start = time.perf_counter()
    bad = []
    for k, want in zip(range(2, 27), table):
        star = extremal_branch_star(k)
        got = max_caterpillar(star).size
        if star.m != want or got != k:
            bad.append(f"k={k}: {star.m} edges, caterpillar {got}")
            break
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 5.0
    _conclude(
        "branch stars k<=26 have the extremal sizes",
        ok,
        bad[0] if bad else f"25 sizes and caterpillar scores match, {elapsed:.1f}s",
    )


def test_criterion_06_beautiful_trees_feed_exactly_their_score():
    bad = []
    for k in range(1, 19):
        branch = beautiful_tree(k)
        fed = very_hungry_max(branch, 0)
        cat = max_caterpillar(branch).size
        if branch.m != max_branch_size(k) or fed != k or cat > 2 * k - 1:
            bad.append(f"k={k}: {branch.m} edges, fed {fed}, caterpillar {cat}")
            break
    _conclude(
        "beautiful trees k<=18 are extremal and bounded",
        not bad,
        bad[0] if bad else "sizes, appetites, and caterpillar caps hold",
    )


def test_criterion_07_residue_forms_match_the_reference_to_a_million():
    start = time.perf_counter()
    bad = []
    for m in guarantee_change_points(10**6):
        if induced_guarantee(m) != induced_guarantee_reference(m):
            bad.append(f"change point m={m}")
            break
        if m >= 171:
            best = max(induced_guarantee_residue(r, m) for r in range(6))
            if best != induced_guarantee_reference(m):
                bad.append(f"residue max at m={m}")
                break
    for m in range(171, 20001):
        best = max(induced_guarantee_residue(r, m) for r in range(6))
        if best != induced_guarantee_reference(m):
            bad.append(f"dense sweep at m={m}")
            break
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 5.0
    _conclude(
        "residue closed forms equal the reference up to 10^6",
        ok,
        bad[0] if bad else f"all change points and dense range agree, {elapsed:.1f}s",
    )


def test_criterion_08_duality_round_trips_every_small_tree():
    rng = random.Random(20260817)
    bad = []
    total = 0
    for m in range(1, 13):
        for t in free_trees(m):
            roots = {rng.randrange(t.vertex_count) for _ in range(3)}
            for root in roots:
                total += 1
                back, _ = segments_to_tree(tree_to_segments(t, root))
                if canonical_code(back) != canonical_code(t):
                    bad.append(f"m={m} root={root}: {canonical_code(t)}")
                    break
    _conclude(
        "tree -> family -> tree round trips (m<=12, random roots)",
        not bad,
        bad[0] if bad else f"{total} round trips preserved the class",
    )


def test_criterion_09_paths_exist_for_every_small_family():
    start = time.perf_counter()
    bad = []
    classes = 0
    for m in range(1, 10):
        for t in free_trees(m):
            classes += 1
            family = tree_to_segments(t, 0)
            cell_tree, _ = segments_to_tree(family)
            witness = max_caterpillar(cell_tree)
            chain = compatible_path(family, witness)
            report = validate_path(family, chain, "compatible")
            if not (report.ok and chain.k == witness.size):
                bad.append(f"compatible path failed at {canonical_code(t)}")
                break
            chain, _plan = among_path(family)
            report = validate_path(family, chain, "simple")
            if not (report.ok and chain.k == max_caterpillar_by_contraction(cell_tree)):
                bad.append(f"among path failed at {canonical_code(t)}")
                break
    elapsed = time.perf_counter() - start
    ok = not bad and classes == 200 and elapsed < 60.0
    _conclude(
        "alternating paths built and validated for all m<=9 families",
        ok,
        bad[0] if bad else f"{classes} classes, both modes, {elapsed:.1f}s",
    )


def test_criterion_10_fast_search_equals_subset_search():
    bad = []
    for m in range(1, 11):
        for t in free_trees(m):
            if max_caterpillar(t).size != brute_max_caterpillar(t):
                bad.append(f"class {canonical_code(t)}")
                break
    specimens = {
        "branch star 8": extremal_branch_star(8),
        "spider 6,4": build_spider(6, 4),
        "spider 3x4": spider_tree(3, 3, 3, 3),
        "mixed 14-vertex": extremal_branch_star(9),
    }
    for name, t in specimens.items():
        if max_caterpillar(t).size != brute_max_caterpillar(t):
            bad.append(name)
    _conclude(
        "caterpillar search equals the subset oracle",
        not bad,
        bad[0] if bad else "all m<=10 classes plus 12-15 vertex specimens agree",
    )


def test_criterion_11_cli_verification_and_determinism(tmp_path, capsys):
    bad = []

    code = main(["verify", "--max-edges", "5", "--max-k", "10", "--sweep", "2000"])
    capsys.readouterr()
    if code != 0:
        bad.append(f"verify exited {code}")

    code = main(
        ["verify", "--max-edges", "2", "--max-k", "10", "--sweep", "500",
         "--corrupt-f", "9"]
    )
    out = capsys.readouterr().out
    if code != 2 or "FAIL" not in out:
        bad.append(f"corrupted verify exited {code}")

    main(["table", "q", "--from", "1", "--to", "40", "--csv"])
    first = capsys.readouterr().out
    main(["table", "q", "--from", "1", "--to", "40", "--csv"])
    second = capsys.readouterr().out
    if first != second or not first.startswith("m,q\n"):
        bad.append("table output not byte-stable")

    seg = tmp_path / "fam.json"
    seg.write_text('{"n": 3, "segments": [[0, 5], [1, 4], [2, 3]]}')
    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    main(["render", "--segments", str(seg), "--out", str(svg_a)])
    main(["render", "--segments", str(seg), "--out", str(svg_b)])
    capsys.readouterr()
    if svg_a.read_bytes() != svg_b.read_bytes():
        bad.append("render output not byte-stable")
    try:
        ET.fromstring(svg_a.read_text())
    except ET.ParseError:
        bad.append("render output is not well-formed XML")

    code = main(["path", "among", "--segments", str(seg)])
    out = capsys.readouterr().out
    if code != 0 or json.loads(out)["segments"] < 1:
        bad.append("path command failed")

    _conclude(
        "command line verifies, fails loudly, and writes stable bytes",
        not bad,
        bad[0] if bad else "verify exit codes and byte-stable outputs confirmed",
    )
