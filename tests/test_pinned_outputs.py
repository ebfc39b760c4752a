"""Pinned bytes of cold-process CLI runs, one entry of ``pinned_outputs.json``
per test.

An entry runs its commands in order in one temporary directory, each in a
fresh process: ``python -m catbound <argv>``, or ``python -c`` of the named
program below. Before a command, the builders it names write its input
files; its ``stdin`` is a file, or ``"|"`` for the previous command's
stdout. Each command must exit with its ``exit`` code, and a refusal (exit
1) must write exactly one stderr line. A pinned ``output`` is the last
command's ``stdout``, the ``stderr`` of every command joined in order, or a
file the commands wrote; its sha256 is the entry's literal, or the
``bench/digests.json`` value under its ``bench`` key, read at run time.
``why`` says why an output is pinned and is not read.
"""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from catbound import tree_from_pruefer
from catbound.cli import _build_parser
from helpers import workloads

ROOT = Path(__file__).resolve().parents[1]
TABLE = json.loads((ROOT / "tests" / "pinned_outputs.json").read_text())


def _bench_digests() -> dict:
    return json.loads((ROOT / "bench" / "digests.json").read_text())


def _rewritten_4000(work: Path) -> None:
    """relabelled-4000 with CRLF ends, tab separators, leading spaces, and
    comment and blank lines."""
    out = []
    for i, row in enumerate((work / "relabelled-4000.txt").read_text().splitlines(), 1):
        if i % 97 == 0:
            out.append("# a comment line")
        if i % 131 == 0:
            out.append("")
        u, v = row.split()
        out.append(f"  {u}\t{v}")
    (work / "rewritten-4000.txt").write_bytes("".join(line + "\r\n" for line in out).encode())


def _random_3000(work: Path) -> None:
    """A random Prüfer tree, relabelled, its edges and their ends shuffled."""
    rng = random.Random(29)
    n = 3000
    t = tree_from_pruefer([rng.randrange(n) for _ in range(n - 2)], n)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in t.edges]
    rng.shuffle(edges)
    (work / "random-3000.txt").write_text("".join(f"{u} {v}\n" for u, v in edges))


def _broken_chain(work: Path) -> None:
    """chain.json with its endpoints 1 and 2 swapped."""
    d = json.loads((work / "chain.json").read_text())
    e = d["endpoints"]
    e[1], e[2] = e[2], e[1]
    (work / "broken.json").write_text(json.dumps(d))


def _files(contents: dict):
    def build(work: Path) -> None:
        for name, data in contents.items():
            (work / name).write_bytes(data)

    return build


BUILDERS = {
    "dual-large": lambda work: workloads().generate("dual-large", 1, work),
    "extremal": lambda work: workloads().generate("extremal", 1, work),
    "rewritten-4000": _rewritten_4000,
    "random-3000": _random_3000,
    "broken-chain": _broken_chain,
    "hostile-files": _files({
        "tree-1.txt": b"0 1_0\n",
        "tree-2.txt": b"+0 1\n",
        "tree-3.txt": "\u0661 0\n".encode(),  # an Arabic-Indic one
        "tree-4.txt": "0 \uff11\n".encode(),  # a fullwidth one
        "tree-5.txt": b"0 1\n1 5\n",
        "tree-6.txt": b"0 1\n0 1\n",
        "fam-1.json": b'{"n": null, "segments": [[0, 1]]}',
        "fam-2.json": b'{"n": 1, "segments": [[true, 1]]}',
        "fam-3.json": b'{"n": 1, "segments": [[0, 1, 2]]}',
        "fam.json": b'{"n": 3, "segments": [[0, 5], [1, 4], [2, 3]]}',
        "path-1.json": b'{"mode": "compatible", "endpoints": [0.5, 1]}',
        "path-2.json": b'{"segments": "x", "endpoints": [0, 5]}',
    }),
    "two-edge-path": _files({"tree.txt": b"0 1\n1 2\n"}),
}

PROGRAMS = {
    "canonical-code": """
import json, sys
from catbound import SegmentFamily, canonical_code, segments_to_tree
data = json.load(open(sys.argv[1]))
family = SegmentFamily(data["n"], tuple(map(tuple, data["segments"])))
print(canonical_code(segments_to_tree(family)[0]))
""",
}


def test_the_table_is_well_formed():
    names = [entry["name"] for entry in TABLE]
    assert len(set(names)) == len(names)
    bench = _bench_digests()
    for entry in TABLE:
        for pin in entry["pins"]:
            if "bench" in pin:
                assert pin["bench"] in bench, entry["name"]
            else:
                assert re.fullmatch(r"[0-9a-f]{64}", pin["sha256"]), entry["name"]
        for command in entry["commands"]:
            argv = command["argv"]
            if "python" not in command:
                assert _build_parser().parse_args(argv).command == argv[0], entry["name"]


@pytest.mark.parametrize("entry", TABLE, ids=[entry["name"] for entry in TABLE])
def test_pinned_output(entry, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    stdout, stderr = b"", b""
    for command in entry["commands"]:
        for name in command.get("build", ()):
            BUILDERS[name](tmp_path)
        source = command.get("stdin")
        if source == "|":
            stdin = stdout
        else:
            stdin = (tmp_path / source).read_bytes() if source else b""
        program = ["-c", PROGRAMS[command["python"]]] if "python" in command else ["-m", "catbound"]
        proc = subprocess.run(
            [sys.executable, *program, *command["argv"]],
            input=stdin, capture_output=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == command["exit"], (command["argv"], proc.stderr)
        if command["exit"] == 1:
            assert proc.stderr.count(b"\n") == 1, (command["argv"], proc.stderr)
        stdout, stderr = proc.stdout, stderr + proc.stderr
    streams = {"stdout": stdout, "stderr": stderr}
    bench = _bench_digests()
    got, want = {}, {}
    for pin in entry["pins"]:
        output = pin["output"]
        data = streams[output] if output in streams else (tmp_path / output).read_bytes()
        got[output] = hashlib.sha256(data).hexdigest()
        want[output] = bench[pin["bench"]] if "bench" in pin else pin["sha256"]
    assert got == want, stderr.decode(errors="replace")
