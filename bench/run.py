"""catbound benchmark: closed-loop workloads through the public entry points.

    python3 bench/run.py --workload census|dual-large|extremal \
        --seed N --seconds S --trace 0|1

It imports ``catbound`` from the ``src/`` directory next to ``bench/`` and
fails (exit 1, no result) when that is missing.  One caller runs one
operation at a time in this single process: the CLI and the library are
batch tools that serve no requests, so the loop is closed and the measure is
time per pass, not latency under load.

A *pass* is one run through the workload's operations (``workloads.py``).
The run sets up ``SETUP_REPEATS`` times in fresh processes, then repeats
passes for ``--seconds`` (at least ``MIN_PASSES``).  Every output goes
through the output gate: it must come back without an exception or a
non-zero exit code, match its recorded digest (``digests.json``) or, for
seeded outputs, the digest of its first pass, and pass its semantic checks.
Before timing, a deliberately corrupted ``verify`` run is put through the
same gate, which must reject it.

Timing on a shared host (``clock.py``): while an operation runs, a fixed
reference computation is timed every 50 ms and its time left out of the
operation's.  Each operation's time divided by the median reference time
while it ran is its cost in *reference units* (``ref``), from which the
host's momentary speed mostly cancels.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over fresh processes of importing catbound plus
  generating and writing the inputs, in seconds;
* ``wall_ref`` / ``cpu_ref``: wall / CPU time of a pass in reference units:
  the sum over operations of each one's median over passes (operations
  only; checks are outside the timers);
* ``items_per_ref``: work items per reference unit of pass wall time (tree
  classes in census, segments in dual-large, input-tree edges in extremal);
* ``peak_rss_mb``: the peak resident set size of this process.

The raw seconds (``wall_s``, ``cpu_s``, ``items_per_s``, the reference
time) are in the provenance line.  Failed operations are the result's
``failed`` out of ``attempted``.

``--trace 1`` first runs untraced passes for half of ``--seconds``, then
traced passes (``spans.py``) for the other half, and prints the per-layer
metrics and ``trace.overhead_s`` (traced minus untraced median pass wall
time, in seconds).  It
writes the spans of the first traced pass as JSON lines under
``.bench_work/spans/``.

The last line of stdout is the result object; the line before it records
the provenance (Python, CPU counts, git revision, seed, operation counts).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9
MIN_PASSES = 3


# the benchmark's own modules (workloads, spans, clock) import catbound, so
# they are imported only after _import_catbound has put src/ on the path


def _import_catbound() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import catbound

    if Path(catbound.__file__).resolve().parent != src / "catbound":
        raise ImportError(f"catbound was imported from {catbound.__file__}, not {src}")


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _file_digests(directory: Path) -> dict[str, str]:
    import workloads

    return {
        p.name: workloads.digest(p.read_bytes())
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def measure_setup(workload: str, seed: int, work: Path) -> tuple[list[float], list[dict]]:
    """Set up in fresh processes; returns the times and each set-up's
    input-file digests."""
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), workload, str(seed), str(target)],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        times.append(float(done.stdout))
        digests.append(_file_digests(target))
        shutil.rmtree(target)
    return times, digests


class Gate:
    """The output gate: digests, then semantic checks on each new output."""

    def __init__(self, workload: str, recorded: dict[str, str]) -> None:
        self.workload = workload
        self.recorded = recorded
        self.first: dict[str, str] = {}
        self.checked: set[tuple[str, str]] = set()

    def judge(self, op, output: bytes | None, error: BaseException | None) -> list[str]:
        import workloads

        if error is not None:
            return [f"{op.name}: {type(error).__name__}: {error}"]
        got = workloads.digest(output)
        if op.recorded:
            want = self.recorded.get(f"{self.workload}/{op.name}")
            if want is None:
                return [f"{op.name}: no recorded digest (got {got})"]
        else:
            want = self.first.setdefault(op.name, got)
        if got != want:
            return [f"{op.name}: output digest {got} differs from {want}"]
        if (op.name, got) in self.checked:
            return []
        self.checked.add((op.name, got))
        try:
            problems = op.check(output)
        except Exception as exc:  # a malformed output fails the check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        return [f"{op.name}: {p}" for p in problems]


def _outcome(fn) -> tuple[bytes | None, BaseException | None]:
    try:
        return fn(), None
    except Exception as exc:  # the gate reports it
        return None, exc


class Runner:
    """Runs passes, gates every output and keeps the timings."""

    def __init__(self, ops, gate: Gate, sampler, tracer=None) -> None:
        self.ops = ops
        self.gate = gate
        self.sampler = sampler
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # per pass: wall and CPU seconds, and the median reference seconds
        self.passes: list[tuple[float, float, float]] = []
        self.op_walls: dict[str, list[float]] = {op.name: [] for op in ops}
        # per operation and pass: wall and CPU time in reference units, the
        # operation's time over the median reference time while it ran
        self.op_ref: dict[str, list[tuple[float, float]]] = {op.name: [] for op in ops}

    def run_op(self, op) -> tuple[float, float, list, list[str]]:
        """Time one operation; returns its wall and CPU time, the reference
        samples taken while it ran, and the gate's problems."""
        sampler = self.sampler
        first = len(sampler.samples)
        if self.tracer is not None:
            self.tracer.operation = op.name
            self.tracer.active = True
        wall, cpu = sampler.wall(), sampler.cpu()
        with sampler:
            output, error = _outcome(op.run)
        cpu = sampler.cpu() - cpu
        wall = sampler.wall() - wall
        if self.tracer is not None:
            self.tracer.active = False
        return wall, cpu, sampler.samples[first:], self.gate.judge(op, output, error)

    def run_pass(self) -> None:
        timed = []
        for op in self.ops:
            gc.collect()  # every operation starts from the same heap state
            w, c, samples, problems = self.run_op(op)
            timed.append((w, c, samples))
            self.op_walls[op.name].append(w)
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += problems
        every = [s for _, _, samples in timed for s in samples]
        if not every:  # only very short operations
            self.sampler.sample()
            every = self.sampler.samples[-1:]
        for op, (w, c, samples) in zip(self.ops, timed):
            # an operation too short to be sampled borrows the pass's samples
            ref = samples or every
            self.op_ref[op.name].append(
                (
                    w / statistics.median(s[0] for s in ref),
                    c / statistics.median(s[1] for s in ref),
                )
            )
        self.passes.append(
            (
                sum(w for w, _, _ in timed),
                sum(c for _, c, _ in timed),
                statistics.median(s[0] for s in every),
            )
        )

    def run_for(self, seconds: float, min_passes: int, after_pass=None) -> None:
        """Run passes for ``seconds``: after ``min_passes``, start another
        only when a pass of median length still fits."""
        start = perf_counter()
        while len(self.passes) < min_passes or (
            perf_counter() - start + self.median_wall() <= seconds
        ):
            self.run_pass()
            if after_pass is not None:
                after_pass()

    def median(self, key) -> float:
        return statistics.median(key(p) for p in self.passes)

    def median_wall(self) -> float:
        return self.median(lambda p: p[0])

    def in_ref(self) -> tuple[float, float]:
        """Wall and CPU time of a pass in reference units: the sum over
        operations of each one's median over passes, so a burst of contention
        in one pass spoils one operation's sample, not the pass."""
        return (
            sum(statistics.median(w for w, _ in r) for r in self.op_ref.values()),
            sum(statistics.median(c for _, c in r) for r in self.op_ref.values()),
        )


def _write_spans(path: Path, records, workload: str, seed: int, origin: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for name, parent, n, start, end, op in records:
            handle.write(
                json.dumps(
                    {
                        "workload": workload, "seed": seed, "operation": op,
                        "span": name, "parent": parent, "n": n,
                        "start": start - origin, "end": end - origin,
                    }
                )
                + "\n"
            )


def run(args, work: Path) -> tuple[dict, dict, list[str], bool]:
    """Set up, self-test the gate, run the passes; returns the metrics, the
    provenance summary, notes and problems, and whether the run is sound."""
    import clock
    import spans
    import workloads

    setup_times, setup_digests = measure_setup(args.workload, args.seed, work)
    inputs_dir = work / "inputs"
    inputs = workloads.generate(args.workload, args.seed, inputs_dir)
    ops = workloads.OPS[args.workload](inputs, inputs_dir)
    recorded = json.loads((BENCH / "digests.json").read_text())
    notes: list[str] = []
    sound = True
    mine = _file_digests(inputs_dir)
    if any(d != mine for d in setup_digests):
        notes.append("the same seed gave different inputs in different set-ups")
        sound = False

    corrupted = workloads.corrupted_census_op()
    rejected = Gate("census", recorded).judge(corrupted, *_outcome(corrupted.run))
    # rejected for the right reason: verify ran and reported the failure
    fired = any("exited 2" in problem for problem in rejected)
    notes.append(f"gate self-test: corrupted verify {'rejected' if fired else 'NOT rejected'}")
    sound = sound and fired

    gate = Gate(args.workload, recorded)
    sampler = clock.Sampler()
    items = sum(op.items for op in ops)
    origin = sampler.wall()
    if not args.trace:
        runner = Runner(ops, gate, sampler)
        runner.run_for(args.seconds, MIN_PASSES)
        wall_ref, cpu_ref = runner.in_ref()
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_ref": (wall_ref, "ref"),
            "cpu_ref": (cpu_ref, "ref"),
            "items_per_ref": (items / wall_ref, "1/ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        runners = [runner]
    else:
        plain = Runner(ops, gate, sampler)
        plain.run_for(args.seconds / 2, 1)
        tracer = spans.Tracer(sampler.wall)
        stats = spans.LayerStats()
        shapes = {op.name: op.shape for op in ops}
        traced = Runner(ops, gate, sampler, tracer)
        spans_file = ROOT / ".bench_work" / "spans" / f"{args.workload}-seed{args.seed}.jsonl"

        def collect() -> None:
            if len(traced.passes) == 1:
                _write_spans(spans_file, tracer.records, args.workload, args.seed, origin)
            stats.add_pass(tracer.records, shapes)
            tracer.records = []

        tracer.install()
        try:
            traced.run_for(args.seconds / 2, 1, collect)
        finally:
            tracer.uninstall()
        metrics = stats.metrics()
        # in seconds: the spans held in memory slow the reference samples down
        metrics["trace.overhead_s"] = (traced.median_wall() - plain.median_wall(), "s")
        notes.append(f"spans of the first traced pass: {spans_file.relative_to(ROOT)}")
        runners = [plain, traced]

    wall_s = runners[0].median_wall()
    summary = {
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "items_per_pass": items,
        "wall_s": wall_s,
        "cpu_s": runners[0].median(lambda p: p[1]),
        "items_per_s": items / wall_s,
        "reference_s": runners[0].median(lambda p: p[2]),
        "setup_s": setup_times,
        "pass_wall_s": [[p[0] for p in r.passes] for r in runners],
        "op_median_s": {
            name: statistics.median(w for r in runners for w in r.op_walls[name])
            for name in runners[0].op_walls
        },
    }
    problems = [p for r in runners for p in r.problems]
    return metrics, summary, notes + problems, sound


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_catbound()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 1
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 1

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        metrics, summary, notes, sound = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    disagree = [m["name"] for m in wanted if metrics.get(m["name"], (0, None))[1] != m["unit"]]
    disagree += sorted(set(metrics) - {m["name"] for m in wanted})
    if disagree:
        print(f"bench: BENCHMARK.json and the benchmark disagree on {disagree}", file=sys.stderr)
        return 1

    for note in notes:
        print(note, file=sys.stderr)
    attempted, failed = summary["attempted"], summary["failed"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(),
        "ops_total": attempted,
        "fail_ratio": failed / attempted,
        **summary,
    }
    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {
                "correct": sound and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
