"""The verify ladder: fixed K-spaces, generated here, timed end to end.

    python3 bench/ladder.py --src before=PATH --src after=src \\
        [--max-seconds 300] [--out BENCH.json]

Each rung is an rkdual JSON document built in this file: the identity on
Δ³, Δ⁴, ∂Δ³, ∂Δ⁴ and ∂Δ⁵, the identity on the 7-vertex torus, the 4×4,
6×6 and 8×8 diagonal-split grids collapsed onto an edge, the 8×8 and
12×12 periodic grid tori mapped onto the 8- and 12-cycle by column, and
the identity on the 6-vertex RP² (the one rung with torsion) and on Δ⁵,
all over Z; and the torus identity and the 8×8 grid again over Q (the
rungs named ``-q``).  For every rung, each
``--src LABEL=PATH`` source tree is run ``RUNS`` (3) times, each time in a
fresh child process that imports rkdual from PATH, times one in-process
``verify`` over the rung's ring and records the sha256 of its JSON report,
so equal digests across sources mean byte-identical reports.  The child
also records, from outside, so older trees report them too:
``tensor_s``, the seconds spent in the blocked-tensor builders
``duality.tensor_k`` and ``duality.tensor_r``; ``fill_s``, those spent
in ``duality.left_times_one``, the one M ⊗ 1 fill (f ⊗ 1, T(f), the
projection and the cellular identification); ``certify_s``, those spent
in ``duality.verify_diagonal_equivalence``, the one equivalence
certificate, its validation of the map and both sides included (a tree
that lacks one of those functions leaves its field out);
``groups_s``, the
seconds spent in the checks (``checks._guard``) of each check group of
``checks.CHECK_GROUPS``, and ``checks_s``, of each check by its name;
``gc_s``, the seconds the garbage collector ran during the verify, and
``gc_collections``, its collections by generation, both through
``gc.callbacks``; and ``peak_rss_mb``, the child's peak resident memory
(``ru_maxrss``), interpreter and imports included.  The order of the sources alternates
from run to run and from rung to rung, so two trees are compared back to
back on the same host.  Each source's entry holds the median of its runs
for every time and for the peak memory, with ``wall_min_s`` and
``wall_max_s``, and ``slowest_s``, the five checks with the largest
median, slowest first; runs whose reports differ are recorded as an
error.  The result also records ``src_lines``, per source, the line
count of its ``rkdual/*.py``, the size of the package that aim 2 of the
roadmap tracks.  A child still running after ``--max-seconds`` is stopped
and the rung recorded as ``"skipped"`` for that source; rungs are never shrunk to
fit.  |X| and |K| (simplex counts) are computed here, not by rkdual.  The
exit status is 1 when a rung fails a check, errors or its runs disagree
for some source, else 0: a skip is no failure.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from itertools import combinations
from statistics import median


def closure_size(facets) -> int:
    faces = set()
    for f in facets:
        for k in range(1, len(f) + 1):
            faces.update(combinations(sorted(f), k))
    return len(faces)


def simplex(n):
    """The facet list of the full simplex on n + 1 vertices."""
    return [list(range(n + 1))]


def boundary(n):
    """The facet list of the boundary of the n-simplex (an (n-1)-sphere)."""
    return [list(f) for f in combinations(range(n + 1), n)]


def torus():
    """The 7-vertex (Möbius) torus."""
    return [sorted([i, (i + 1) % 7, (i + 3) % 7]) for i in range(7)] + \
        [sorted([i, (i + 2) % 7, (i + 3) % 7]) for i in range(7)]


def rp2():
    """The 6-vertex real projective plane: H_1 = Z/2 over Z."""
    return [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
            [1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5]]


def _complex(facets, name):
    verts = sorted({v for f in facets for v in f})
    return {"vertices": [name(v) for v in verts],
            "simplices": [[name(v) for v in f] for f in facets]}


def identity_rung(facets):
    def name(v):
        return f"v{v}"
    cx = _complex(facets, name)
    doc = {"complexes": {"X": cx},
           "maps": {"pi": {"source": "X", "target": "X",
                           "vertices": {v: v for v in cx["vertices"]}}},
           "ring": "Z"}
    return doc, closure_size(facets), closure_size(facets)


def grid_rung(n):
    """The n×n grid, each square split along a diagonal, mapped onto an
    edge: column <= n/2 goes to one end, the rest to the other."""
    facets = []
    for r in range(n):
        for c in range(n):
            facets.append([(r, c), (r, c + 1), (r + 1, c + 1)])
            facets.append([(r, c), (r + 1, c), (r + 1, c + 1)])

    def name(v):
        return f"r{v[0]}c{v[1]}"
    x = _complex(facets, name)
    pi = {name((r, c)): "k0" if c <= n / 2 else "k1"
          for r in range(n + 1) for c in range(n + 1)}
    doc = {"complexes": {"X": x,
                         "K": {"vertices": ["k0", "k1"],
                               "simplices": [["k0", "k1"]]}},
           "maps": {"pi": {"source": "X", "target": "K", "vertices": pi}},
           "ring": "Z"}
    return doc, closure_size(facets), 3


def torus_circle_rung(n):
    """The n×n periodic grid torus, each square split along a diagonal,
    mapped onto the n-cycle by column: the control complex has homology
    in degrees 0 and 1 and is not X."""
    facets = []
    for r in range(n):
        for c in range(n):
            a, b = (r + 1) % n, (c + 1) % n
            facets.append([(r, c), (r, b), (a, b)])
            facets.append([(r, c), (a, c), (a, b)])

    def name(v):
        return f"r{v[0]}c{v[1]}"
    x = _complex(facets, name)
    cycle = [[f"k{c}", f"k{(c + 1) % n}"] for c in range(n)]
    doc = {"complexes": {"X": x,
                         "K": {"vertices": [f"k{c}" for c in range(n)],
                               "simplices": cycle}},
           "maps": {"pi": {"source": "X", "target": "K",
                           "vertices": {name((r, c)): f"k{c}"
                                        for r in range(n)
                                        for c in range(n)}}},
           "ring": "Z"}
    return doc, closure_size(facets), closure_size(cycle)


def over_q(rung):
    """The document, |X| and |K| of ``rung``, with the ring set to Q."""
    doc, x, k = rung
    return {**doc, "ring": "Q"}, x, k


RUNGS = (
    ("id-simplex-3", lambda: identity_rung(simplex(3))),
    ("id-simplex-4", lambda: identity_rung(simplex(4))),
    ("id-sphere-2", lambda: identity_rung(boundary(3))),
    ("id-sphere-3", lambda: identity_rung(boundary(4))),
    ("id-sphere-4", lambda: identity_rung(boundary(5))),
    ("id-torus-7", lambda: identity_rung(torus())),
    ("grid-4-edge", lambda: grid_rung(4)),
    ("grid-6-edge", lambda: grid_rung(6)),
    ("grid-8-edge", lambda: grid_rung(8)),
    ("torus-8-circle", lambda: torus_circle_rung(8)),
    ("torus-12-circle", lambda: torus_circle_rung(12)),
    ("id-torus-7-q", lambda: over_q(identity_rung(torus()))),
    ("grid-8-edge-q", lambda: over_q(grid_rung(8))),
    ("id-rp2", lambda: identity_rung(rp2())),
    ("id-simplex-5", lambda: identity_rung(simplex(5))),
    ("id-sphere-5", lambda: identity_rung(boundary(6))),
)

# runs per rung and source: one run cannot tell a change from host drift
RUNS = 3


def _timed(fn, spent, key):
    """``fn``, adding the seconds of each call to ``spent[key]``."""
    def run(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[key] = spent.get(key, 0.0) + time.perf_counter() - started
    return run


# the timers of time_tensors: (key, function of rkdual.duality it times)
TIMED = (("tensor", "tensor_k"), ("tensor", "tensor_r"),
         ("fill", "left_times_one"),
         ("certify", "verify_diagonal_equivalence"))


def time_tensors():
    """Route every binding of ``duality.tensor_k`` and ``duality.tensor_r``
    in the imported rkdual modules through one timer, every binding of
    ``duality.left_times_one`` through another and every binding of
    ``duality.verify_diagonal_equivalence`` through a third, from outside,
    so any source tree can be timed; returns the dict whose entries
    ``"tensor"``, ``"fill"`` and ``"certify"`` sum the seconds spent in
    them.  Only the functions the tree has are timed: ``left_times_one``,
    for one, is missing from older trees."""
    from rkdual import duality
    spent = {}
    builders = [(fn, _timed(fn, spent, key)) for key, name in TIMED
                if (fn := getattr(duality, name, None)) is not None]
    for name, module in list(sys.modules.items()):
        if name == "rkdual" or name.startswith("rkdual."):
            for key, value in list(vars(module).items()):
                for fn, wrapper in builders:
                    if value is fn:
                        setattr(module, key, wrapper)
    return spent


def timer_fields(spent) -> dict:
    """The ``*_s`` field of each timer of :func:`time_tensors`, in the order
    of ``TIMED``, with the seconds ``spent`` in it; a timer whose functions
    the imported tree lacks has no field."""
    from rkdual import duality
    return {f"{key}_s": round(spent.get(key, 0.0), 3) for key, name in TIMED
            if hasattr(duality, name)}


def time_groups():
    """Time every check run through ``checks._guard``, by the check group
    of ``checks.CHECK_GROUPS`` whose function runs it and by the check's
    name; returns the dicts of seconds by group and by check."""
    from rkdual import checks
    spent, by_check, group, guard = {}, {}, [None], checks._guard

    def entering(name, fn):
        def run(*args, **kwargs):
            group[0] = name
            return fn(*args, **kwargs)
        return run

    def timed_guard(report, name, *args):
        started = time.perf_counter()
        try:
            return guard(report, name, *args)
        finally:
            took = time.perf_counter() - started
            spent[group[0]] = spent.get(group[0], 0.0) + took
            by_check[name] = by_check.get(name, 0.0) + took
    checks._guard = timed_guard
    checks.CHECK_GROUPS = tuple(
        (name, tuple(entering(name, fn) for fn in fns))
        for name, fns in checks.CHECK_GROUPS)
    return spent, by_check


def time_collector():
    """Time every collection of the garbage collector through
    ``gc.callbacks``; returns the dict of the seconds they took, under
    ``"gc"``, and of the collections of each generation, under its number
    as a string."""
    spent = {"gc": 0.0, "0": 0, "1": 0, "2": 0}
    started = [0.0]

    def callback(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            spent["gc"] += time.perf_counter() - started[0]
            spent[str(info["generation"])] += 1
    gc.callbacks.append(callback)
    return spent


def child(src):
    """Verify the document on stdin with rkdual from ``src``; print the
    wall time, the seconds spent building blocked tensors, filling M ⊗ 1,
    certifying equivalences and in each check group, the collector's
    seconds and collections, the peak
    resident memory, the number of checks, whether all of them passed and
    the sha256 of the JSON report."""
    sys.path.insert(0, os.path.abspath(src))
    from rkdual.checks import run_command
    tensor, (groups, by_check) = time_tensors(), time_groups()
    doc = json.load(sys.stdin)
    collector = time_collector()
    started = time.perf_counter()
    report = run_command("verify", doc)
    wall = time.perf_counter() - started
    gc.callbacks.clear()
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    # ru_maxrss is in kilobytes on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"wall_s": round(wall, 3), **timer_fields(tensor),
                      "groups_s": {k: round(v, 3) for k, v in groups.items()},
                      "checks_s": {k: round(v, 3)
                                   for k, v in by_check.items()},
                      "gc_s": round(collector.pop("gc"), 3),
                      "gc_collections": collector,
                      "peak_rss_mb": round(rss, 1),
                      "checks": len(report.checks),
                      "passed": report.passed, "report_sha256": digest}))


def src_lines(src) -> int:
    """The number of lines of the ``rkdual/*.py`` files of the source tree
    ``src``."""
    total = 0
    for path in glob.glob(os.path.join(src, "rkdual", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def run_rung(doc, src, max_seconds):
    try:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", src],
            input=json.dumps(doc), capture_output=True, text=True,
            timeout=max_seconds)
    except subprocess.TimeoutExpired:
        return "skipped"
    if out.returncode != 0:
        lines = out.stderr.strip().splitlines()
        return {"error": lines[-1] if lines else f"exit {out.returncode}"}
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(runs):
    """One source's entry for a rung: its first skip or error, if any;
    else the median of each time, of the collections of each generation
    and of the peak memory over the runs, the spread of the wall time, the five slowest checks by their median,
    and the checks, verdict and report digest they all share."""
    for got in runs:
        if not isinstance(got, dict) or "error" in got:
            return got
    shared = {(got["checks"], got["passed"], got["report_sha256"])
              for got in runs}
    if len(shared) != 1:
        return {"error": "the runs disagree on their reports"}

    def mid(values):
        return round(median(values), 3)
    walls = [got["wall_s"] for got in runs]
    by_check = sorted((-mid(got["checks_s"][c] for got in runs), c)
                      for c in runs[0]["checks_s"])
    return {"wall_s": mid(walls), "wall_min_s": min(walls),
            "wall_max_s": max(walls),
            **{key: mid(got[key] for got in runs)
               for key in ("tensor_s", "fill_s", "certify_s")
               if key in runs[0]},
            "groups_s": {g: mid(got["groups_s"][g] for got in runs)
                         for g in runs[0]["groups_s"]},
            "slowest_s": {c: -t for t, c in by_check[:5]},
            "gc_s": mid(got["gc_s"] for got in runs),
            "gc_collections": {g: median(got["gc_collections"][g]
                                         for got in runs)
                               for g in runs[0]["gc_collections"]},
            "peak_rss_mb": round(median(got["peak_rss_mb"] for got in runs),
                                 1),
            "checks": runs[0]["checks"], "passed": runs[0]["passed"],
            "report_sha256": runs[0]["report_sha256"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", default=[],
                        metavar="LABEL=PATH",
                        help="a source tree (its src/ directory) to time")
    parser.add_argument("--max-seconds", type=float, default=300.0)
    parser.add_argument("--out", default=None,
                        help="write the JSON result here as well as stdout")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child)
        return 0
    sources = []
    for item in args.src:
        label, sep, path = item.partition("=")
        if not sep or not label or not path:
            parser.error(f"--src wants LABEL=PATH, got {item!r}")
        sources.append((label, path))
    if not sources:
        parser.error("give at least one --src LABEL=PATH")
    rungs = []
    for n, (name, make) in enumerate(RUNGS):
        doc, x, k = make()
        runs = {label: [] for label, _ in sources}
        for r in range(RUNS):
            order = sources if (n + r) % 2 == 0 else sources[::-1]
            for label, path in order:
                if all(isinstance(got, dict) and "error" not in got
                       for got in runs[label]):
                    got = run_rung(doc, path, args.max_seconds)
                    runs[label].append(got)
                    print(name, label, json.dumps(got), file=sys.stderr,
                          flush=True)
        row = {"rung": name, "X": x, "K": k}
        row.update((label, summarize(runs[label])) for label, _ in sources)
        rungs.append(row)
    result = {
        "command": "verify over the rung's ring, one in-process run per "
                   "child; medians over the runs of each rung and source",
        "runs": RUNS,
        "sources": [label for label, _ in sources],
        "src_lines": {label: src_lines(path) for label, path in sources},
        "max_seconds": args.max_seconds,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "rungs": rungs,
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    failed = [f"{row['rung']} ({label})" for row in rungs
              for label, _ in sources if isinstance(row[label], dict)
              and ("error" in row[label] or not row[label]["passed"])]
    if failed:
        print("failed, errored or disagreed: " + ", ".join(failed),
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
