"""The rkdual benchmark: K-spaces brought to a verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are generated from ``--seed`` (see ``workloads.py``) and
handed to rkdual as JSON documents.  Each K-space is parsed outside the
timed region, then timed from ``KSpaceData.build`` through the check battery
to the rendered JSON report, whose verdicts are checked against expectations
that do not come from rkdual.

``--trace 0`` measures for ``--seconds`` seconds and reports the end-to-end
metrics.  ``--trace 1`` verifies each document of a fixed prefix twice, once
plain and once under the tracer, and reports the per-layer metrics and the
tracing overhead; its counts repeat exactly for a given seed.  Spans are
written to ``.perfbench/``.  Every metric is printed by name with its unit;
the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from workloads import WORKLOADS, cell_census, euler  # noqa: E402
from tracer import Tracer  # noqa: E402
from pacer import NOMINAL_S, Pacer  # noqa: E402

SETUP_REPEATS = 11
END_TO_END = (("setup_s", "s"), ("verify_s", "s"), ("verify_tail_s", "s"),
              ("kspaces_per_s", "1/s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    "linalg.snf_calls", "linalg.snf_s", "linalg.snf_mn", "linalg.snf_nnz",
    "linalg.snf_max_mn", "linalg.cone_acyclic_calls", "linalg.cone_acyclic_s",
    "linalg.matmul_calls", "linalg.matmul_s", "linalg.column_calls",
    "linalg.column_s",
    "duality.square_calls", "duality.object_calls",
    "duality.double_dual_map_calls", "duality.tensor_k_calls",
    "duality.tensor_k_s", "duality.tensor_gens", "duality.tensor_map_left_s",
    "duality.cone_labels",
    "rkcore.is_full_calls", "rkcore.is_full_s", "rkcore.hom_rk_calls",
    "rkcore.hom_rk_s", "rkcore.diagonal_component_calls",
    "rkcore.diagonal_component_s", "rkcore.delta_complexes_s",
    "ballcomplex.ball_s", "ballcomplex.cellular_s", "ballcomplex.cellular_iso_s",
    "ballcomplex.dual_cell_calls", "ballcomplex.dual_cell_s",
    "capproduct.fundamental_cycle_map_s", "capproduct.cap_chain_map_s",
    "capproduct.equivalences_s",
    "simplicial.subdivision_calls", "simplicial.subdivision_s",
    "checks.build_s", "checks.soundness_s", "checks.assembly_s",
    "checks.tensor_s", "checks.duality_s", "checks.cells_s", "checks.cap_s",
    "checks.equivalences_s", "checks.naturality_s",
    "report.to_json_s",
    "trace.overhead",
)


class Bench:
    """One workload's documents, driven through the installed rkdual."""

    def __init__(self, workload, seed):
        from rkdual.checks import parse_document, quick_sweep_kspace, verify_kspace
        from rkdual.report import Report
        self.workload = workload
        self.docs = workload.documents(seed)
        self.parse = parse_document
        self.battery = (verify_kspace if workload.command == "verify"
                        else quick_sweep_kspace)
        self.report_cls = Report
        self.expected = sum(workload.group_counts.values())
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def verdict(self, index: int, pacer: Pacer | None = None):
        """Verify document ``index`` (cyclically); returns the timed seconds,
        less any time ``pacer`` spent probing inside them, with the start
        and end of the timed interval."""
        doc = self.docs[index % len(self.docs)]
        parsed = self.parse(doc)
        (name, ks), = parsed.kspaces
        probing = pacer.spent if pacer else 0.0
        started = time.perf_counter()
        try:
            report = self.report_cls(self.workload.command, str(parsed.ring))
            self.battery(report, name, ks, parsed.ring)
            text = report.to_json()
        except Exception as exc:   # an escaped crash fails every check
            text = None
            crash = f"doc {index}: {type(exc).__name__}: {exc}"
        ended = time.perf_counter()
        elapsed = ended - started - ((pacer.spent if pacer else 0.0) - probing)
        self.attempted += self.expected
        if text is None:
            self._miss(self.expected, crash)
        else:
            self._check(index, doc, json.loads(text))
        return elapsed, started, ended

    def _miss(self, n, note):
        self.failed += n
        if len(self.notes) < 10:
            self.notes.append(note)

    def _check(self, index, doc, payload):
        w = self.workload
        groups = {}
        for check in payload["checks"]:
            group = check["name"].split("/", 1)[0]
            groups[group] = groups.get(group, 0) + 1
            if not check["passed"]:
                self._miss(1, f"doc {index}: {check['name']} failed")
        for group in set(groups) | set(w.group_counts):
            off = abs(groups.get(group, 0) - w.group_counts.get(group, 0))
            if off:
                self._miss(off, f"doc {index}: {group} ran {groups.get(group, 0)}"
                                f" checks, expected {w.group_counts.get(group, 0)}")
        wanted = {"soundness/subdivision-euler": ("chi", euler(doc))}
        if w.homology is not None:
            wanted["cells/homology"] = ("homology", w.homology)
            wanted["cells/dual-homology"] = ("homology", w.homology)
            wanted["cells/census"] = ("census", cell_census(doc))
        for check in payload["checks"]:
            if check["name"] in wanted:
                key, value = wanted[check["name"]]
                if check["details"].get(key) != value:
                    self._miss(1, f"doc {index}: {check['name']} reported "
                                  f"{check['details'].get(key)!r}, expected {value!r}")


def setup_seconds(docs, pacer):
    """Median over fresh processes of import + parse + validate, each scaled
    to the reference speed by the probes just before and after it; also
    returns the unscaled median."""
    text = json.dumps(docs)
    child = [sys.executable, os.path.join(HERE, "setup_child.py"), SRC]
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):          # the first one warms caches
        pacer.sample()
        started = time.perf_counter()
        out = subprocess.run(child, input=text, capture_output=True, text=True,
                             check=True, timeout=120)
        ended = time.perf_counter()
        pacer.sample()
        if i:
            took = float(out.stdout.strip().splitlines()[-1])
            raw.append(took)
            scaled.append(took * pacer.scale(started, ended))
    return statistics.median(scaled), statistics.median(raw)


def tail(samples):
    """The highest order statistic with at least ten samples beyond it, or
    the 90th percentile when that is higher (always, below 110 samples);
    returns (value, number of samples beyond it)."""
    ordered = sorted(samples)
    n = len(ordered)
    value = ordered[-1] if n == 1 else statistics.quantiles(
        ordered, n=10, method="inclusive")[-1]
    if n > 10:
        value = max(value, ordered[n - 11])
    return value, sum(1 for s in ordered if s > value)


def run_untraced(bench, seconds):
    pacer = Pacer()
    setup, setup_raw = setup_seconds(bench.docs, pacer)
    timed = []
    pacer.install()
    try:
        deadline = time.perf_counter() + seconds
        while not timed or time.perf_counter() < deadline:
            timed.append(bench.verdict(len(timed), pacer))
    finally:
        pacer.remove()
    raw = [took for took, _, _ in timed]
    samples = [took * pacer.scale(start, end) for took, start, end in timed]
    per_doc = {}
    for i, took in enumerate(samples):
        per_doc.setdefault(i % len(bench.docs), []).append(took)
    tail_value, beyond = tail([statistics.median(t) for t in per_doc.values()])
    metrics = {
        "setup_s": setup,
        "verify_s": statistics.median(samples),
        "verify_tail_s": tail_value,
        "kspaces_per_s": len(samples) / sum(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = [f"samples: {len(samples)} verdicts of {len(per_doc)} K-spaces; "
            f"verify_tail_s ranks each K-space by its median verdict time and "
            f"has {beyond} of them beyond it",
            f"host speed: {len(pacer.probes)} probes, median "
            f"{statistics.median(pacer.probes) * 1e3:.2f} ms against "
            f"{NOMINAL_S * 1e3:.0f} ms at the reference speed; times below are "
            f"scaled to it",
            f"unscaled wall time: setup_s {setup_raw:.6g} s, verify_s "
            f"{statistics.median(raw):.6g} s, kspaces_per_s "
            f"{len(raw) / sum(raw):.6g} 1/s"]
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, info


def run_traced(bench, label):
    n = bench.workload.trace_docs
    tracer = Tracer()
    plain = traced = 0.0
    for i in range(n):             # alternate, so drift hits both passes alike
        plain += bench.verdict(i)[0]
        tracer.serve(f"doc{i}")
        tracer.install()
        try:
            traced += bench.verdict(i)[0]
        finally:
            tracer.remove()
    totals = tracer.totals()
    values = dict(tracer.counters)
    for name, (calls, self_s, incl_s) in totals.items():
        values[name + "_calls"] = calls
        values[name + "_s"] = incl_s if name.startswith("checks.") else self_s
    values["trace.overhead"] = traced / plain - 1
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{label}.json")
    tracer.write(path)
    info = [f"traced {n} document(s): {plain:.3f} s plain, {traced:.3f} s "
            f"traced; {len(tracer.start)} spans written to {path}"]
    if tracer.missing:
        info.append("not found in the program (reported as 0): "
                    + ", ".join(tracer.missing))
    metrics = {}
    for name in PER_LAYER:
        unit = ("s" if name.endswith("_s") else
                "ratio" if name == "trace.overhead" else "count")
        metrics[name] = (values.get(name, 0), unit)
    return metrics, info


def load_program():
    """Import rkdual from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "rkdual", "__init__.py")):
        sys.exit(f"perfbench: no rkdual sources under {SRC}; run from the "
                 "root of a source checkout")
    sys.path.insert(0, SRC)
    import rkdual
    if os.path.dirname(os.path.dirname(os.path.abspath(rkdual.__file__))) != SRC:
        sys.exit(f"perfbench: rkdual was imported from {rkdual.__file__}, "
                 f"not from {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    bench = Bench(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, info = run_traced(bench, f"{args.workload}-seed{args.seed}")
    else:
        metrics, info = run_untraced(bench, args.seconds)
    correct = bench.failed == 0
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    for line in info:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  {'failed_ratio':36s} {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted} checks)")
    for note in bench.notes:
        print(f"  miss: {note}")
    print(f"verdict: {'correct' if correct else 'INCORRECT'}")
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
