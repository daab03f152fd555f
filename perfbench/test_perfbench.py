"""Tests of the benchmark itself: inputs, expectations, tracer and contract.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from pacer import NOMINAL_S, Pacer  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

run.load_program()


# Simplices per dimension of X and of K, pinned at the commit that defined
# the benchmark.  A change here changes what every workload measures.
CENSUS = {
    "grid-collapse": {"source": [25, 56, 32], "target": [2, 1]},
    "grid-collapse-q": {"source": [16, 33, 18], "target": [2, 1]},
    "torus-identity": {"source": [7, 21, 14], "target": [7, 21, 14]},
}
RANDOM_POOL_CENSUS = {"source": [4536, 2942, 1456, 289],
                      "target": [2537, 2569, 1294, 262]}


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_fixed_complex_census_is_pinned_on_every_seed(name):
    for seed in (0, 1, 17):
        docs = workloads.WORKLOADS[name].documents(seed)
        assert len(docs) == workloads.RELABELINGS
        for doc in docs:
            assert workloads.census(doc) == CENSUS[name]


def test_random_pool_census_is_pinned():
    docs = workloads.WORKLOADS["random-sweep"].documents(0)
    assert len(docs) == workloads.RANDOM_POOL
    total = {"source": [0] * 4, "target": [0] * 4}
    for doc in docs:
        for side, counts in workloads.census(doc).items():
            assert len(counts) <= 4
            for d, n in enumerate(counts):
                total[side][d] += n
    assert total == RANDOM_POOL_CENSUS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_documents_come_from_the_seed_alone(name):
    w = workloads.WORKLOADS[name]
    assert w.documents(3) == w.documents(3)
    assert w.documents(3) != w.documents(4)


def test_relabelling_changes_the_canonical_order():
    first, second = workloads.WORKLOADS["torus-identity"].documents(0)[:2]
    assert first["complexes"]["X"]["vertices"] == second["complexes"]["X"]["vertices"]
    assert first["complexes"]["X"]["simplices"] != second["complexes"]["X"]["simplices"]


def test_textbook_expectations():
    torus = workloads.WORKLOADS["torus-identity"].documents(0)[0]
    grid = workloads.WORKLOADS["grid-collapse"].documents(0)[0]
    assert workloads.euler(torus) == 0 and workloads.euler(grid) == 1
    # identity control: one cell (T, s) for every face s of T
    assert workloads.cell_census(torus) == {"0": 42, "1": 84, "2": 42}
    # a simplex whose image is an edge gives three cells, any other one
    x = grid["complexes"]["X"]["simplices"]
    pi = grid["maps"]["pi"]["vertices"]
    across = sum(1 for s in workloads.closure(x) if len({pi[v] for v in s}) == 2)
    assert across == 17
    assert workloads.cell_census(grid) == {"0": 34, "1": 73, "2": 40}
    assert sum(workloads.cell_census(grid).values()) == 113 + 2 * across


def test_tail_has_ten_samples_beyond_it_or_is_the_90th_percentile():
    assert run.tail(list(range(1000))) == (989, 10)
    assert run.tail(list(range(20))) == (pytest.approx(17.1), 2)
    assert run.tail([3.0, 1.0, 2.0]) == (pytest.approx(2.8), 1)
    assert run.tail([5.0]) == (5.0, 0)


def test_pacer_scales_by_the_probes_in_and_next_to_a_sample():
    pacer = Pacer()
    pacer.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    pacer.probes = [NOMINAL_S, 2 * NOMINAL_S, 4 * NOMINAL_S, 4 * NOMINAL_S,
                    NOMINAL_S]
    assert pacer.scale(1.5, 1.8) == pytest.approx(1 / 3)        # probes 1, 2
    assert pacer.scale(1.5, 3.5) == pytest.approx(4 / 11)       # probes 1-4
    assert pacer.scale(-1.0, -0.5) == pytest.approx(1.0)        # probe 0
    assert pacer.scale(5.0, 6.0) == pytest.approx(1.0)          # probe 4


def test_probe_time_is_left_out_of_the_verdict():
    bench = _bench("grid-collapse-q")
    pacer = Pacer()
    pacer.install()
    try:
        took, started, ended = bench.verdict(0, pacer)
    finally:
        pacer.remove()
    assert len(pacer.probes) > 2
    assert took < ended - started
    assert pacer.scale(started, ended) > 0


def _bench(name, seed=0):
    return run.Bench(workloads.WORKLOADS[name], seed)


def test_a_clean_report_counts_no_miss():
    bench = _bench("grid-collapse-q")
    bench.verdict(0)
    assert (bench.attempted, bench.failed) == (36, 0)


def test_every_kind_of_miss_is_counted():
    bench = _bench("torus-identity")
    doc = bench.docs[0]
    parsed = bench.parse(doc)
    (name, ks), = parsed.kspaces
    report = bench.report_cls("verify", str(parsed.ring))
    bench.battery(report, name, ks, parsed.ring)
    payload = json.loads(report.to_json())
    bench._check(0, doc, payload)
    assert bench.failed == 0
    checks = payload["checks"]
    homology = next(c for c in checks if c["name"] == "cells/homology")
    homology["details"]["homology"] = {"0": "Z", "1": "Z", "2": "Z"}
    checks[0]["passed"] = False
    del checks[-1]
    bench._check(0, doc, payload)
    assert bench.failed == 3


def test_tracer_rebinds_from_imports_and_restores_them():
    import rkdual.checks as checks
    import rkdual.rkcore as rkcore
    from rkdual.linalg import Matrix
    originals = (checks.is_full, rkcore.is_full, checks.CHECK_GROUPS,
                 vars(Matrix)["__mul__"], vars(checks.KSpaceData)["build"])
    tracer = Tracer().install()
    try:
        assert not tracer.missing
        assert checks.is_full is rkcore.is_full is not originals[0]
        assert checks.is_full.__wrapped__ is originals[0]
        assert all(fn.__wrapped__ for _, fns in checks.CHECK_GROUPS for fn in fns)
    finally:
        tracer.remove()
    assert (checks.is_full, rkcore.is_full, checks.CHECK_GROUPS,
            vars(Matrix)["__mul__"], vars(checks.KSpaceData)["build"]) == originals


def test_every_target_names_a_span():
    assert {name for _, _, name in TARGETS} >= {
        m.rsplit("_", 1)[0] for m in run.PER_LAYER
        if m.endswith(("_calls", "_s")) and not m.startswith("trace.")}


def test_traced_counts_reach_snf_and_repeat_exactly():
    grid, _ = run.run_traced(_bench("grid-collapse"), "test-grid")
    assert grid["linalg.snf_calls"][0] > 0
    assert grid["linalg.snf_mn"][0] > 0
    first, _ = run.run_traced(_bench("random-sweep"), "test-random")
    second, _ = run.run_traced(_bench("random-sweep"), "test-random")
    assert first["linalg.snf_calls"][0] == 0
    assert first["duality.square_calls"][0] == workloads.WORKLOADS[
        "random-sweep"].trace_docs
    counts = [m for m, (_, unit) in first.items() if unit == "count"]
    assert {"linalg.matmul_calls", "ballcomplex.dual_cell_calls"} <= set(counts)
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_result_line_contract():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-sweep",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout
