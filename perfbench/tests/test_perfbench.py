"""The benchmark's own checks: tracing leaves outputs unchanged, the output
checker catches a wrong ranking and a wrong MAP, and a failed operation counts
once however many checks it fails.

    PYTHONPATH=src python -m pytest perfbench/tests
"""

import math

import numpy as np
import pytest

import layers
from checks import COLUMN_FILES, MAP_COLUMNS, brute_force_topk, check_maps, check_topk, parse_map_matrix
from spans import Patches, Tracer
from workloads import EvalSweep


class SmallEvalSweep(EvalSweep):
    # two folds of 32 videos in two clusters: enough expanded pairs for one 128-pair batch
    videos = 64
    clusters = 2
    folds = 2


def test_traced_eval_reports_are_byte_identical(tmp_path):
    wl = SmallEvalSweep(seed=0, workdir=tmp_path)
    wl.setup()
    plain = wl.run()
    tracer = Tracer()
    with Patches() as patches:
        assert layers.install(patches, tracer) == []
        traced = wl.run()
    for raw in (plain, traced):
        assert wl.check(raw).failures == []
    files = wl.fingerprint(plain)
    assert len(files) == 1 + 2 * 16
    assert files == wl.fingerprint(traced)
    calls = {name: agg["calls"] for name, agg in tracer.totals().items()}
    for name, want in wl.expected_calls().items():
        assert calls.get(name, 0) == want, name
    # the wrappers are gone again: a second untraced run records nothing new
    before = len(tracer.spans)
    wl.run()
    assert len(tracer.spans) == before


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer.wrapper("outer")(lambda f: f())
    inner = tracer.wrapper("inner")(lambda: sum(range(10000)))
    outer(inner)
    totals = tracer.totals()
    assert totals["outer"]["calls"] == totals["inner"]["calls"] == 1
    assert math.isclose(totals["outer"]["self_s"] + totals["inner"]["s"], totals["outer"]["s"])
    assert tracer.top_level_s() == totals["outer"]["s"]


def _index(rng):
    ids = [f"mv{i:05d}" for i in range(30)]
    emb = rng.normal(size=(30, 4))
    return ids, emb


def test_topk_checker_accepts_the_programs_ranking():
    from avembed import retrieval

    rng = np.random.default_rng(1)
    ids, emb = _index(rng)
    query = rng.normal(size=4)
    index = retrieval.build_index(emb, np.zeros(30), ids)
    got = retrieval.rank(index, query, n=10).items
    assert check_topk(got, brute_force_topk(ids, emb, query, 10)) == []


def test_topk_checker_flags_a_perturbed_ranking():
    rng = np.random.default_rng(2)
    ids, emb = _index(rng)
    query = rng.normal(size=4)
    expected = brute_force_topk(ids, emb, query, 10)
    swapped = list(expected)
    swapped[3], swapped[4] = swapped[4], swapped[3]
    assert check_topk(swapped, expected)
    nudged = [(vid, sim + 1e-6) if i == 0 else (vid, sim) for i, (vid, sim) in enumerate(expected)]
    assert check_topk(nudged, expected)


def test_brute_force_breaks_ties_by_ascending_id():
    emb = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    assert [v for v, _ in brute_force_topk(["b", "a", "c"], emb, np.array([1.0, 0.0]), 2)] == ["a", "b"]


MATRIX = "method,1/3,2/6,3/9,mean\ncca,0.9,0.8,0.7,0.6\nkcca,error,0.5,1.2,nan\n"


def test_map_checker_flags_perturbed_maps():
    maps = parse_map_matrix(MATRIX)
    failures = check_maps(maps)
    # the error cell, MAP > 1 and NaN
    assert [cell for cell, _ in failures] == [("kcca", 0), ("kcca", 2), ("kcca", 3)]
    good = {"cca": [0.9, 0.8, 0.7, 0.6]}
    assert check_maps(good, {"cca": [0.9, 0.8, 0.7, 0.6]}, 1e-6) == []
    perturbed = {"cca": [0.9, 0.8, 0.7, 0.6 + 1e-4]}
    assert len(check_maps(perturbed, {"cca": [0.9, 0.8, 0.7, 0.6]}, 1e-6)) == 1


def test_map_matrix_header_is_checked():
    with pytest.raises(ValueError):
        parse_map_matrix("method,a,b\ncca,1,2\n")


def test_failed_counts_operations_not_messages(tmp_path):
    wl = SmallEvalSweep(seed=0, workdir=tmp_path)
    out_dir = tmp_path / "eval"
    out_dir.mkdir()
    rows = ["method," + ",".join(MAP_COLUMNS)]
    for method in wl.methods:
        rows.append(",".join([method, *("error" if (method, j) == ("kcca", 1) else "0.5" for j in range(4))]))
        for j, name in enumerate(COLUMN_FILES):
            if (method, j) not in {("kcca", 1), ("cca", 3)}:
                (out_dir / f"pr_{method}_{name}.csv").write_text("")
                (out_dir / f"report_{method}_{name}.json").write_text("")
    (out_dir / "map_matrix.csv").write_text("\n".join(rows) + "\n")
    result = wl.check({"code": 3, "stderr": "eval cell kcca/2/6 failed", "out_dir": out_dir})
    # three messages: the exit code, the error cell, cca's missing report files
    assert len(result.failures) == 3
    assert result.ops == 16
    assert result.failed == {("kcca", 1), ("cca", 3)}
