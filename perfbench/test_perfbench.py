"""Tests of the benchmark itself: oracle, smoke runs, tamper detection.

    python3 -m pytest perfbench -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import instances
import oracle
import run
from instances import antichain, chain, grid, layered, osum, swap, union

HERE = Path(__file__).resolve().parent
TINY = 0.25


def _brute(part):
    """Fixed ideals, relations and the quotient of a small part, by exhaustion."""
    n = len(part.names)
    reach = [1 << i for i in range(n)]  # reach[i]: everything above i
    changed = True
    while changed:
        changed = False
        for a, b in part.covers:
            if reach[b] & ~reach[a]:
                reach[a] |= reach[b]
                changed = True
    down_closed = [m for m in range(1 << n) if all(not (m >> b & 1) or m >> a & 1 for a, b in part.covers)]
    fixed = 0
    for m in down_closed:
        pre = sum(1 << y for y in range(n) if m >> part.image[y] & 1)
        fixed += pre == m
    # The quotient preorder: the order plus x <-> phi(x), closed.
    pre_reach = reach[:]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for a, b in [(x, part.image[x]), (part.image[x], x)]:
                if pre_reach[b] & ~pre_reach[a]:
                    pre_reach[a] |= pre_reach[b]
                    changed = True
            for y in range(n):
                if pre_reach[x] >> y & 1 and pre_reach[y] & ~pre_reach[x]:
                    pre_reach[x] |= pre_reach[y]
                    changed = True
    classes = {frozenset(y for y in range(n) if pre_reach[x] >> y & 1 and pre_reach[y] >> x & 1) for x in range(n)}
    name = {}
    for c in classes:
        label = "[" + min(part.names[i] for i in c) + "]"
        for i in c:
            name[i] = label
    above = {(name[x], name[y]) for x in range(n) for y in range(n) if pre_reach[x] >> y & 1 and name[x] != name[y]}
    covers = {(a, b) for a, b in above if not any((a, c) in above and (c, b) in above for c in set(name.values()))}
    return {
        "count": fixed,
        "relations": sum(r.bit_count() for r in reach),
        "classes": {frozenset(part.names[i] for i in c) for c in classes},
        "covers": covers,
    }


SMALL_PARTS = [
    chain("p", 5),
    chain("p", 6, "collapse"),
    chain("p", 5, "shift"),
    chain("p", 7, "block", block=3),
    antichain("p", 4),
    grid("p", 2, 3),
    grid("p", 3, 3, "collapse"),
    grid("p", 3, 2, "rowproj"),
    layered("p", 3, 2),
    layered("p", 2, 3, "collapse"),
    swap(chain("p0", 3), chain("p1", 3)),
    swap(grid("p0", 2, 2), grid("p1", 2, 2)),
    union(chain("p0", 3), antichain("p1", 2), grid("p2", 2, 2, "rowproj")),
    osum(antichain("p0", 2), chain("p1", 3, "block", block=2)),
    osum(grid("p0", 2, 2, "rowproj"), layered("p1", 2, 2, "collapse")),
    osum(chain("p0", 3, "shift"), antichain("p1", 3)),
    union(layered("p0", 2, 2, "collapse"), chain("p1", 4, "collapse")),
]


@pytest.mark.parametrize("part", SMALL_PARTS, ids=lambda p: f"{len(p.names)}el")
def test_closed_forms_match_exhaustion(part):
    truth = _brute(part)
    assert part.count == truth["count"]
    assert part.relations == truth["relations"]
    assert {frozenset(part.names[i] for i in c) for c in part.classes} == truth["classes"]
    _, leq = oracle.expected_quotient(part)
    assert leq == truth["covers"]


def test_generator_refuses_counts_above_bound():
    big = grid("g", 10, 10)
    rng = random.Random(0)
    with pytest.raises(ValueError, match="count bound"):
        instances.poset_request("big", big, "count", rng)
    with pytest.raises(ValueError, match="list bound"):
        instances.poset_request("big", big, "list", rng)


@pytest.mark.parametrize("workload", sorted(instances.WORKLOADS))
def test_pools_follow_the_seed_and_stay_bounded(workload):
    def files(seed):
        return [r.files for r in instances.make_pool(workload, seed)]

    assert files(3) == files(3)
    assert files(3) != files(4)
    for req in instances.make_pool(workload, 3):
        if req.expect == "count" and req.files.keys() == {"P.json", "M.json"}:
            assert req.count <= instances.MAX_COUNT
        if req.expect == "list":
            assert req.count <= instances.MAX_LIST


def _declared(kind):
    return [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]]


@pytest.mark.parametrize("workload", sorted(instances.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True], ids=["e2e", "traced"])
def test_tiny_run_is_correct_and_reports_declared_metrics(workload, traced):
    result, lines = run.run(workload, 1, 0.2, traced, scale=TINY)
    assert result["correct"], lines
    assert result["failed"] == 0
    declared = _declared("per_layer" if traced else "end_to_end")
    assert sorted(result["metrics"]) == sorted(declared)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not traced:
        assert result["attempted"] >= run.MIN_ACCEPTED
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(instances.WORKLOADS))
def test_tampered_output_counts_as_error(workload, monkeypatch):
    real_serve = run.serve

    def tampered(dx, prep):
        rc, dt, err = real_serve(dx, prep)
        with open(prep.out, "a", encoding="utf-8") as fh:
            fh.write("0\n")
        return rc, dt, err

    monkeypatch.setattr(run, "serve", tampered)
    result, lines = run.run(workload, 1, 0.1, False, scale=TINY)
    assert not result["correct"]
    assert result["failed"] > 0
    error_line = next(line for line in lines if "error_rate" in line)
    assert float(error_line.split()[1]) == pytest.approx(result["failed"] / result["attempted"], rel=1e-5)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_give_self_time():
    spans = run.tracing.Spans(KeyError)
    with spans.span("request", "r"):
        with spans.span("a", "r"):
            pass
        with pytest.raises(KeyError):
            with spans.span("b", "r"):
                raise KeyError("x")
    own = spans.self_times()
    durations = [end - start for _, start, end, _, _, _ in spans.rows]
    assert own[0] == pytest.approx(durations[0] - durations[1] - durations[2])
    assert [row[5] for row in spans.rows] == ["ok", "ok", "reject"]
    assert [row[3] for row in spans.rows] == [-1, 0, 0]


def test_oracle_rejects_a_wrong_quotient():
    part = grid("g", 2, 3, "rowproj")
    req = instances.poset_request("q", part, "quotient", random.Random(0))
    classes, leq = oracle.expected_quotient(part)
    good = json.dumps({"classes": classes, "leq": [list(p) for p in leq]})
    assert oracle.check(req, 0, good, "", {}) is None
    merged = dict(classes)
    first, second = list(merged)[:2]
    merged[first] = sorted(merged[first] + merged.pop(second))
    bad = json.dumps({"classes": merged, "leq": []})
    assert oracle.check(req, 0, bad, "", {}) is not None
    assert oracle.check(req, 2, good, "", {}) is not None


def test_oracle_rejects_a_listed_non_fixpoint():
    part = chain("c", 4, "block", block=2)
    req = instances.poset_request("l", part, "list", random.Random(0))
    names = part.names
    good = "\n".join(json.dumps(m) for m in ([], names[:2], names)) + "\n"
    assert oracle.check(req, 0, good, "", {}) is None
    split = "\n".join(json.dumps(m) for m in ([], names[:1], names)) + "\n"
    assert "splits a class" in oracle.check(req, 0, split, "", {})
    gap = "\n".join(json.dumps(m) for m in ([], names[2:], names)) + "\n"
    assert "down-closed" in oracle.check(req, 0, gap, "", {})


@pytest.mark.parametrize("workload", sorted(instances.WORKLOADS))
def test_about_a_tenth_of_each_pool_is_invalid(workload):
    pool = instances.make_pool(workload, 1)
    assert 0.05 <= sum(r.expect == "reject" for r in pool) / len(pool) <= 0.2
