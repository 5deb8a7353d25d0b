"""Tests of the benchmark itself: checkers reject corrupted answers, and two
traced runs with the same seed report identical exact counts.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import argparse
import dataclasses
import json

import pytest

import run
from workloads import WORKLOADS, CountTable, DecomposeCli, ReorientQueries, VerifySweep

ct = run.import_cyclotope()


def _answer(workload, op):
    result = workload.execute(ct, op)
    assert workload.check(op, result) is None
    return result


def _edit_json(result, edit):
    rc, text = result
    record = json.loads(text)
    edit(record)
    return rc, json.dumps(record)


@pytest.mark.parametrize("corrupt", [
    lambda r: _edit_json(r, lambda rec: rec["x"].__setitem__(0, -rec["x"][0] or 1)),
    lambda r: _edit_json(r, lambda rec: rec.__setitem__("size", rec["size"] + 2)),
    lambda r: _edit_json(r, lambda rec: rec["terms"].pop()),
    lambda r: (1, r[1]),
])
def test_decompose_checker_rejects(corrupt):
    workload = DecomposeCli(3)
    op = workload.warmup_op()
    assert workload.check(op, corrupt(_answer(workload, op))) is not None


def _replace_item(seq, i, value):
    seq = list(seq)
    seq[i] = value
    return seq


@pytest.mark.parametrize("corrupt", [
    lambda r: (_replace_item(r[0], 0, dataclasses.replace(r[0][0], equal=not r[0][0].equal)), *r[1:]),
    lambda r: (r[0], _replace_item(r[1], 0, (r[1][0][0], r[1][0][1] + 2, r[1][0][2])), *r[2:]),
    lambda r: (*r[:2], -r[2], *r[3:]),
    lambda r: (*r[:4], r[4][:-1], r[5]),
    lambda r: (*r[:5], (r[5][0] + 1, r[5][1])),
])
def test_reorient_checker_rejects(corrupt):
    workload = ReorientQueries(3)
    workload.prepare(ct)
    op = workload._request(workload.heavy_index, heavy=True)
    assert workload.check(op, corrupt(_answer(workload, op))) is not None


def _bump_last_count(result):
    rc, text = result
    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[3] = str(int(cells[3]) + 1)
    return rc, "\n".join(lines[:-1] + [",".join(cells)]) + "\n"


def _bump_enum(result):
    rc, text = result
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[4] = str(int(cells[4]) + 1)
    return rc, "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"


@pytest.mark.parametrize("op, corrupt", [
    (("stats", 36, "csv"), _bump_last_count),
    (("stats", 36, "json"), lambda r: _edit_json(r, lambda rows: rows.pop())),
    (("enum", 14, "csv"), _bump_enum),
])
def test_count_checker_rejects(op, corrupt):
    workload = CountTable(3)
    assert workload.check(op, corrupt(_answer(workload, op))) is not None


@pytest.mark.parametrize("corrupt", [
    lambda r: (r[0], r[1].replace("oracle: ok", "oracle: skipped")),
    lambda r: (r[0], r[1].replace("counting: ok\n", "")),
    lambda r: (r[0], r[1].replace("verify t=4: ok", "verify t=4: FAIL")),
])
def test_verify_checker_rejects(corrupt):
    workload = VerifySweep(3)
    op = workload.warmup_op()
    assert workload.check(op, corrupt(_answer(workload, op))) is not None


EXACT = ("calls_per_op", "bytes_per_op", "masks_per_op", "cells_per_op")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_counts(name):
    """The steadiness check: exact counts repeat run to run for one seed."""
    args = argparse.Namespace(workload=name, seed=5, seconds=0, probe_ref_ms=18.0)
    probe = run.make_probe()
    counts = []
    for _ in range(2):
        attempted, failed, errors, metrics, _, _ = run.traced_run(ct, args, probe)
        assert attempted and not failed and not errors
        counts.append({k: v for k, v in metrics.items() if k.endswith(EXACT)})
    assert counts[0] == counts[1]
    assert any(counts[0].values())
