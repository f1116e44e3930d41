"""Pass scoring and report digests."""

import dataclasses
import types

import pass_worker
import run
from rzlab.verify import CheckReport


def make_report(**changes):
    rep = CheckReport(
        check_id="INTERP", config={"seed": 1234}, measured={"harmonic_p2": 0.9},
        bound_name="interp_ratio", bound_value=1.0, measured_value=0.9,
        tolerance=1e-3, verdict="pass", runtime_s=1.5,
    )
    return dataclasses.replace(rep, **changes)


def test_digest_ignores_runtime_but_not_measured_values():
    base = pass_worker.report_digest(make_report())
    assert pass_worker.report_digest(make_report(runtime_s=99.0)) == base
    assert pass_worker.report_digest(make_report(measured_value=0.9000001)) != base
    assert pass_worker.report_digest(make_report(measured={"harmonic_p2": 0.91})) != base


def check(cid, verdict="pass", digest="d0", error=None):
    return {"id": cid, "verdict": verdict, "digest": digest, "error": error}


def test_dead_pass_fails_every_check_of_its_workload():
    store = types.SimpleNamespace(data={})
    failed = run.score(run.Pass("plain", error="pass process exit status -9"), "core-ce", 1, store)
    assert [cid for cid, _ in failed] == list(run.workloads.EXPECTED["core-ce"])


def test_verdict_error_and_digest_change_each_fail_a_check():
    store = types.SimpleNamespace(data={})
    first = run.Pass("plain", checks=[check("FK_ORACLE"), check("QUAD_VS_DENSE", verdict="fail")])
    assert run.score(first, "oracles", 7, store) == [("QUAD_VS_DENSE", "verdict fail")]
    second = run.Pass("plain", checks=[check("FK_ORACLE", digest="d1"),
                                       check("QUAD_VS_DENSE", error="ValueError: x")])
    failed = run.score(second, "oracles", 7, store)
    assert failed == [("FK_ORACLE", "report digest differs from the first oracles pass"),
                      ("QUAD_VS_DENSE", "ValueError: x")]
    # another seed starts its own record
    assert run.score(run.Pass("plain", checks=[check("FK_ORACLE", digest="d1")]),
                     "oracles", 8, store) == []


def test_core_2way_is_compared_with_core_ce_digests():
    store = types.SimpleNamespace(data={})
    run.score(run.Pass("plain", checks=[check("THEOREM", digest="seq")]), "core-ce", 1, store)
    failed = run.score(run.Pass("plain", checks=[check("THEOREM", digest="two")]),
                       "core-2way", 1, store)
    assert failed == [("THEOREM", "report digest differs from the first core-ce pass")]
