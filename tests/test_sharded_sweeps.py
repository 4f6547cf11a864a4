"""The shared determinism recheck and per-run numbers of the sharded
sweeps (:mod:`repro.experiments.sharded`)."""

from types import SimpleNamespace

from repro.experiments.sharded import (
    DeterminismCheck,
    agg_site_rate,
    recheck_determinism,
    shard_cpu_s,
)

FP = "a" * 64
SIG = "s" * 64


def _check(**changes):
    base = dict(
        fingerprints={1: FP, 4: FP},
        repeat_fingerprint=FP,
        signatures={1: SIG, 4: SIG},
        repeat_signature=SIG,
    )
    base.update(changes)
    return DeterminismCheck(**base)


def test_agreeing_runs_pass_with_one_report_line():
    check = _check()
    assert check.ok
    assert check.fingerprint == FP
    line = check.report_line()
    assert line.startswith("determinism: merged-trace fingerprint aaaa")
    assert "summary signature ssss" in line
    assert "[1, 4]" in line and "FAILED" not in line


def test_signatures_are_optional():
    check = _check(signatures={}, repeat_signature="")
    assert check.ok
    assert "signature" not in check.report_line()


def test_any_disagreement_fails_with_a_failed_line():
    other = "b" * 64
    for check in (
        _check(fingerprints={1: FP, 4: other}),
        _check(repeat_fingerprint=other),
        _check(signatures={1: SIG, 4: other}),
        _check(repeat_signature=other),
        _check(fingerprints={}, repeat_fingerprint=""),
    ):
        assert not check.ok
        assert check.report_line().startswith("determinism: FAILED")


def test_failed_line_names_the_diverging_values():
    line = _check(
        fingerprints={1: FP, 4: "b" * 64}, repeat_signature="c" * 64
    ).report_line()
    assert "bbbbbbbbbbbbbbbb" in line
    assert "repeat cccccccccccccccc" in line


def test_recheck_runs_each_count_then_repeats_the_largest():
    check = recheck_determinism(
        "miniring", 11, 4, (2, 1, 2), {}, deadline_s=60.0,
        trace_capacity=50,
    )
    assert check.ok, check.report_line()
    assert list(check.fingerprints) == [1, 2]
    assert check.repeat_fingerprint == check.fingerprint
    assert check.signatures == {}
    assert check.trace_dropped > 0


def test_agg_site_rate_divides_each_shard_by_its_own_cpu():
    run = SimpleNamespace(
        site_results=[
            {"site": 0, "stats": {"ok": 10}},
            {"site": 1, "stats": {"ok": 30}},
            {"site": 2, "stats": {}},
        ],
        shard_results=[
            {"sites": [0, 1], "cpu_s": 2.0},
            {"sites": [2], "cpu_s": 0.0},
        ],
    )
    assert agg_site_rate(run, "ok") == 20.0
    assert shard_cpu_s(run) == 2.0
