"""Tests of the benchmark's own machinery: self time, wrapping, output checks."""

import importlib
import math
import types

import pytest

import checks
import layers
import spans


def _tree(*rows):
    """(start, end, parent) rows -> the three arrays self_times takes."""
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


def test_self_time_of_nested_spans():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 7]
    start, end, parent = _tree((0, 10, -1), (1, 4, 0), (5, 9, 0), (6, 7, 2))
    assert spans.self_times(start, end, parent) == [3, 3, 3, 1]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1, 5] and [3, 7] cover [1, 7]; a child [8, 12] is clipped to [8, 10]
    start, end, parent = _tree((0, 10, -1), (1, 5, 0), (3, 7, 0), (8, 12, 0))
    assert spans.self_times(start, end, parent)[0] == 10 - 6 - 2


def test_self_time_of_a_later_pass_ignores_earlier_spans():
    start, end, parent = _tree((0, 10, -1), (1, 2, 0), (20, 30, -1), (21, 25, 2))
    assert spans.self_times(start, end, parent, first=2) == [6, 4]


def _fake_package():
    inner = types.ModuleType("pkg.inner")
    exec("def helper(x):\n    return x + 1\n\n"
         "class Thing:\n    def __init__(self, v):\n        self.v = helper(v)\n"
         "    def double(self):\n        return 2 * self.v\n", inner.__dict__)
    outer = types.ModuleType("pkg.outer")
    outer.helper = inner.helper  # as bound by `from .inner import helper`
    outer.Thing = inner.Thing
    exec("def entry(v):\n    return Thing(helper(v)).double()\n", outer.__dict__)
    return {"inner": inner, "outer": outer}


def test_instrument_wraps_from_import_bindings_and_methods_then_restores():
    modules = _fake_package()
    original_helper = modules["inner"].helper
    rec = spans.SpanRecorder()
    seen = []
    undo = spans.instrument(modules, rec, {"inner.helper": lambda args, result: seen.append(args["x"])})
    try:
        assert modules["outer"].entry(1) == 6
    finally:
        spans.restore(undo)
    labels = [rec.labels[i] for i in rec.label]
    assert labels == ["outer.entry", "inner.helper", "inner.Thing.__init__", "inner.helper",
                      "inner.Thing.double"]
    assert list(rec.parent) == [-1, 0, 0, 2, 0]
    assert seen == [1, 2]
    assert modules["outer"].helper is original_helper
    assert modules["inner"].Thing.__init__.__name__ == "__init__"
    assert not hasattr(modules["inner"].Thing.__init__, "__wrapped__")


def test_recorder_counts_an_exception_once_where_it_leaves_the_module():
    modules = _fake_package()
    rec = spans.SpanRecorder()
    undo = spans.instrument(modules, rec)
    try:
        with pytest.raises(TypeError):
            modules["outer"].entry("not a number")
    finally:
        spans.restore(undo)
    assert rec.errors == {"inner": 1, "outer": 1}


def test_every_label_the_layer_metrics_name_is_wrapped():
    modules = {name: importlib.import_module(f"mirrorkit.{name}") for name in layers.MODULES}
    trace = layers.LayerTrace(modules)
    hooks = trace.hooks()
    original = modules["bregman"].bregman
    trace.install()
    try:
        wrapped = set(trace.recorder.labels)
        assert modules["audit"].bregman.__wrapped__ is original  # rebound in the caller
    finally:
        trace.uninstall()
    assert modules["audit"].bregman is original
    named = set(hooks) | set(layers.INCLUSIVE_TIMES.values())
    named |= {label for labels in layers.CALL_COUNTS.values() for label in labels}
    assert named <= wrapped, sorted(named - wrapped)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


MINIMAX_HEADER = "trial,numerator,denominator,ratio,premise_certified\n"


def test_minimax_check_accepts_certified_ratios_at_most_one(tmp_path):
    path = _write(tmp_path, "minimax.csv", MINIMAX_HEADER
                  + "0,0.5,1.0,0.5,true\n1,3.0,1.0,3.0,false\n")
    assert checks.check_minimax(path, 2) == []


def test_minimax_check_rejects_zero_certified_trials(tmp_path):
    path = _write(tmp_path, "minimax.csv", MINIMAX_HEADER
                  + "0,0.5,1.0,0.5,false\n1,0.9,1.0,0.9,false\n")
    assert any("certified" in p for p in checks.check_minimax(path, 2))


def test_minimax_check_rejects_a_certified_ratio_above_one(tmp_path):
    path = _write(tmp_path, "minimax.csv", MINIMAX_HEADER + "0,1.5,1.0,1.5,true\n")
    assert checks.check_minimax(path, 1)


RISK_HEADER = "estimator,mc_cost,ci_low,ci_high,n_trials\n"
RISK_ROWS = [
    "smd,1.10,1.05,1.15,100",
    "constant,1.40,1.30,1.50,100",
    "scaled_smd(0.5),1.20,1.15,1.25,100",
    "scaled_smd(2),1.30,1.25,1.35,100",
    "ssmd,1.00,0.95,1.05,100",
]


def test_risk_check_accepts_a_minimal_smd_row(tmp_path):
    path = _write(tmp_path, "risk.csv", RISK_HEADER + "\n".join(RISK_ROWS) + "\n")
    assert checks.check_risk(path, 5) == []


def test_risk_check_rejects_a_nan_interval(tmp_path):
    rows = list(RISK_ROWS)
    rows[1] = "constant,1.40,nan,1.50,100"
    path = _write(tmp_path, "risk.csv", RISK_HEADER + "\n".join(rows) + "\n")
    assert any("non-finite" in p for p in checks.check_risk(path, 5))


def test_risk_check_rejects_smd_beaten_by_a_baseline(tmp_path):
    rows = list(RISK_ROWS)
    rows[2] = "scaled_smd(0.5),1.05,1.00,1.10,100"
    path = _write(tmp_path, "risk.csv", RISK_HEADER + "\n".join(rows) + "\n")
    assert any("not minimal" in p for p in checks.check_risk(path, 5))


def test_converge_check_accepts_a_tenfold_decay(tmp_path):
    path = _write(tmp_path, "converge.csv", "checkpoint_T,mean_sq_error\n100,0.5\n1000,0.1\n10000,0.01\n")
    assert checks.check_converge(path) == []


@pytest.mark.parametrize("errors", [(0.5, 0.6, 0.01), (0.5, 0.3, 0.2), (0.5, math.nan, 0.01)])
def test_converge_check_rejects_errors_that_do_not_decay(tmp_path, errors):
    body = "".join(f"{10 ** (k + 2)},{e}\n" for k, e in enumerate(errors))
    path = _write(tmp_path, "converge.csv", "checkpoint_T,mean_sq_error\n" + body)
    assert checks.check_converge(path)


def test_audit_check_rejects_a_large_residual(tmp_path):
    header = "step,d_psi_prev,d_psi_next,d_loss_bregman,e_term,loss_noise,local_residual\n"
    good = _write(tmp_path, "good.csv", header + "1,0,0,0,0,0,1e-12\n2,0,0,0,0,0,0\n")
    bad = _write(tmp_path, "bad.csv", header + "1,0,0,0,0,0,1e-12\n2,0,0,0,0,0,1e-6\n")
    assert checks.check_audit(good, 2) == []
    assert checks.check_audit(bad, 2)
