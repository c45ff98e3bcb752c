"""Self-time arithmetic and the wrapping of package functions."""

import types

import pytest

import tracer


def test_self_time_of_a_synthetic_nest():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5)
    # and [8, 12] (clipped to the root: 2); grandchild [2, 3] inside [1, 4].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert tracer.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_self_time_ignores_span_order():
    start = [2.0, 0.0, 1.0]
    end = [3.0, 10.0, 4.0]
    parent = [2, -1, 1]
    assert tracer.self_times(start, end, parent) == pytest.approx([1.0, 7.0, 2.0])


def _fake_package():
    layer = types.ModuleType("fscontract.layer")

    def leaf(x):
        return x + 1

    def outer(x):
        return layer.leaf(x) + layer.leaf(x)

    def _private(x):
        return x

    for fn in (leaf, outer, _private):
        fn.__module__ = "fscontract.layer"
        setattr(layer, fn.__name__, fn)
    other = types.ModuleType("fscontract.other")
    other.leaf = leaf  # imported by name into a second module
    return layer, other


def test_wraps_every_binding_and_uninstalls():
    layer, other = _fake_package()
    original = layer.leaf
    t = tracer.Tracer()
    t.install([layer, other])
    assert layer.leaf is other.leaf is not original
    assert layer._private.__name__ == "_private"
    assert layer.outer(1) == 4
    assert other.leaf(1) == 2
    t.uninstall()
    assert layer.leaf is other.leaf is original

    log = t.log
    names = [log.names[f] for f in log.fn]
    assert names == ["layer.outer", "layer.leaf", "layer.leaf", "layer.leaf"]
    assert list(log.parent) == [-1, 0, 0, -1]

    summary = tracer.Summary(nested=(("layer.leaf", "layer.outer"),))
    summary.add(tracer.SpanLog.from_json(log.to_json()))
    assert summary.calls["layer.leaf"] == 3
    assert summary.nested[("layer.leaf", "layer.outer")] == 2
    assert summary.layer_calls("layer") == 4


def test_probe_values_and_missing_fields():
    layer, other = _fake_package()
    t = tracer.Tracer({"layer.leaf": lambda args, kwargs, result: result.missing_field,
                       "layer.outer": lambda args, kwargs, result: float(result)})
    t.install([layer])
    layer.outer(1)
    t.uninstall()
    assert t.log.values == {0: 4.0}
