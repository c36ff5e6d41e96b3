"""The layer trace of the benchmark (perfbench/spans.py) still sees the
layers it names: a refactor that routed numeric decisions around
``probabilistic_zero_test``, or renamed ``poly.pgcd`` or
``poly.GCD_SIZE_LIMIT``, would leave the benchmark passing with the layer
hidden."""

import importlib
import importlib.util
from pathlib import Path

from hamops import catalog, poly
from hamops import expr as E

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for _, modname, _ in module.TARGETS:  # the tracer patches every layer it names
        importlib.import_module(f"{module.PACKAGE}.{modname}")
    return module


def test_trace_counts_numeric_decisions_and_runs_the_gcd_hook():
    tracer = _load_spans().Tracer()
    make_hooks = tracer._hooks
    gcd_hook_calls = 0

    def counting_hooks(name, mod):
        hook = make_hooks(name, mod)
        if name != "poly.pgcd":
            return hook
        assert hook is not None

        def counted(args):
            nonlocal gcd_hook_calls
            gcd_hook_calls += 1
            hook(args)

        return counted

    tracer._hooks = counting_hooks
    original = E.probabilistic_zero_test
    tracer.install()
    try:
        report = catalog.verify("C_3_11")
    finally:
        tracer.remove()
    assert E.probabilistic_zero_test is original
    assert report.verdict
    assert "expected:numeric-profile=pass" in [c.cid for c in report.conditions]
    numeric = tracer.stats["expr.probabilistic_zero_test"]
    assert numeric.calls > 0 and numeric.top_calls == numeric.calls
    assert tracer.stats["poly.pgcd"].calls > 0
    assert gcd_hook_calls == tracer.stats["poly.pgcd"].calls
    assert isinstance(poly.GCD_SIZE_LIMIT, int)
