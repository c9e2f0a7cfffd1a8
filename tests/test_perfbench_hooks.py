"""The benchmark's spans reach the library through the names they wrap.

perfbench/spans.py wraps kappalat functions by (module, attribute) at
run time, and its layers only see calls made through those module
attributes.  A renamed entry point makes ``perfbench/run.py --trace 1``
fail, and a kernel called some other way reads zero time, so both are
caught here, with spans.py imported as it is.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from helpers import m3
from kappalat import emit_lattice, gen_fig1
from kappalat.cli import cli_main

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the package loads its modules on first use; a trace wraps loaded ones
    for name, _, _ in module.ENTRY_POINTS:
        importlib.import_module(name)
    return module


def test_every_entry_point_exists(spans):
    for module, attr, _ in spans.ENTRY_POINTS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def _traced(spans, argv):
    trace = spans.Trace()
    with trace.installed():
        code = cli_main(argv)
    return code, {name: t for (_, name), t in trace.self_times.items()}


# for each kernel span, a request (lattice, argv after the path) that
# reaches it, the request's exit code and the library span enclosing it
KERNEL_REQUESTS = [
    ("kernel.first_missing_meet", "fig1", ["check"], 0, "lattice.build"),
    ("kernel.sd_witness", "m3", ["check"], 3, "labeling.sd_witness"),
    ("kernel.interval_images", "fig1", ["posets", "--kind", "wide"], 0, "intervals.derived_poset"),
    ("kernel.transitive_reduction", "fig1", ["posets", "--kind", "wide"], 0, "intervals.derived_poset"),
    ("kernel.transitive_reduction", "fig1", ["orders", "--kind", "clo"], 0, "orders.order_poset"),
]
DOCUMENTS = {"fig1": emit_lattice(gen_fig1()), "m3": emit_lattice(m3())}


def test_every_kernel_has_a_request(spans):
    kernels = {name for _, _, name in spans.ENTRY_POINTS if name.startswith("kernel.")}
    assert {kernel for kernel, *_ in KERNEL_REQUESTS} == kernels


@pytest.mark.parametrize(
    ("kernel", "doc", "args", "code", "span"),
    KERNEL_REQUESTS,
    ids=[f"{kernel}-{doc}-args{i}" for i, (kernel, doc, *_) in enumerate(KERNEL_REQUESTS)],
)
def test_kernel_is_timed_through_backend(spans, tmp_path, capsys, kernel, doc, args, code, span):
    path = tmp_path / f"{doc}.json"
    path.write_text(DOCUMENTS[doc], encoding="utf-8")
    exit_code, times = _traced(spans, [args[0], str(path), *args[1:]])
    assert exit_code == code
    assert times.get(kernel, 0) > 0
    assert times.get(span, 0) > 0
