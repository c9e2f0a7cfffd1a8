"""The benchmark's spans reach the library through the names they wrap.

perfbench/spans.py wraps kappalat functions by (module, attribute) at
run time, and its layers only see calls made through those module
attributes.  A renamed entry point makes ``perfbench/run.py --trace 1``
fail, and a kernel called some other way reads zero time, so both are
caught here, with spans.py imported as it is.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

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


def test_wide_posets_time_the_interval_kernel(spans, tmp_path, capsys):
    path = tmp_path / "fig1.json"
    path.write_text(emit_lattice(gen_fig1()), encoding="utf-8")
    code, times = _traced(spans, ["posets", str(path), "--kind", "wide"])
    assert code == 0
    assert times.get("kernel.interval_images", 0) > 0
    assert times.get("intervals.derived_poset", 0) > 0


def test_check_on_a_non_sd_lattice_times_the_sd_kernel(spans, tmp_path, capsys):
    path = tmp_path / "m3.json"
    doc = {
        "elements": ["0", "a", "b", "c", "1"],
        "covers": [["a", "0"], ["b", "0"], ["c", "0"], ["1", "a"], ["1", "b"], ["1", "c"]],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, times = _traced(spans, ["check", str(path)])
    assert code == 3
    assert times.get("kernel.sd_witness", 0) > 0


# for each kernel span, requests (lattice, argv after the path) that reach it
KERNEL_REQUESTS = [
    ("kernel.first_missing_meet", "fig1", ["check"]),
    ("kernel.sd_witness", "m3", ["check"]),
    ("kernel.interval_images", "fig1", ["posets", "--kind", "wide"]),
    ("kernel.transitive_reduction", "fig1", ["posets", "--kind", "wide"]),
    ("kernel.transitive_reduction", "fig1", ["orders", "--kind", "clo"]),
]
DOCUMENTS = {
    "fig1": emit_lattice(gen_fig1()),
    "m3": json.dumps({
        "elements": ["0", "a", "b", "c", "1"],
        "covers": [["a", "0"], ["b", "0"], ["c", "0"], ["1", "a"], ["1", "b"], ["1", "c"]],
    }),
}


def test_every_kernel_has_a_request(spans):
    kernels = {name for _, _, name in spans.ENTRY_POINTS if name.startswith("kernel.")}
    assert {kernel for kernel, _, _ in KERNEL_REQUESTS} == kernels


@pytest.mark.parametrize(("kernel", "doc", "args"), KERNEL_REQUESTS)
def test_kernel_is_timed_through_backend(spans, tmp_path, capsys, kernel, doc, args):
    path = tmp_path / f"{doc}.json"
    path.write_text(DOCUMENTS[doc], encoding="utf-8")
    _, times = _traced(spans, [args[0], str(path), *args[1:]])
    assert times.get(kernel, 0) > 0
