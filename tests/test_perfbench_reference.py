"""Every benchmark request at the default seed gives its recorded output.

perfbench/reference.json holds the exit code and stdout sha256 of each
request of each workload at the default seed.  Here the workloads' own
document writer (perfbench/workloads.py, imported as it is) writes the
documents, and each request runs once through cli_main, so a change of
any output byte fails in the test suite rather than only in a benchmark
run.
"""

import hashlib
import json
from pathlib import Path

import pytest

import kappalat
from kappalat.cli import cli_main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its sibling rejectgen.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_requests_match_the_reference(workload, workloads, tmp_path, capsys):
    seed = workloads.DEFAULT_SEED
    seeded = workloads.seeded_documents(workload, seed)
    requests, paths, _ = workloads.make_inputs(workload, seed, kappalat, tmp_path, seeded)
    expected = REFERENCE[workload]
    for doc, path in paths.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected["documents"][doc], doc
    assert sorted(r.rid for r in requests) == sorted(expected["requests"])
    for req in requests:
        code = cli_main(req.argv(paths[req.doc]))
        out = capsys.readouterr().out.encode("utf-8")
        known = expected["requests"][req.rid]
        digest = hashlib.sha256(out).hexdigest()
        assert (code, digest) == (known["exit"], known["stdout_sha256"]), req.rid
