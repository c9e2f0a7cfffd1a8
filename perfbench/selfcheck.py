#!/usr/bin/env python3
"""Show that the benchmark's output checks catch wrong outputs.

1. Runs the benchmark against a copy of ``reference.json`` in which one
   recorded stdout digest and one recorded exit code are altered.  The
   run must report ``error_rate`` > 0, and only for those two requests.
2. Feeds ``verify.check_output`` deliberately wrong ``check`` outputs on
   seeded reject documents (a changed witness, a changed exit code, a
   dropped kappa line).  Each must be rejected, while the true output
   passes.

Run from the repository root:

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import rejectgen
import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = "reject"


def wrong_reference() -> list[str]:
    reference = json.loads((HERE / "reference.json").read_text())
    requests = reference[WORKLOAD]["requests"]
    altered = sorted(requests)[:2]
    requests[altered[0]]["stdout_sha256"] = "0" * 64
    requests[altered[1]]["exit"] = 1 - requests[altered[1]]["exit"] % 2
    path = ROOT / ".perfbench_work" / f"wrong-reference-{os.getpid()}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(reference))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD, "--seed", "1",
             "--seconds", "1", "--trace", "1", "--reference", str(path)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    finally:
        path.unlink()
        with contextlib.suppress(OSError):
            path.parent.rmdir()
    lines = proc.stdout.splitlines()
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    problems = []
    if result["metrics"]["error_rate"]["value"] <= 0 or result["correct"]:
        problems.append("a wrong reference gave error_rate 0")
    if any(f.split(":")[0] not in altered for f in detail["failures"]):
        problems.append(f"unaltered requests failed: {detail['failures']}")
    print(f"wrong reference: {result['failed']} of {result['attempted']} executions failed")
    return problems


def wrong_outputs() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from kappalat.cli import cli_main

    seen: set[int] = set()
    problems = []
    for name, text in rejectgen.generate(5):
        path = ROOT / ".perfbench_work" / f"selfcheck-{os.getpid()}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(["check", str(path)])
        finally:
            path.unlink()
            with contextlib.suppress(OSError):
                path.parent.rmdir()
        if code in seen:
            continue
        seen.add(code)
        out, err = out.getvalue(), err.getvalue()
        if verify.check_output(text, code, out, err) is not None:
            problems.append(f"{name}: true output rejected")
        if code == 2:  # name one element twice: a pair (b, b) has a meet
            a, _, b = err.split("'")[1:4]
            wrong = [(2, out, err.replace(f"'{a}'", f"'{b}'", 1)), (0, out, "")]
        elif code == 3:  # set a = x: absorption makes the triple harmless
            a, x = out.split("a='")[1].split("'")[0], out.split("x='")[1].split("'")[0]
            wrong = [(3, out.replace(f"a='{a}'", f"a='{x}'"), err), (0, out, err)]
        else:  # drop the last kappa line, or claim a violation
            wrong = [(0, out.rsplit("\n", 2)[0] + "\n", err), (3, out, err)]
        for bad_code, bad_out, bad_err in wrong:
            if verify.check_output(text, bad_code, bad_out, bad_err) is None:
                problems.append(f"{name}: wrong exit {bad_code} output accepted")
    if seen != {0, 2, 3}:
        problems.append(f"exit codes seen: {sorted(seen)}")
    print(f"independent check: tried wrong outputs for exit codes {sorted(seen)}")
    return problems


def main() -> int:
    problems = wrong_reference() + wrong_outputs()
    for problem in problems:
        print("FAIL:", problem)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
