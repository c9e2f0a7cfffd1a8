#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the kappalat command line.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 36 --trace 0

Each request is an argv for ``kappalat.cli.cli_main``: it reads a lattice
document, then parses, builds, labels, computes and emits.  One client
sends one request at a time from this process (a closed loop, no
threads).  A run sets up (import, generation of the fixed lattices,
writing the documents; the seeded reject documents are drawn once
before), then repeats rounds until ``--seconds`` is used up: ten more
set-ups, a pass of ``python -m kappalat`` subprocesses, one per request,
and in-process passes for about a quarter as long.  Every output is
checked: against the recorded exit code and stdout digest
(``reference.json``) where one exists, and for seeded reject documents
independently (``verify.py``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of traced passes that
alternate with untraced ones.  The line before it records the
environment and the run's details.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import spans
import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS_PER_ROUND = 10
EXIT_CODES = range(5)


def _import_kappalat():
    """Import the package afresh from the checkout's source tree."""
    for name in [m for m in sys.modules if m == "kappalat" or m.startswith("kappalat.")]:
        del sys.modules[name]
    kappalat = importlib.import_module("kappalat")
    importlib.import_module("kappalat.cli")
    if Path(kappalat.__file__).resolve().parent != SRC / "kappalat":
        raise SystemExit(f"kappalat imported from {kappalat.__file__}, not from {SRC}")
    return kappalat


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Outcomes:
    """Judges every execution of a request and counts the failures."""

    def __init__(self, reference: dict | None, seed: int, random_texts: dict[str, str]) -> None:
        # without a reference (while recording one) only the independent checks apply
        self.expected = None if reference is None else reference.get("requests", {})
        self.documents = {} if reference is None else reference.get("documents", {})
        self.seeded = seed == workloads.DEFAULT_SEED
        self.random_texts = random_texts
        self.first: dict[str, tuple[int, str]] = {}
        self.exit_codes: dict[str, int] = {}
        self.verdicts: dict[tuple, str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def bad_documents(self, paths: dict[str, Path]) -> set[str]:
        """Documents whose bytes differ from the recorded ones."""
        bad = set()
        for doc, path in paths.items():
            if doc in self.random_texts and not self.seeded:
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if self.documents.get(doc) != digest:
                bad.add(doc)
        return bad

    def judge(self, req, code: int, out: bytes, err: bytes, bad_docs: set[str]) -> None:
        self.attempted += 1
        self.exit_codes[req.rid] = code
        digest = hashlib.sha256(out).hexdigest()
        reason = None
        use_reference = self.expected is not None and (
            req.doc not in self.random_texts or self.seeded
        )
        known = self.expected.get(req.rid) if use_reference else None
        if req.doc in bad_docs:
            reason = "input document differs from the recorded one"
        elif use_reference and known is None:
            reason = "no recorded output"
        elif use_reference and (code, digest) != (known["exit"], known["stdout_sha256"]):
            reason = f"exit {code} / stdout digest differ from the recorded output"
        elif req.doc in self.random_texts:
            key = (req.rid, code, digest, err)
            if key not in self.verdicts:
                self.verdicts[key] = verify.check_output(
                    self.random_texts[req.doc], code, out.decode(), err.decode()
                )
            reason = self.verdicts[key]
        if reason is None and self.first.setdefault(req.rid, (code, digest)) != (code, digest):
            reason = "output differs between executions"
        if reason is not None:
            self.failures.append(f"{req.rid}: {reason}")


def _request(cli_main, argv: list[str], trace: spans.Trace | None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = trace.span(spans.ROOT, cli_main, argv) if trace else cli_main(argv)
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue().encode(), err.getvalue().encode()


def _pass(kappalat, requests, paths, outcomes, bad_docs, times, trace=None) -> None:
    """One in-process pass; appends each request's latency to times[rid]."""
    context = trace.installed() if trace else contextlib.nullcontext()
    cli_main = kappalat.cli.cli_main
    with context:
        for req in requests:
            gc.collect()  # each request starts from a clean heap, as a fresh process would
            if trace:
                trace.request = req.rid
            elapsed, code, out, err = _request(cli_main, req.argv(paths[req.doc]), trace)
            times[req.rid].append(elapsed)
            outcomes.judge(req, code, out, err, bad_docs)


def _cli_pass(requests, paths, outcomes, bad_docs, times) -> None:
    """Every request once as a ``python -m kappalat`` subprocess."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    results = []
    for req in requests:
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "kappalat", *req.argv(paths[req.doc])],
            cwd=ROOT,
            env=env,
            capture_output=True,
            check=False,
        )
        times[req.rid].append(perf_counter() - start)
        results.append((req, proc.returncode, proc.stdout, proc.stderr))
    for req, code, out, err in results:
        outcomes.judge(req, code, out, err, bad_docs)


def _repeat(step, budget: float, start: float) -> int:
    """Call step once, then again while another call should end within budget."""
    calls = 0
    while True:
        began = perf_counter()
        step()
        calls += 1
        now = perf_counter()
        if now - start + (now - began) > budget:
            return calls


def _fastest(times: dict[str, list[float]]) -> dict[str, float]:
    return {rid: min(samples) for rid, samples in times.items()}


def _quantile(values: list[float], k: int) -> float:
    """k-th decile, interpolated between samples."""
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def _setup(args, workdir: Path, seeded):
    """Import afresh and write the inputs; returns (seconds, kappalat, inputs)."""
    gc.collect()
    start = perf_counter()
    kappalat = _import_kappalat()
    inputs = workloads.make_inputs(args.workload, args.seed, kappalat, workdir, seeded)
    return perf_counter() - start, kappalat, inputs


def measure(args, workdir: Path) -> dict:
    # the seeded documents come from the benchmark's own generator, which no
    # change to the program can speed up, so they are drawn outside set-up
    seeded = workloads.seeded_documents(args.workload, args.seed)
    elapsed, kappalat, (requests, paths, random_texts) = _setup(args, workdir, seeded)
    setup_times = [elapsed]

    reference = json.loads(args.reference.read_text()).get(args.workload, {})
    outcomes = Outcomes(reference, args.seed, random_texts)
    bad_docs = outcomes.bad_documents(paths)

    # Each request time reported is the fastest of its runs here: the same
    # request varies by up to 2x between runs on a shared host, its
    # fastest run by a few percent.
    start = perf_counter()
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        plain, traced, traces = defaultdict(list), defaultdict(list), []

        def step():
            _pass(kappalat, requests, paths, outcomes, bad_docs, plain)
            traces.append(spans.Trace())
            _pass(kappalat, requests, paths, outcomes, bad_docs, traced, traces[-1])

        passes = _repeat(step, args.seconds, start)
        self_times = [t.self_times for t in traces]
        for layer in spans.LAYERS:
            value = sum(min(st[req.rid, layer] for st in self_times) for req in requests)
            metrics[f"{layer}_s"] = (value, "s")
        for name in spans.COUNTERS:
            metrics[name] = (traces[0].counts[name], "count")
        mix = Counter(outcomes.exit_codes.values())
        for code in EXIT_CODES:
            metrics[f"requests.exit_{code}"] = (mix[code], "count")
        metrics["error_rate"] = (len(outcomes.failures) / outcomes.attempted, "ratio")
        overhead = sum(_fastest(traced).values()) / sum(_fastest(plain).values()) - 1
        metrics["trace_overhead"] = (overhead, "ratio")
        detail = {"passes": passes, "traced_passes": passes}
        detail["counts_repeat"] = all(t.counts == traces[0].counts for t in traces)
    else:
        cli_times, times, passes = defaultdict(list), defaultdict(list), Counter()

        def round_():
            # set up and alternate the two kinds of pass, so that each
            # samples the whole run
            nonlocal kappalat
            for _ in range(SETUPS_PER_ROUND):
                elapsed, kappalat, _ = _setup(args, workdir, seeded)
                setup_times.append(elapsed)
            began = perf_counter()
            _cli_pass(requests, paths, outcomes, bad_docs, cli_times)
            passes["cli"] += 1
            share = (perf_counter() - began) / 4
            began = perf_counter()
            while True:
                _pass(kappalat, requests, paths, outcomes, bad_docs, times)
                passes["in_process"] += 1
                if perf_counter() - began >= share:
                    break

        _repeat(round_, args.seconds, start)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        fastest = list(_fastest(times).values())
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["pass_s"] = (sum(fastest), "s")
        metrics["request_p50_s"] = (_quantile(fastest, 5), "s")
        metrics["request_p90_s"] = (_quantile(fastest, 9), "s")
        metrics["cli_pass_s"] = (sum(_fastest(cli_times).values()), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        detail = {"setups": len(setup_times), "passes": passes["in_process"]}
        detail["cli_passes"] = passes["cli"]
        detail["error_rate"] = len(outcomes.failures) / outcomes.attempted

    detail["requests_per_pass"] = len(requests)
    detail["exit_mix"] = dict(sorted(Counter(outcomes.exit_codes.values()).items()))
    detail["failures"] = outcomes.failures[:10]
    env = {
        "python": sys.version.split()[0],
        "backend": kappalat.backend_name(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": _commit(),
    }
    print(json.dumps({"env": env, "detail": detail}))
    return {
        "correct": not outcomes.failures,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record(args, workdir: Path) -> None:
    """Store exit codes and stdout digests of the default inputs in the reference."""
    kappalat = _import_kappalat()
    seed = workloads.DEFAULT_SEED
    requests, paths, random_texts = workloads.make_inputs(
        args.workload, seed, kappalat, workdir, workloads.seeded_documents(args.workload, seed)
    )
    outcomes = Outcomes(None, seed, random_texts)
    entry = {"documents": {}, "requests": {}}
    for doc, path in sorted(paths.items()):
        entry["documents"][doc] = hashlib.sha256(path.read_bytes()).hexdigest()
    for req in sorted(requests, key=lambda r: r.rid):
        _, code, out, err = _request(kappalat.cli.cli_main, req.argv(paths[req.doc]), None)
        outcomes.judge(req, code, out, err, set())
        entry["requests"][req.rid] = {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest()}
    if outcomes.failures:
        raise SystemExit("independent check failed: " + "; ".join(outcomes.failures[:5]))
    reference = json.loads(args.reference.read_text()) if args.reference.is_file() else {}
    reference[args.workload] = entry
    args.reference.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entry['requests'])} requests of {args.workload}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    parser.add_argument("--record", action="store_true", help="record the reference outputs")
    args = parser.parse_args()

    if not (SRC / "kappalat" / "__init__.py").is_file():
        print(f"error: no kappalat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.record:
            record(args, workdir)
        else:
            print(json.dumps(measure(args, workdir)))
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
