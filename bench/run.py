"""Benchmark of the ogclab command line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--results FILE]

Each workload runs ``python -m ogclab.cli ...`` as fresh subprocesses, one at
a time, with the checkout's ``src`` on ``PYTHONPATH``, ``PYTHONHASHSEED``
fixed and ``OGCLAB_CACHE`` removed (the warm workload sets it to a private
cache that its own setup fills).  Wall time, CPU time and peak RSS of each
child are measured from outside with ``os.wait4``.  A pass runs every
invocation of the workload once; passes repeat until ``--seconds`` have been
measured, and the medians are reported.  After each invocation its exit code
and output are compared, untimed, with the reference pinned in
``bench/reference``, and its output directory is deleted.

``--seed`` goes to the CLI as ``--seed``, which only picks the modular primes;
the pinned outputs do not depend on it.

With ``--trace 1`` the run adds one traced pass (``bench/trace.py``, which
calls ``ogclab.cli.main`` in-process with the layer boundaries wrapped) and
prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` (CLI invocations whose exit code or output differ from the
reference) and ``metrics``.  The line before it records the environment, the
per-pass samples and any per-layer metric the program no longer exposes
(reported as 0 and listed under ``absent``).  ``--results FILE`` appends both
as one JSON line to FILE.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
CLOCK = time.perf_counter

RUN_BUDGET_S = 170          # a run must exit within 180 s
SETUP_REPEATS = 7
OUT = "{out}"               # replaced by a fresh directory per invocation


@dataclass(frozen=True)
class Invocation:
    ref: str                # key in bench/reference/expected.json
    args: tuple             # CLI arguments after ``python -m ogclab.cli``


@dataclass(frozen=True)
class Workload:
    invocations: tuple
    warm: bool = False      # setup fills a private OGCLAB_CACHE first
    trace_expect: tuple = ()   # (totals key, value) the traced pass must show


ENUMERATE_G1N4 = Invocation("enumerate_g1n4", (
    "enumerate", "-g", "1", "-n", "4", "--flavor", "both", "--out", OUT))

WORKLOADS = {
    "enumerate-g1n4-cold": Workload((ENUMERATE_G1N4,)),
    "verify-g1n4-warm": Workload(
        (Invocation("verify_g1n4", ("verify-zivkovic", "-g", "1", "-n", "4")),),
        warm=True,
        trace_expect=(("generate.calls", 0), ("load.calls", 2))),
}


def _ratio(a, b):
    return a / b if b else 0.0


# Per-layer metric -> (span kinds it needs, value from the traced totals T).
PER_LAYER = {
    "catalogs.generate_s": (("generate",), lambda T: T["generate.s"]),
    "catalogs.cores_s": (("cores",), lambda T: T["cores.s"]),
    "catalogs.cores_canon_calls": (("cores", "canonical"),
                                   lambda T: T["canonical.calls@cores"]),
    "catalogs.cores_canon_us": (("cores", "canonical"), lambda T: 1e6 * _ratio(
        T["canonical.s@cores"], T["canonical.calls@cores"])),
    "catalogs.decorate_canon_calls": (("generate", "canonical"),
                                      lambda T: T["canonical.calls@generate"]),
    "catalogs.cells": (("generate",), lambda T: T["generate.cells"]),
    "catalogs.canon_per_cell": (("generate", "canonical"), lambda T: _ratio(
        T["canonical.calls@generate"], T["generate.cells"])),
    "catalogs.save_s": (("save",), lambda T: T["save.s"]),
    "catalogs.load_s": (("load",), lambda T: T["load.s"]),
    "catalogs.cache_loads": (("load",), lambda T: T["load.calls"]),
    "canonical.calls": (("canonical",), lambda T: T["canonical.calls"]),
    "canonical.s": (("canonical",), lambda T: T["canonical.s"]),
    "complexes.assemble_s": (("assemble",), lambda T: T["assemble.s"]),
    "complexes.assemble_self_s": (("assemble",), lambda T: T["assemble.self_s"]),
    "complexes.assemble_canon_calls": (("assemble", "canonical"),
                                       lambda T: T["canonical.calls@assemble"]),
    "complexes.d2_s": (("assemble", "multiply"), lambda T: T["multiply.s@assemble"]),
    "complexes.nnz": (("assemble",), lambda T: T["assemble.nnz"]),
    "complexes.basis_dim": (("assemble",), lambda T: T["assemble.basis_dim"]),
    "linalg.rank_s": (("consensus",), lambda T: T["consensus.s"]),
    "linalg.rank_matrices": (("consensus",), lambda T: T["consensus.calls"]),
    "linalg.rank_max_nnz": (("consensus",), lambda T: T["consensus.max_nnz"]),
    "linalg.rank_modular_s": (("consensus", "probe"), lambda T: T["probe.modular_s"]),
    "linalg.rank_rational_s": (("consensus", "probe"), lambda T: T["probe.rational_s"]),
    "linalg.multiply_s": (("multiply",), lambda T: T["multiply.s"]),
    "linalg.multiply_calls": (("multiply",), lambda T: T["multiply.calls"]),
    "linalg.solve_s": (("solve",), lambda T: T["solve.s"]),
    "linalg.kernel_s": (("kernel",), lambda T: T["kernel.s"]),
    "zivkovic.psi_s": (("psi",), lambda T: T["psi.s"]),
    "zivkovic.forests": (("forests",), lambda T: T["forests.n"]),
    "zivkovic.completion_s": (("completion",), lambda T: T["completion.s"]),
    "zivkovic.completion_nnz": (("completion",), lambda T: T["completion.nnz"]),
    "zivkovic.quasi_iso_s": (("quasi_iso",), lambda T: T["quasi_iso.s"]),
    "process.cpu_s": ((), lambda T: T["process.cpu_s"]),
    "trace.overhead_ratio": ((), lambda T: T["trace.overhead_ratio"]),
}


class Totals(dict):
    def __missing__(self, key):
        return 0.0


# -- children ---------------------------------------------------------------

@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv, env, stdout_path: Path, timeout: float) -> Child:
    """Run ``argv`` in the checkout and wait for it; a timer kills it after
    ``timeout`` seconds.  Standard error goes beside ``stdout_path``."""
    err_path = stdout_path.with_name(stdout_path.name + ".err")
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        t0 = CLOCK()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = CLOCK() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def child_env(cache: Path | None):
    env = {k: v for k, v in os.environ.items() if k != "OGCLAB_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    if cache is not None:
        env["OGCLAB_CACHE"] = str(cache)
    return env


# -- pinned outputs ----------------------------------------------------------

def tree_digest(path: Path):
    """File count and sha256 over the relative names and bytes of a tree."""
    h = hashlib.sha256()
    count = 0
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            fp = Path(dirpath) / name
            data = fp.read_bytes()
            h.update(fp.relative_to(path).as_posix().encode() + b"\0")
            h.update(str(len(data)).encode() + b"\0" + data)
            count += 1
    return {"files": count, "sha256": h.hexdigest()}


def report_without_timings(text: str):
    doc = json.loads(text)
    doc.pop("timings", None)
    return doc


def observed(expected: dict, stdout: Path, out_dir: Path):
    """The part of an invocation's output that ``expected`` pins."""
    if "tree" in expected:
        return tree_digest(out_dir) if out_dir.is_dir() else None
    try:
        return report_without_timings(stdout.read_text())
    except json.JSONDecodeError:
        return None


def pinned(expected: dict):
    if "tree" in expected:
        return expected["tree"]
    return json.loads((REFERENCE / expected["report"]).read_text())


def load_reference():
    doc = json.loads((REFERENCE / "expected.json").read_text())
    return {ref: dict(exp, value=pinned(exp)) for ref, exp in doc["invocations"].items()}


# -- one run -------------------------------------------------------------------

class Run:
    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.reference = load_reference()
        self.cache = work / "cache" if workload.warm else None
        self.env = child_env(self.cache)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.serial = 0

    def fresh(self, stem: str) -> Path:
        self.serial += 1
        return self.work / f"{self.serial:03d}-{stem}"

    def invoke(self, inv: Invocation, totals_path: Path | None = None) -> Child:
        """Run one CLI invocation, check it against the reference, clean up.
        With ``totals_path`` the invocation runs under bench/trace.py."""
        out_dir = self.fresh(inv.ref)
        stdout = out_dir.with_suffix(".stdout")
        args = [a.replace(OUT, str(out_dir)) for a in inv.args] + ["--seed", str(self.seed)]
        if totals_path is None:
            argv = [sys.executable, "-m", "ogclab.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "trace.py"), str(totals_path), "--", *args]
        child = spawn(argv, self.env, stdout, self.deadline - CLOCK())
        exp = self.reference[inv.ref]
        self.attempted += 1
        if child.code != exp["exit"]:
            self.fail(f"{inv.ref}: exit {child.code}, expected {exp['exit']}")
        elif observed(exp, stdout, out_dir) != exp["value"]:
            self.fail(f"{inv.ref}: output differs from the pinned reference")
        shutil.rmtree(out_dir, ignore_errors=True)
        return child

    def fail(self, why: str):
        self.failed += 1
        self.failures.append(why)

    def set_up(self):
        """Median of SETUP_REPEATS (scratch directory + import of the CLI in a
        fresh interpreter), plus, for the warm workload, one cache fill by
        ``ogclab enumerate`` into the private cache."""
        probe = ("import sys, ogclab.cli; "
                 "sys.exit(0 if ogclab.cli.__file__.startswith(sys.argv[1]) else 3)")
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = CLOCK()
            scratch = self.fresh("setup")
            scratch.mkdir()
            child = spawn([sys.executable, "-c", probe, str(SRC)], self.env,
                          scratch.with_suffix(".stdout"), self.deadline - CLOCK())
            scratch.rmdir()
            times.append(CLOCK() - t0)
            if child.code != 0:
                raise SystemExit(f"cannot import ogclab.cli from {SRC}")
        setup = statistics.median(times)
        if self.workload.warm:
            self.cache.mkdir()
            setup += self.invoke(ENUMERATE_G1N4).wall_s
        return setup

    def one_pass(self):
        """Every invocation once, untraced; returns (wall, cpu, peak rss)."""
        wall = cpu = rss = 0.0
        for inv in self.workload.invocations:
            child = self.invoke(inv)
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
        return wall, cpu, rss

    def traced_pass(self):
        """Every invocation once under bench/trace.py; returns the summed
        totals, the traced wall time and the absent span kinds."""
        totals = Totals()
        wall = 0.0
        missing = set()
        for inv in self.workload.invocations:
            doc_path = self.fresh(inv.ref + "-trace").with_suffix(".json")
            child = self.invoke(inv, totals_path=doc_path)
            try:
                doc = json.loads(doc_path.read_text())
            except (OSError, json.JSONDecodeError):
                self.fail(f"{inv.ref}: traced run wrote no totals")
                continue
            wall += child.wall_s - doc["post_main_s"]
            missing.update(doc["absent"])
            missing.update(doc["size_errors"])
            for key, value in doc["totals"].items():
                totals[key] = max(totals[key], value) if ".max_" in key else totals[key] + value
            if doc["totals"].get("probe.mismatches"):
                self.fail(f"{inv.ref}: modular and rational probe ranks disagree")
        for key, value in self.workload.trace_expect:
            kind = key.split(".")[0]
            if kind not in missing and totals[key] != value:
                self.fail(f"traced pass: {key} = {totals[key]:g}, expected {value}")
        return totals, wall, missing


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path):
    start = CLOCK()
    run = Run(workload, seed, work, start + RUN_BUDGET_S)
    setup_s = run.set_up()
    passes = []
    t_end = CLOCK() + seconds
    while True:
        passes.append(run.one_pass())
        now = CLOCK()
        # leave room for another pass, or for the traced pass and rank probe
        room = passes[-1][0] * (3.5 if trace else 1.2)
        if now >= t_end or now + room > run.deadline:
            break
    walls, cpus, rsss = (list(x) for x in zip(*passes))
    samples = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss, "setup_s": setup_s}
    absent = []
    if not trace:
        metrics = {"wall_s": statistics.median(walls),
                   "peak_rss_mb": statistics.median(rsss),
                   "setup_s": setup_s,
                   "pass_ratio": (run.attempted - run.failed) / run.attempted}
    else:
        totals, traced_wall, missing = run.traced_pass()
        totals["process.cpu_s"] = statistics.median(cpus)
        totals["trace.overhead_ratio"] = traced_wall / statistics.median(walls)
        absent = sorted(n for n, (kinds, _) in PER_LAYER.items() if missing.intersection(kinds))
        metrics = {name: 0.0 if name in absent else value(totals)
                   for name, (_, value) in PER_LAYER.items()}
        samples["traced_wall_s"] = traced_wall
    return run, metrics, samples, absent


# -- environment -------------------------------------------------------------

def source_digest():
    """sha256 over the names and bytes of the package's ``.py`` files."""
    h = hashlib.sha256()
    for fp in sorted((SRC / "ogclab").rglob("*.py")):
        h.update(fp.relative_to(SRC).as_posix().encode() + b"\0" + fp.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed):
    return {"commit": git_commit(), "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "loadavg": os.getloadavg(),
            "seed": seed}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=None,
                        help="append the run record as one JSON line to this file")
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace and set(units) != set(PER_LAYER):
        raise SystemExit("BENCHMARK.json per_layer and bench/run.py disagree")
    if not (SRC / "ogclab" / "cli.py").is_file():
        raise SystemExit(f"no ogclab sources under {SRC}")

    env = environment(args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run, metrics, samples, absent = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"workload": args.workload, "trace": args.trace, "env": env,
              "samples": samples, "absent": absent, "failures": run.failures}
    if args.results is not None:
        with open(args.results, "a") as fh:
            fh.write(json.dumps(dict(record, result=result), sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
