"""Write the reference outputs that bench/run.py checks every run against.

Usage, from the root of a source checkout:

    python3 bench/pin.py

Runs each CLI invocation of the benchmark once, with no cache, and writes its
exit code and pinned output under ``bench/reference``: the digest of the
``enumerate`` output tree and the ``verify-zivkovic`` report without its
``timings`` field.  The committed
reference was written at the seed commit; re-pin only for a change that
states in CHANGES.md why its outputs differ.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def main():
    work = run.ROOT / ".bench_work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run.REFERENCE.mkdir(exist_ok=True)
    env = run.child_env(None)
    invocations = {inv.ref: inv for w in run.WORKLOADS.values() for inv in w.invocations}
    expected = {}
    try:
        for ref, inv in sorted(invocations.items()):
            out_dir = work / ref
            stdout = work / f"{ref}.stdout"
            args = [a.replace(run.OUT, str(out_dir)) for a in inv.args]
            child = run.spawn([sys.executable, "-m", "ogclab.cli", *args], env, stdout,
                              timeout=900)
            entry = {"exit": child.code}
            if run.OUT in inv.args:
                entry["tree"] = run.tree_digest(out_dir)
            else:
                entry["report"] = f"{ref}.json"
                doc = run.report_without_timings(stdout.read_text())
                (run.REFERENCE / entry["report"]).write_text(
                    json.dumps(doc, indent=1, sort_keys=True) + "\n")
            expected[ref] = entry
            print(ref, entry, f"{child.wall_s:.1f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {"pinned_at": commit or None, "source_sha256": run.source_digest(),
           "invocations": expected}
    (run.REFERENCE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
