"""End-to-end benchmark of the infsup-lab command line.

    python3 perfbench/run.py --workload {stability,convergence,sweeps} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs installing.  Each
workload is a fixed list of CLI invocations (``workloads.py``).  One pass
runs every invocation once, one child process at a time (a closed loop with
one client), in an order the seed permutes; the inputs never change, so the
reference checks hold for every seed.  Each child runs ``launch.py`` with
``--json`` into a scratch directory in the checkout, with BLAS pinned to one
thread and ``INFSUP_LAB_THREADS`` unset.

``--trace 0`` runs passes until the next one would end after ``--seconds``
(at least one) and reports, as medians over passes:

* ``wall_s``: from spawning the first child to the exit of the last;
* ``setup_s``: summed over children, from spawn to ``cli.main`` entered
  (interpreter start plus numpy/scipy/package import);
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any child, in MiB.

``--trace 1`` runs one untraced pass and one pass with ``layertrace`` wrapping
the package's functions, and reports the per-layer metrics of the traced pass
(``layertrace.UNITS``); ``trace.overhead_s`` is the difference of the two
passes' wall times.

The last line of standard output is the result object; the line before it
holds the run's metadata (commit, machine, BLAS, thread settings, load
average, per-pass figures and any failure).  An invocation fails on an
unexpected exit code, a missing or unreadable JSON document, or a value that
differs from its reference.  Exit code 2 means the benchmark could not start
(no sources, or the CLI does not start); exit code 1 means no pass finished
within the run's time limit.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import layertrace
from workloads import WORKLOADS, check_csv, check_json

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
RUN_LIMIT_S = 170.0             # the whole run, so a hung child cannot stall it

# One BLAS thread per child, and one child at a time: at most two busy
# threads (driver plus child) on a two-core machine.  No bytecode is written,
# so every child compiles the package the same way and nothing is written
# outside the checkout.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


class Run:
    def __init__(self, cases, workdir, deadline):
        self.cases = cases
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k != "INFSUP_LAB_THREADS"}
        self.env.update(CHILD_ENV)
        self.attempted = 0
        self.failures = []

    def _spawn(self, argv, tag, traced):
        """Run one child to completion; (exit code or None, spawn time,
        exit time, launcher report or None)."""
        report_path = os.path.join(self.workdir, f"{tag}.report.json")
        env = dict(self.env, PERFBENCH_REPORT=report_path,
                   PERFBENCH_TRACE="1" if traced else "0")
        with open(os.path.join(self.workdir, f"{tag}.stderr"), "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen([sys.executable, LAUNCH, *argv], cwd=ROOT,
                                    env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=max(self.deadline - spawned, 0.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            exited = time.monotonic()
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            report = None
        return code, spawned, exited, report

    def stderr_tail(self, tag):
        with open(os.path.join(self.workdir, f"{tag}.stderr"), "rb") as fh:
            lines = fh.read().decode(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""

    def _check(self, case, tag, code, json_path, csv_path):
        if code is None:
            return ["killed at the run's time limit"]
        if code != 0:
            return [f"exit code {code}: {self.stderr_tail(tag)}"]
        try:
            with open(json_path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"no JSON document: {exc}"]
        bad = check_json(case, doc)
        if case.csv and not bad:
            try:
                with open(csv_path, newline="") as fh:
                    bad = check_csv(doc, list(csv.reader(fh)))
            except (OSError, ValueError, KeyError) as exc:
                bad = [f"unreadable CSV: {exc}"]
        return bad

    def prime(self):
        """One untimed start, so the file cache is warm."""
        code, _, _, report = self._spawn(["--version"], "prime", False)
        return code == 0 and report is not None

    def run_pass(self, number, order, traced):
        """Run every case once in ``order``; None when the time limit cut
        the pass short."""
        cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        first = last = None
        setup = teardown = 0.0
        outputs, traces = [], []
        for index in order:
            case = self.cases[index]
            tag = f"p{number}-c{index}"
            json_path = os.path.join(self.workdir, f"{tag}.json")
            csv_path = os.path.join(self.workdir, f"{tag}.csv")
            argv = [*case.argv, "--json", json_path]
            if case.csv:
                argv += ["--csv", csv_path]
            self.attempted += 1
            code, spawned, exited, report = self._spawn(argv, tag, traced)
            first = spawned if first is None else first
            last = exited
            if report is not None:
                setup += report["entered"] - spawned
                teardown += exited - report["left"]
                if traced and "trace" in report:
                    traces.append(report["trace"])
            outputs.append((case, tag, code, json_path, csv_path, report))
            if code is None:
                break
        # outputs are checked after the pass so wall_s holds only the children
        for case, tag, code, json_path, csv_path, report in outputs:
            bad = self._check(case, tag, code, json_path, csv_path)
            if report is None and not bad:
                bad = ["launcher wrote no report"]
            if bad:
                self.failures.append({"pass": number,
                                      "argv": " ".join(case.argv),
                                      "problems": bad})
        if outputs[-1][2] is None:
            return None
        cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        return {"wall_s": last - first, "setup_s": setup,
                "exit_s": teardown,
                "cpu_s": (cpu1.ru_utime + cpu1.ru_stime
                          - cpu0.ru_utime - cpu0.ru_stime),
                "order": list(order), "loadavg_after": os.getloadavg(),
                "traces": traces}


def _blas_info():
    info = {}
    for name in ("numpy", "scipy"):
        try:
            mod = __import__(name)
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[name] = {"version": mod.__version__, "blas": blas.get("name"),
                          "blas_version": blas.get("version"),
                          "blas_config": blas.get("openblas configuration")}
        except (ImportError, TypeError, KeyError) as exc:
            info[name] = {"error": repr(exc)}
    return info


def _source_identity():
    """Git commit when the checkout is a repository, and always a digest of
    the package sources."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "infsup_lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "infsup_lab", "cli.py")):
        print(f"run.py: no infsup_lab sources under {ROOT}/src",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    cases = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            **_source_identity(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "libs": _blas_info(),
            "child_env": {**CHILD_ENV, "INFSUP_LAB_THREADS": "unset"},
            "loadavg_before": os.getloadavg()}

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(cases, workdir, started + RUN_LIMIT_S)
        if not run.prime():
            print("run.py: the CLI does not start:", run.stderr_tail("prime"),
                  file=sys.stderr)
            return 2
        passes = []

        def next_pass(traced):
            order = list(range(len(cases)))
            rng.shuffle(order)
            return run.run_pass(len(passes), order, traced)

        if args.trace:
            passes.append(next_pass(False))
            if passes[-1] is not None:
                passes.append(next_pass(True))
        else:
            while True:
                passes.append(next_pass(False))
                elapsed = time.monotonic() - started
                if (passes[-1] is None
                        or elapsed + passes[-1]["wall_s"] > args.seconds):
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done = [p for p in passes if p is not None]
    if not done or (args.trace and len(done) < 2):
        print("run.py: no complete pass within the time limit:",
              json.dumps(run.failures), file=sys.stderr)
        return 1
    meta["loadavg_after"] = os.getloadavg()
    meta["passes"] = [{k: v for k, v in p.items() if k != "traces"}
                      for p in done]
    meta["failures"] = run.failures

    if args.trace:
        plain, traced = done
        total = layertrace.aggregate(traced["traces"])
        meta["absent"] = total["absent"]
        metrics = layertrace.layer_metrics(
            total, busy_s=traced["wall_s"] - traced["setup_s"],
            overhead_s=traced["wall_s"] - plain["wall_s"],
            cpu_s=plain["cpu_s"], exit_s=traced["exit_s"])
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in done),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in done),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
        }

    failed = len(run.failures)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
