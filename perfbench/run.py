"""Scenario benchmark of ``vacuum_shake``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {scatter3,oracle,rates3d,small,all}
                             --seed N --seconds S --trace {0,1}

Each repetition runs the workload's scenario configs, generated from the
seed, through ``vacuum_shake.cli.run_scenario`` in fresh child processes
with one thread, and checks their outputs.  Repetitions continue while
they fit in ``--seconds`` (at least ``MIN_REPS``); ``all`` runs the
workloads round-robin so that drift on a shared host spreads across them.

End-to-end metrics (``--trace 0``), medians over repetitions:

* ``wall_s``: ``run_scenario`` call to return, outputs written;
* ``setup_s``: process spawn until ``vacuum_shake.cli`` is imported and
  its schema loaded;
* ``cpu_s``: user+sys CPU of the child during ``run_scenario``;
* ``peak_rss_mb``: the child's peak resident set size.

A workload of several configs sums the first three and takes the largest
RSS.  The three times are scaled to a fixed host speed by the reference
loop each child runs around ``run_scenario`` (see ``reference.py``): on a
shared host the speed drifts by up to a factor of two, which would swamp
the differences the benchmark exists to show.  The unscaled medians are
printed too.

``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics of ``spans.PER_LAYER`` instead.  The last line of
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a failed run (non-zero exit, timeout or failed output check)
counts against the runs attempted.  Runs write only to a fresh directory
under ``.perfbench_runs/``, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
MIN_REPS = 2
# Every child is killed this long after the run started, so a stuck
# scenario still lets the run end within three minutes.
HARD_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
SCALED = ("wall_s", "setup_s", "cpu_s")


def child_env() -> dict:
    env = dict(os.environ)
    # VACUUM_SHAKE_THREADS would override the thread count given to the CLI
    env.pop("VACUUM_SHAKE_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


def host_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap ``proc`` with its resource usage; None if it had to be killed.

    The child is killed and reaped at ``deadline`` or on any exception here.
    """
    try:
        while time.monotonic() <= deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            time.sleep(0.005)
    finally:
        if proc.returncode is None:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return None


class Runner:
    """Runs repetitions of scenario configs inside one scratch directory."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._n = 0

    def warm_up(self):
        """Import the package once, so the first repetition reads no cold files."""
        subprocess.run([sys.executable, "-c", "import vacuum_shake.cli"],
                       env=self.env, cwd=ROOT, capture_output=True,
                       timeout=max(1.0, self.deadline - time.monotonic()))

    def _process(self, cfg: dict, trace: bool) -> dict | None:
        self._n += 1
        d = self.workdir / f"p{self._n}"
        d.mkdir()
        (d / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        argv = [sys.executable, str(HERE / "child.py"), str(d / "config.json"),
                str(d / "out"), str(d / "result.json")]
        if trace:
            argv.append("--trace")
        self.attempted += 1
        with open(d / "log.txt", "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdout=log, stderr=subprocess.STDOUT)
            usage = _wait(proc, self.deadline)
        if usage is None:
            problems = ["timed out"]
        elif not (d / "result.json").is_file():
            problems = [f"no result (exit code {proc.returncode})"]
        else:
            problems = check.check_run(cfg["scenario"], proc.returncode, d / "out")
        res = None
        if problems:
            self.failed += 1
            log_tail = (d / "log.txt").read_text(errors="replace")[-800:]
            self.problems.append(f"{cfg['scenario']}: {'; '.join(problems)}\n"
                                 f"{log_tail}")
        else:
            res = json.loads((d / "result.json").read_text(encoding="utf-8"))
            res.update(setup_s=res["ready"] - t_spawn,
                       peak_rss_mb=usage.ru_maxrss / 1024.0,
                       output_bytes=sum(f.stat().st_size
                                        for f in (d / "out").iterdir()))
            res["raw"] = {key: res[key] for key in SCALED}
            scale = reference.REF_S / res["ref_s"]
            res.update({key: res[key] * scale for key in SCALED})
        shutil.rmtree(d)
        return res

    def rep(self, cfgs: list[dict], trace: bool = False) -> dict | None:
        """One repetition of ``cfgs``; its metrics, or None when any failed.

        Each process's ``SCALED`` times are scaled by its own reference
        runs before they are summed; ``raw`` keeps the sums as measured.
        """
        results = [self._process(cfg, trace) for cfg in cfgs]
        if any(r is None for r in results):
            return None
        out = {key: sum(r[key] for r in results)
               for key in (*SCALED, "output_bytes")}
        out.update(raw={key: sum(r["raw"][key] for r in results)
                        for key in SCALED},
                   ref_s=statistics.mean(r["ref_s"] for r in results),
                   peak_rss_mb=max(r["peak_rss_mb"] for r in results))
        if trace:
            out["layers"] = spans.layer_metrics([r["spans"] for r in results])
            out["absent"] = sorted({a for r in results for a in r["absent"]})
        return out


def end_to_end(reps: list[dict]) -> dict:
    return {name: {"value": statistics.median(r[name] for r in reps),
                   "unit": unit, "samples": len(reps)}
            for name, unit in END_TO_END}


def unscaled(reps: list[dict]) -> str:
    """The medians of the times as measured, and of the reference."""
    parts = [f"{key} {statistics.median(r['raw'][key] for r in reps):.4f}"
             for key in SCALED]
    parts.append(f"reference {statistics.median(r['ref_s'] for r in reps):.4f}")
    return ", ".join(parts)


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name, unit in spans.PER_LAYER:
        if name == "cli.output_bytes":
            values = [r["output_bytes"] for r in traced]
        elif name == "trace.overhead_s":
            values = [statistics.median(r["wall_s"] for r in traced)
                      - statistics.median(r["wall_s"] for r in plain)]
        elif name == "trace.absent_targets":
            values = [len(r["absent"]) for r in traced]
        else:
            values = [r["layers"][name] for r in traced]
        out[name] = {"value": statistics.median(values), "unit": unit,
                     "samples": len(values)}
    return out


def measure(runner: Runner, names: list[str], seed: int, seconds: float,
            trace: bool):
    """Round-robin repetitions over ``names``; (untraced, traced) reps per name.

    A round starts only if a round as long as the last one ends within
    ``seconds``, so the run's length hardly depends on how long a
    repetition takes.
    """
    cfgs = {n: workloads.configs(n, seed) for n in names}
    plain = {n: [] for n in names}
    traced = {n: [] for n in names}
    stop = time.monotonic() + seconds
    rounds, last = 0, 0.0
    while ((rounds < (1 if trace else MIN_REPS) or time.monotonic() + last <= stop)
           and time.monotonic() < runner.deadline):
        began = time.monotonic()
        for n in names:
            r = runner.rep(cfgs[n])
            if r is not None:
                plain[n].append(r)
            if trace:
                r = runner.rep(cfgs[n], trace=True)
                if r is not None:
                    traced[n].append(r)
        rounds += 1
        last = time.monotonic() - began
    return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "vacuum_shake" / "cli.py").is_file():
        print(f"error: no vacuum_shake sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    base = ROOT / ".perfbench_runs"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    runner = Runner(workdir, time.monotonic() + HARD_LIMIT_S)
    try:
        runner.warm_up()
        plain, traced = measure(runner, names, args.seed, args.seconds,
                                bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    for p in runner.problems:
        print(f"FAILED {p}", file=sys.stderr)
    print("# host " + json.dumps(host_info(), sort_keys=True))
    metrics = {}
    for n in names:
        if not plain[n] or (args.trace and not traced[n]):
            print(f"error: {n}: no repetition passed", file=sys.stderr)
            return 1
        found = per_layer(plain[n], traced[n]) if args.trace else end_to_end(plain[n])
        prefix = f"{n}." if len(names) > 1 else ""
        for name, m in found.items():
            print(f"{n:9s} {name:28s} {m['value']:14.6g} {m['unit']:6s} "
                  f"median of {m['samples']}")
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
        print(f"{n:9s} unscaled medians (s): {unscaled(plain[n])}")
        if args.trace and traced[n][0]["absent"]:
            print(f"{n:9s} absent targets: {', '.join(traced[n][0]['absent'])}")
    print(f"failed {runner.failed} of {runner.attempted} processes "
          f"({runner.failed / runner.attempted:.1%})")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
