"""Run one scenario config in a fresh process and record its timings.

Usage: python3 child.py CONFIG OUTDIR RESULT_JSON [--trace]

``vacuum_shake`` must be importable (the parent puts ``src`` on PYTHONPATH).
The result file holds the monotonic clock reading once the CLI module is
imported and its schema loaded (the parent subtracts its own reading at
spawn), the wall and CPU time of ``run_scenario``, the mean time of the
reference loop run right before and right after it, its exit code and,
with ``--trace``, the recorded layer spans.  The process exits with the
scenario's exit code.
"""

import sys
import time


def main(argv: list[str]) -> int:
    from vacuum_shake import cli

    cli.load_schema()
    ready = time.monotonic()

    import json
    import resource

    from reference import reference

    def cpu_s() -> float:
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return ru.ru_utime + ru.ru_stime

    config, outdir, result_path = argv[:3]
    tracer = None
    if "--trace" in argv[3:]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    ref = reference()
    cpu0 = cpu_s()
    t0 = time.perf_counter()
    rc = cli.run_scenario(config, outdir, threads=1)
    wall = time.perf_counter() - t0
    cpu = cpu_s() - cpu0
    ref = 0.5 * (ref + reference())
    result = {"ready": ready, "rc": rc, "wall_s": wall, "cpu_s": cpu,
              "ref_s": ref}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
