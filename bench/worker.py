"""gapdyn's CLI entry point, run for the benchmark, and the in-process probe.

    python3 worker.py serve
        Imports gapdyn.cli, answers {"ready": <gapdyn's path>}, then serves
        one JSON request per stdin line with one JSON reply per stdout line:
          {"ops": [[argv, ...], ...], "trace": bool, "probe": bool}
              runs probe, op, probe, op, ..., probe (or the ops alone, for a
              warm-up).  An op is a list of CLI calls made through
              gapdyn.cli.main with stdout and stderr captured; the op's wall
              time covers all of them.
          {"hwm": true}
              this process's peak resident set in kB.
    python3 worker.py once SIDE ARGV...
        One CLI call made as the console script makes it.  Writes the peak
        resident set, the time inside main() and, with BENCH_TRACE=1 in the
        environment, the layer spans to the JSON file SIDE.

The probe runs no gapdyn code and runs only between operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def probe() -> float:
    """Wall time of a fixed mix of the work gapdyn does in-process: a scalar
    float loop (the steppers), %.17g and %.2f formatting of a few hundred kB
    written to a file (CSV and SVG output), float parsing (CSV input) and
    numpy calls on small and large arrays (shocks, metrics, fits)."""
    import numpy as np

    start = time.perf_counter()
    y, v = 1.0, 0.0
    for _ in range(20000):
        accel = -0.3 * v - 2.0 * y + 0.01
        y, v = y + v * 0.01, v + accel * 0.01
    rows = np.arange(3000) * 0.1
    text = "".join("%.17g,%.17g,%.17g,%.17g\n" % (t, t * y, t * v, -t) for t in rows)
    points = " ".join(f"{t:.2f},{t * y:.2f}" for t in rows)
    with open(os.devnull, "w") as fh:
        fh.write(text)
        fh.write(points)
    parsed = [float(c) for c in text[:40000].replace("\n", ",").split(",") if c]
    a = np.asarray(parsed)
    for _ in range(100):
        a = np.sqrt(np.abs(a[::-1] * 0.5 + 1.0))
        float(a @ a)
    b = np.linspace(0.0, 1.0, 200000)
    for _ in range(5):
        b = np.sqrt(b * b + 1.0)
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _call(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # an escaped exception is a failed call, not a dead worker
            rc = -1
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def serve() -> None:
    import gapdyn
    from gapdyn.cli import main

    from tracer import Tracer

    tracer = Tracer()
    reply = sys.stdout
    reply.write(json.dumps({"ready": gapdyn.__file__}) + "\n")
    reply.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if "hwm" in request:
            answer = {"hwm_kb": peak_rss_kb()}
        else:
            if request["trace"]:
                tracer.install()
            probing = request["probe"]
            probes = [probe() if probing else 1.0]
            ops = []
            for calls in request["ops"]:
                start = time.perf_counter()
                results = []
                main_s = 0.0
                for argv in calls:
                    t0 = time.perf_counter()
                    results.append(_call(main, argv))
                    main_s += time.perf_counter() - t0
                wall = time.perf_counter() - start
                trace = tracer.take() if request["trace"] else None
                if trace is not None:
                    trace["main_s"] = main_s
                probes.append(probe() if probing else 1.0)
                ops.append({"wall": wall, "calls": results, "trace": trace})
            tracer.uninstall()
            answer = {"ops": ops, "probes": probes}
        reply.write(json.dumps(answer) + "\n")
        reply.flush()


def once(side: str, argv: list[str]) -> int:
    from gapdyn.cli import main

    tracer = None
    if os.environ.get("BENCH_TRACE") == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        rc = main(argv)
    finally:
        main_s = time.perf_counter() - start
        record = {"hwm_kb": peak_rss_kb(), "main_s": main_s}
        if tracer is not None:
            record["trace"] = dict(tracer.take(), main_s=main_s)
        with open(side, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "serve":
        serve()
    else:
        sys.exit(once(sys.argv[2], sys.argv[3:]))
