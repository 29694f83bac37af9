"""Drift-normalised benchmark of the gapdyn command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: gapdyn is imported from its src/ directory.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  A line before it, starting "reference",
gives raw wall times and tail figures that are not metrics.

Every time in a metric is a normalised wall time: the raw wall time times
P_REF / p, where p is the mean wall time of a fixed probe run right before
and right after the timed work, while gapdyn is idle.  The probe does the
same kind of work as what it brackets (a fresh interpreter importing numpy
for process starts, a Python-loop and numpy mix in-process), and the
benchmark pins itself and its children to one CPU, so probe and operation
share the host's speed of the moment.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracle
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

# Reference probe times (s): normalised times read as seconds of a machine
# on which the probe takes this long.
P_REF_PROCESS = 0.25
P_REF_INPROC = 0.025

# A fresh interpreter that imports numpy and a few stdlib packages, then
# runs a fixed loop: process start-up and import work, like a CLI call.
PROCESS_PROBE = (
    "import numpy, argparse, csv, dataclasses, json, xml.etree.ElementTree\n"
    "acc = 0\n"
    "for i in range(150000):\n"
    "    acc += i * i % 7\n"
)

SETUP_REPEATS = 5
FLOOR_REPEATS = 3


def _env(trace: bool = False) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GAPDYN_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    env["BENCH_TRACE"] = "1" if trace else "0"
    return env


def process_probe() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROCESS_PROBE], env=_env(), check=True)
    return time.perf_counter() - start


class OpResult:
    def __init__(self, wall, probe_before, probe_after, p_ref, calls, trace, hwm_kb=0):
        self.wall = wall
        self.probe = 0.5 * (probe_before + probe_after)
        self.factor = p_ref / self.probe
        self.norm = wall * self.factor
        self.calls = calls
        self.trace = trace
        self.hwm_kb = hwm_kb


class Children:
    """Runs every CLI call in a fresh process, as a scripting user does."""

    p_ref = P_REF_PROCESS

    def __init__(self, dirpath: Path) -> None:
        self.side = dirpath / "side.json"

    def run(self, ops, trace: bool, probe: bool = True) -> list[OpResult]:
        env = _env(trace)
        results = []
        before = process_probe() if probe else 1.0
        for op in ops:
            calls, traces, hwm = [], [], 0
            start = time.perf_counter()
            for argv, _ in op:
                self.side.unlink(missing_ok=True)
                proc = subprocess.run([sys.executable, str(WORKER), "once", str(self.side)] + argv,
                                      capture_output=True, text=True, env=env)
                calls.append({"rc": proc.returncode, "out": proc.stdout, "err": proc.stderr})
                record = json.loads(self.side.read_text()) if self.side.exists() else {}
                hwm = max(hwm, record.get("hwm_kb", 0))
                traces.append(record.get("trace"))
            wall = time.perf_counter() - start
            after = process_probe() if probe else 1.0
            results.append(OpResult(wall, before, after, self.p_ref, calls,
                                    _merge(traces) if trace else None, hwm))
            before = after
        return results

    def peak_rss_kb(self, results: list[OpResult]) -> int:
        return max(r.hwm_kb for r in results)

    def close(self) -> None:
        pass


class Worker:
    """One long-lived process that imports gapdyn once and calls
    gapdyn.cli.main for every CLI call, probing between operations."""

    p_ref = P_REF_INPROC

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(WORKER), "serve"], env=_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready = json.loads(self.proc.stdout.readline() or "{}")
        where = Path(ready.get("ready", "")).resolve()
        if SRC.resolve() not in where.parents:
            self.close()
            raise SystemExit(f"worker imported gapdyn from {where}, not from {SRC}")

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def run(self, ops, trace: bool, probe: bool = True) -> list[OpResult]:
        reply = self._ask({"ops": [[argv for argv, _ in op] for op in ops], "trace": trace,
                           "probe": probe})
        probes = reply["probes"]
        return [OpResult(r["wall"], probes[i], probes[i + 1], self.p_ref, r["calls"], r["trace"])
                for i, r in enumerate(reply["ops"])]

    def peak_rss_kb(self, results) -> int:
        return self._ask({"hwm": True})["hwm_kb"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def _merge(traces: list[dict]) -> dict:
    """One trace for an operation made of several child processes."""
    merged = {"layers": {}, "top_s": 0.0, "main_s": 0.0, "counts": defaultdict(int)}
    for t in filter(None, traces):
        merged["top_s"] += t["top_s"]
        merged["main_s"] += t["main_s"]
        for key, value in t["counts"].items():
            merged["counts"][key] += value
        for layer, vals in t["layers"].items():
            agg = merged["layers"].setdefault(layer, [0.0, 0, 0, 0])
            for j, v in enumerate(vals):
                agg[j] += v
    return merged


def setup(name: str, seed: int, dirpath: Path):
    """Everything before the first timed operation: inputs, the process
    that runs gapdyn (importing it), and one warm-up operation."""
    make, in_process = WORKLOADS[name]
    start = time.perf_counter()
    dirpath.mkdir(parents=True)
    ops = make(dirpath, seed)
    runner = Worker() if in_process else Children(dirpath)
    try:
        runner.run(ops[:1], trace=False, probe=False)
    except BaseException:
        runner.close()
        raise
    return runner, ops, time.perf_counter() - start


def check(ops, results: list[OpResult], failures: list[str]) -> tuple[int, bool]:
    """Compare a round's outputs with the oracle: (failed ops, all outputs right)."""
    failed, correct = 0, True
    for op, res in zip(ops, results):
        problem = None
        for (argv, check_fn), call in zip(op, res.calls):
            if call["rc"] != 0 or call["err"]:
                problem = f"{argv[0]}: exit {call['rc']}: {call['err'].strip()[:300]}"
            else:
                try:
                    check_fn(call["out"])
                except (oracle.CheckFailed, ValueError, IndexError, KeyError, OSError) as exc:
                    problem = f"{argv[0]}: wrong output: {exc}"
                    correct = False
            if problem:
                break
        if problem:
            failed += 1
            failures.append(problem)
    return failed, correct


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def end_to_end(results, setups, probes, peak_kb) -> tuple[dict, dict]:
    norm = [r.norm for r in results]
    metrics = {
        "setup_s": (_median(setups), "s"),
        "op_p50_s": (_median(norm), "s"),
        "ops_per_s": (len(norm) / sum(norm), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    reference = {"ops": len(norm), "op_p50_raw_s": _median([r.wall for r in results]),
                 "probe_raw_s": _median(probes)}
    if len(norm) >= 100:
        reference["op_p90_s"] = statistics.quantiles(norm, n=10)[-1]
    return metrics, reference


def _importtime_scipy_share(stderr: str) -> float:
    """Share of all import time under -X importtime spent in the outermost
    scipy imports (cumulative, so with everything scipy pulls in)."""
    total = 0.0
    pending: list[tuple[int, float]] = []  # (depth, scipy time inside that subtree)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        if depth == 0:
            total += float(cumulative)
        inner = 0.0
        while pending and pending[-1][0] > depth:
            inner += pending.pop()[1]
        name = name.strip()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        pending.append((depth, float(cumulative) if is_scipy else inner))
    return sum(t for _, t in pending) / total if total else 0.0


def startup_floors() -> dict:
    """Start-up floors, each a fresh process between two probes."""
    floors = {
        "startup.python_s": "pass",
        "startup.numpy_s": "import numpy",
        "startup.import_s": "import gapdyn.cli",
    }
    samples = defaultdict(list)
    before = process_probe()
    for _ in range(FLOOR_REPEATS):
        for key, code in floors.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=_env(), check=True)
            wall = time.perf_counter() - start
            after = process_probe()
            samples[key].append(wall * P_REF_PROCESS / (0.5 * (before + after)))
            before = after
    metrics = {key: (_median(v), "s") for key, v in samples.items()}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gapdyn.cli"],
                          env=_env(), capture_output=True, text=True, check=True)
    share = _importtime_scipy_share(proc.stderr)
    metrics["startup.scipy_s"] = (metrics["startup.import_s"][0] * share, "s")
    proc = subprocess.run([sys.executable, "-c", "import sys, gapdyn.cli; print(len(sys.modules))"],
                          env=_env(), capture_output=True, text=True, check=True)
    metrics["startup.modules"] = (float(proc.stdout.strip()), "count")
    return metrics


def per_layer(traced: list[OpResult], untraced: list[OpResult], probes) -> dict:
    n = len(traced)
    self_s, calls, units, nbytes = (defaultdict(float) for _ in range(4))
    counts = defaultdict(float)
    cli_self = wall = 0.0
    for r in traced:
        for layer, (s, c, u, b) in r.trace["layers"].items():
            self_s[layer] += s * r.factor
            calls[layer] += c
            units[layer] += u
            nbytes[layer] += b
        for key, value in r.trace["counts"].items():
            counts[key] += value
        cli_self += (r.trace["main_s"] - r.trace["top_s"]) * r.factor
        wall += r.norm

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return a / b * scale if b else 0.0

    m = {"cli.self_s": (cli_self / n, "s")}
    m["config.parse_s"] = (self_s["config.parse"] / n, "s")
    m["config.calls"] = (calls["config.parse"] / n, "count")
    m["shocks.realize_s"] = (self_s["shocks.realize"] / n, "s")
    m["shocks.realize_calls"] = (calls["shocks.realize"] / n, "count")
    m["shocks.draws"] = (counts["draws"] / n, "count")
    m["shocks.unique_ratio"] = (ratio(counts["unique_forcings"], calls["shocks.realize"]), "ratio")
    for kind in ("euler", "rk4"):
        layer = f"integrate.{kind}"
        m[f"integrate.{kind}_s"] = (self_s[layer] / n, "s")
        m[f"integrate.{kind}_steps"] = (units[layer] / n, "count")
        m[f"integrate.{kind}_us_per_step"] = (ratio(self_s[layer], units[layer], 1e6), "us")
    m["integrate.calls"] = ((calls["integrate.euler"] + calls["integrate.rk4"]) / n, "count")
    m["integrate.forcing_calls"] = (counts["forcing_calls"] / n, "count")
    m["integrate.metrics_s"] = (self_s["integrate.metrics"] / n, "s")
    m["seriesio.write_s"] = (self_s["seriesio.write"] / n, "s")
    m["seriesio.write_rows"] = (units["seriesio.write"] / n, "count")
    m["seriesio.write_mb"] = (nbytes["seriesio.write"] / n / 1e6, "MB")
    m["seriesio.write_us_per_row"] = (ratio(self_s["seriesio.write"], units["seriesio.write"], 1e6), "us")
    m["seriesio.read_s"] = (self_s["seriesio.read"] / n, "s")
    m["seriesio.read_rows"] = (units["seriesio.read"] / n, "count")
    m["seriesio.read_us_per_row"] = (ratio(self_s["seriesio.read"], units["seriesio.read"], 1e6), "us")
    m["svgplot.write_s"] = (self_s["svgplot.write"] / n, "s")
    m["svgplot.points"] = (units["svgplot.write"] / n, "count")
    m["svgplot.mb"] = (nbytes["svgplot.write"] / n / 1e6, "MB")
    m["svgplot.us_per_point"] = (ratio(self_s["svgplot.write"], units["svgplot.write"], 1e6), "us")
    m["estimation.ar2_s"] = (self_s["estimation.ar2"] / n, "s")
    m["estimation.mle_s"] = (self_s["estimation.mle"] / n, "s")
    m["estimation.mle_evals"] = (ratio(counts["mle_evals"], calls["estimation.mle"]), "count")
    m["estimation.obs"] = ((units["estimation.ar2"] + units["estimation.mle"]) / n, "count")
    m["trace.overhead"] = (_median([r.norm for r in traced]) / _median([r.norm for r in untraced]), "ratio")
    m["trace.coverage"] = (sum(self_s.values()) / wall, "ratio")
    m["probe.s"] = (_median(probes), "s")
    return m


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    failures: list[str] = []
    setups, setup_raw = [], []
    plain: list[OpResult] = []
    traced: list[OpResult] = []
    attempted = failed = 0
    correct = True
    runner = None
    try:
        before = process_probe()
        for i in range(1 if trace else SETUP_REPEATS):
            if runner is not None:
                runner.close()
                runner = None
            runner, ops, raw = setup(name, seed, workdir / f"setup{i}")
            after = process_probe()
            setups.append(raw * P_REF_PROCESS / (0.5 * (before + after)))
            setup_raw.append(raw)
            before = after
        start = time.perf_counter()
        while True:
            for traced_round in ((False, True) if trace else (False,)):
                results = runner.run(ops, trace=traced_round)
                n_failed, ok = check(ops, results, failures)
                attempted += len(results)
                failed += n_failed
                correct = correct and ok
                (traced if traced_round else plain).extend(results)
            if time.perf_counter() - start >= seconds:
                break
        peak_kb = runner.peak_rss_kb(plain)
    finally:
        if runner is not None:
            runner.close()
    for problem in failures[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    probes = [r.probe for r in plain + traced]
    if trace:
        metrics = per_layer(traced, plain, probes)
        metrics.update(startup_floors())
        reference = {"ops_traced": len(traced), "ops_untraced": len(plain)}
    else:
        metrics, reference = end_to_end(plain, setups, probes, peak_kb)
        reference["setup_raw_s"] = _median(setup_raw)
    print("reference " + json.dumps(reference, sort_keys=True))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gapdyn" / "cli.py").is_file():
        print(f"error: no gapdyn sources under {SRC}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    base = ROOT / ".bench_run"
    workdir = base / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
