"""Speed-corrected benchmark of the ``qgaudin`` CLI.

    python3 bench/run.py --workload verify-exact --seed 1 --seconds 30 --trace 0

Runs one workload (see README.md) in a child process, one item at a time,
checks every output, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` is a separate traced run that reports
the per-layer metrics and the tracing overhead.  Every time is corrected
for machine speed by the reference kernel in ``kernel.py``; raw figures are
printed above the JSON line for reference.

Reads and writes only inside the checkout (``bench/_work``).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "_work")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
from kernel import R0_S, kernel_median  # noqa: E402

#: set-up is measured this many times per run (the last is the measured child)
SETUP_SAMPLES = 3
#: the workload processes must be done within this many seconds, leaving
#: time for the checks inside the 180 s a run may take
DEADLINE_S = 150.0


class BenchError(Exception):
    pass


def _spawn(args, mode, files, deadline):
    """Start a workload process; return (process, corrected and raw set-up)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--work", WORK, *files]
    # one worker thread; a fixed hash seed keeps every set and dict order the same
    env = dict(os.environ, QG_THREADS="1", PYTHONHASHSEED="0")
    k_before = kernel_median()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - t0))[0]:
            raise BenchError("workload process did not get ready before the deadline")
        word, _, kernels = proc.stdout.readline().partition(" ")
        raw = time.perf_counter() - t0
        if word != "ready":
            raise BenchError(f"workload process did not start (exit {proc.poll()})")
        speed = statistics.mean([k_before, kernel_median(), *json.loads(kernels)])
        if time.perf_counter() > deadline:
            raise BenchError("set-up ran past the deadline")
    except BaseException:
        _stop(proc)
        raise
    return proc, raw * R0_S / speed, raw


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_workload(args):
    os.makedirs(WORK, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    result = os.path.join(WORK, f"result-{tag}.json")
    outputs = os.path.join(WORK, f"outputs-{tag}.jsonl")
    spans = os.path.join(WORK, f"spans-{tag}.json")
    files = ["--result", result, "--outputs", outputs] + (["--spans", spans] if args.trace else [])
    setups = []
    for k in range(SETUP_SAMPLES):
        last = k == SETUP_SAMPLES - 1
        mode = ("trace" if args.trace else "plain") if last else "setup"
        proc, corrected, raw = _spawn(args, mode, files if last else [], deadline)
        setups.append((corrected, raw))
        try:
            if last:
                proc.stdin.write("go\n")
                proc.stdin.flush()
            rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise BenchError("workload process ran past the deadline")
        finally:
            _stop(proc)
        if rc != 0:
            raise BenchError(f"workload process exited {rc}")
    with open(result) as fh:
        res = json.load(fh)
    with open(outputs) as fh:
        items = [json.loads(line) for line in fh]
    os.remove(outputs)
    span_list = []
    if args.trace:
        with open(spans) as fh:
            span_list = json.load(fh)
    return res, items, span_list, setups


def speed_factor(item):
    """R0_S / r_i, with r_i the mean of the kernel runs either side of the item."""
    return R0_S / ((item["k_before"] + item["k_after"]) / 2)


def corrected(item):
    """The item's wall time scaled to the idle machine's speed."""
    return item["wall"] * speed_factor(item)


def end_to_end(items, setups, peak_rss_kb):
    ok = [it for it in items if it["rc"] == 0]
    if len(ok) < 2:
        raise BenchError(f"only {len(ok)} of {len(items)} items succeeded")
    lat = [corrected(it) for it in ok]
    raw = [it["wall"] for it in ok]
    metrics = {
        "items_per_s": (len(ok) / sum(corrected(it) for it in items), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(c for c, _ in setups), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    raw_figures = {
        "items_per_s": len(ok) / sum(it["wall"] for it in items),
        "latency_p50_ms": statistics.median(raw) * 1e3,
        "latency_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
        "setup_s": statistics.median(r for _, r in setups),
    }
    return metrics, raw_figures


def per_layer(items, span_list, counts):
    by_pass = {}
    for it in items:
        by_pass.setdefault(it["pass"], []).append(it)
    rate = {p: len(its) / sum(corrected(it) for it in its) for p, its in by_pass.items()}
    traced = {it["index"]: it for it in by_pass["spans"]}
    factors = {i: speed_factor(it) for i, it in traced.items()}
    cases = {i: sum(d.get("cases", 0) for d in checks._lines(it["output"])) for i, it in traced.items()}
    values = tracer.span_metrics([tuple(s) for s in span_list], factors, cases)
    witnesses = sum('"witness"' in it["output"] for it in traced.values())
    attempts = values["verystable.witness_attempts"] * len(traced)
    values["verystable.witness_yield"] = witnesses / attempts if attempts else 0.0
    for key in list(tracer.COUNTED) + ["scalars.max_coeff_bits"]:
        values[key] = sum(c.get(key, 0) for c in counts.values()) / len(by_pass["counts"])
    values["trace.untraced_items_per_s"] = rate["plain"]
    values["trace.traced_items_per_s"] = rate["spans"]
    values["trace.overhead_pct"] = (rate["plain"] / rate["spans"] - 1) * 100
    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    return {name: (values[name], units[name]) for name in units}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_checks(items, seed):
    from quadric_gaudin import cli

    scratch = os.path.join(WORK, f"check-{os.getpid()}.out")
    problems = checks.check_planted_fault(cli, scratch, seed)
    for it in items:
        # a failed item fails its check too, so `correct` is false
        problems += [f"item {it['index']} {it['argv'][:5]}: {p}"
                     for p in checks.check_item(it, cli, scratch, seed)]
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "quadric_gaudin", "cli.py")):
        print("bench: src/quadric_gaudin not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        res, items, span_list, setups = run_workload(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 3

    attempted = len(items)
    failed = sum(it["rc"] != 0 for it in items)
    t0 = time.perf_counter()
    problems = run_checks(items, args.seed)
    check_s = time.perf_counter() - t0
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    for it in [it for it in items if it["rc"] != 0][:5]:
        print(f"ITEM FAILED: exit {it['rc']} {it['argv']}: {it['output'][-300:]!r}")

    plain = [it for it in items if it["pass"] == "plain"]
    print(f"{args.workload} seed {args.seed}: {attempted} items, {failed} failed, "
          f"{len(problems)} check problems ({check_s:.1f} s); plain pass {len(plain)} items")
    if args.trace:
        metrics = per_layer(items, span_list, res["counts"])
        for name, (value, unit) in metrics.items():
            print(f"  {name:30s} {value:12.5g} {unit}")
    else:
        try:
            metrics, raw = end_to_end(plain, setups, res["peak_rss_kb"])
        except BenchError as e:
            print(f"bench: {e}", file=sys.stderr)
            return 3
        print("raw       " + "  ".join(f"{k}={v:.4g}" for k, v in raw.items()))
        print("corrected " + "  ".join(f"{k}={v:.4g}" for k, (v, _) in metrics.items()))
        print(f"set-up samples (corrected, raw s): "
              f"{[(round(c, 3), round(r, 3)) for c, r in setups]}")
        if args.workload == "operators":
            shapes = [tuple(it["shape"]) for it in plain]
            repeats = len(shapes) - len(set(shapes))
            print(f"(N, --dmax) shape repeats: {repeats}/{len(shapes)} items "
                  f"({100 * repeats / len(shapes):.0f}%)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
