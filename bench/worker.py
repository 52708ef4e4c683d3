"""The workload process: one caller, one item at a time, on one thread.

Started by ``run.py``.  It imports the program, runs one warm-up item,
makes the first round of inputs and prints ``ready`` with the kernel times
it took along the way; set-up ends there.  In
``setup`` mode it then exits.  Otherwise it waits for ``go`` on stdin and
runs whole rounds of items through ``quadric_gaudin.cli.main(argv)`` until
its time is up, timing the reference kernel beside every item.

Passes: ``plain`` (untraced; the end-to-end figures), ``spans`` (span
wrappers) and ``counts`` (operator counters).  ``--trace 1`` runs all three,
a third of the time each; otherwise only ``plain`` runs.

Everything the parent needs is written outside the timed region: one JSON
line per item (times, exit code, output) to ``--outputs``, and the counts
and peak RSS to ``--result`` at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
from kernel import time_kernel  # noqa: E402
from tracer import Tracer  # noqa: E402

#: exit code recorded for an item whose cli.main call raised
INTERNAL_FAILURE = 70


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "trace"), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", default=None)
    ap.add_argument("--outputs", default=None)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    # kernel runs spread over set-up, which run.py uses to correct it
    setup_kernels = [time_kernel()]
    from quadric_gaudin import cli

    setup_kernels.append(time_kernel())
    out_path = os.path.join(args.work, f"item-{os.getpid()}.out")
    doc_path = os.path.join(args.work, f"item-{os.getpid()}.json")
    source = inputs.WORKLOADS[args.workload](args.seed)

    def call(item):
        argv = [a.replace("{out}", out_path).replace("{doc}", doc_path) for a in item.argv]
        if item.doc is not None:
            with open(doc_path, "w") as fh:
                json.dump(item.doc, fh)
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an escaped exception is a failed item, not a failed run
            rc = INTERNAL_FAILURE
            with open(out_path, "a") as fh:
                fh.write(traceback.format_exc())
        return rc, time.perf_counter() - t0

    call(source.warmup())
    for path in (out_path, doc_path):
        if os.path.exists(path):
            os.remove(path)
    setup_kernels.append(time_kernel())
    pending = source.next_round()
    setup_kernels.append(time_kernel())
    print("ready", json.dumps(setup_kernels), flush=True)
    if args.mode == "setup":
        return 0
    if sys.stdin.readline().strip() != "go":
        return 1

    tracer = Tracer()
    passes = ["plain"] if args.mode == "plain" else ["plain", "spans", "counts"]
    budget = args.seconds / len(passes)
    counts = {}
    peak_rss_kb = 0
    with open(args.outputs, "w") as outputs:
        for name in passes:
            if name == "spans":
                tracer.install_spans()
            elif name == "counts":
                tracer.install_counters()
            start = time.perf_counter()
            k_prev = time_kernel()
            while True:
                for item in pending:
                    tracer.item = item.index
                    tracer.counts.clear()
                    rc, wall = call(item)
                    if name == "counts":
                        counts[item.index] = dict(tracer.counts)
                    k_next = time_kernel()
                    output = ""
                    if os.path.exists(out_path):
                        with open(out_path) as fh:
                            output = fh.read()
                        os.remove(out_path)
                    # streamed, so the process's memory does not grow with the run
                    outputs.write(json.dumps({
                        "pass": name, "index": item.index, "wall": wall, "k_before": k_prev,
                        "k_after": k_next, "rc": rc, "argv": item.argv, "kind": item.kind,
                        "shape": list(item.shape), "doc": item.doc, "expect": item.expect,
                        "output": output}) + "\n")
                    k_prev = k_next
                pending = source.next_round()
                if time.perf_counter() - start >= budget:
                    break
            tracer.uninstall()
            if name == "plain":
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if os.path.exists(doc_path):
        os.remove(doc_path)
    with open(args.result, "w") as fh:
        json.dump({"counts": counts, "peak_rss_kb": peak_rss_kb}, fh)
    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
