"""Layered benchmark of tricolor: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload line_leaf --seed 1 --seconds 20 --trace 0

The workload's inputs are built from ``--seed`` (set-up, timed several times),
then every operation runs on every input in repeated passes for ``--seconds``
seconds; each output is checked after it is timed.  ``--trace 0`` reports the
end-to-end metrics, with nothing wrapped.  ``--trace 1`` alternates untraced
passes with passes in which every public tricolor function records a span,
reports the per-layer metrics, and writes the spans to
``.bench_out/spans-<workload>-seed<seed>.jsonl.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; each failure is printed
to standard error with its workload, seed and n, and any failure makes the
exit status 1.  Without an importable ``src/tricolor`` next to this directory
the exit status is 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, Reference
from tracing import LAYERS, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs at least SETUP_REPEATS times, then until it has taken
# SETUP_SECONDS in all or has run SETUP_MAX_REPEATS times.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 50

# Per-layer metrics.  Function statistics come from the operations of the
# traced passes, per pass; SETUP_FUNCTIONS from one traced set-up.
FUNCTION_STATS = {
    "cutsets.find_clique_cutset": ("s", "calls", "hit_ratio", "exp"),
    "cutsets.build_clique_tree": ("s",),
    "cutsets.find_proper_2_cutset": ("s", "calls", "hit_ratio", "exp"),
    "graph.induced_subgraph": ("s", "calls"),
    "graph.connected_components": ("s", "calls"),
    "graph.peel_low_degree": ("s",),
    "graph.build_graph": ("s",),
    "graph.canonical_hash": ("s", "calls"),
    "cli.parse_dimacs": ("s",),
    "pipeline.color_class_member": ("s",),
    "pipeline.verify_certificate": ("s",),
    "recognition.classify_basic": ("s", "calls"),
    "recognition.reconstruct_line_graph_root": ("s",),
    "patterns.find_diamond": ("s", "calls"),
    "coloring.add_back_peeled": ("s",),
    "coloring.edge_color_sparse": ("s",),
    "coloring.color_basic": ("s",),
    "coloring.merge_at_clique": ("s", "calls"),
    "coloring.dual_colorings_for_side": ("s", "calls"),
    "coloring.merge_at_proper2": ("s",),
}
SETUP_FUNCTIONS = (
    "generators.gen_series_parallel",
    "generators.random_cubic_graph",
    "generators.subdivide",
    "generators.line_graph",
    "generators.gen_line_of_subdivided_cubic",
    "patterns.find_bowtie",
    "patterns.find_isk4",
    "cli.write_dimacs",
)
CERTIFICATE_JSON = ("pipeline.ColoringCertificate.to_json", "pipeline.ColoringCertificate.from_json")
STAT_UNITS = {"s": ("s", "lower"), "calls": ("count", "lower"),
              "hit_ratio": ("ratio", "higher"), "exp": ("exp", "lower")}


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [(f"{fn}.{stat}", *STAT_UNITS[stat])
            for fn, stats in FUNCTION_STATS.items() for stat in stats]
    spec += [
        ("pipeline.certificate_json.s", "s", "lower"),
        ("patterns.find_diamond.per_leaf", "calls/leaf", "lower"),
        ("coloring.fallbacks", "count", "lower"),
    ]
    spec += [(f"{fn}.s", "s", "lower") for fn in SETUP_FUNCTIONS]
    for layer in LAYERS:
        spec += [(f"{layer}.busy", "s", "lower"), (f"{layer}.share", "ratio", "lower")]
        if layer != "generators":
            spec.append((f"{layer}.exp", "exp", "lower"))
    spec += [("trace.overhead", "ratio", "lower"), ("trace.attributed", "ratio", "higher")]
    return spec


END_TO_END = (
    ("setup_s", "s"),
    ("color_vps", "vertices/s"),
    ("color_s.largest", "s"),
    ("verify_vps", "vertices/s"),
    ("recognize_vps", "vertices/s"),
    ("recognize_s.largest", "s"),
    ("peak_rss_mb", "MB"),
)


def load_package() -> str | None:
    """Put the checkout's ``src`` first on the path; an error message or None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tricolor
    except ImportError as exc:
        return f"cannot import tricolor from {src}: {exc}"
    if Path(tricolor.__file__).resolve().parent != src / "tricolor":
        return f"tricolor was imported from {tricolor.__file__}, not from {src}"
    return None


class Runner:
    """Runs passes over one workload's items and keeps the outcome tally."""

    def __init__(self, workloads, workload: str, seed: int, items, reference) -> None:
        self.wl = workloads  # the module: operations and checks
        self.workload, self.seed, self.items = workload, seed, items
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        # Filled by traced passes only.
        self.roots: list = []  # (root span, op, item index)
        self.fallbacks = 0
        self.leaves = 0

    def fail(self, item, op: str, problems) -> None:
        """Count one failed operation if ``problems`` is not empty."""
        for problem in problems:
            print(f"FAIL workload={self.workload} seed={self.seed} n={item.n} "
                  f"input={item.label} op={op}: {problem}", file=sys.stderr)
        self.failed += bool(problems)

    def _call(self, tracer, idx, item, op, fn, *args):
        """(result, seconds) of one operation; (None, None) if it raised."""
        self.attempted += 1
        try:
            if tracer is None:
                t0 = perf_counter()
                result = fn(*args)
                return result, perf_counter() - t0
            with tracer.installed():
                t0 = perf_counter()
                with tracer.span(f"op.{op}") as root:
                    result = fn(*args)
                seconds = perf_counter() - t0
            self.roots.append((root, op, idx))
            return result, seconds
        except Exception as exc:  # an operation's failure is a measured outcome
            self.fail(item, op, [f"{type(exc).__name__}: {exc}"])
            return None, None

    def _run_item(self, idx: int, item, tracer) -> dict:
        """Run and check the operations of one input; {op: seconds}."""
        wl = self.wl
        if item.op == "recognize":
            verdicts, t = self._call(tracer, idx, item, "recognize", wl.op_recognize, item)
            if t is None:
                return {}
            self.fail(item, "recognize", wl.check_recognize(item, verdicts))
            return {"recognize": t}
        out, t_color = self._call(tracer, idx, item, "color", wl.op_color, item)
        if t_color is None:
            return {}
        g, cert, text = out
        self.fail(item, "color", wl.check_color(item, text))
        if tracer is not None:
            self.fallbacks += cert.fallback_count
            self.leaves += len(cert.leaf_verdicts)
        ok, t_verify = self._call(tracer, idx, item, "verify", wl.op_verify, g, text)
        if t_verify is None:
            return {"color": t_color}
        self.fail(item, "verify", [] if ok else ["verify_certificate rejected the certificate"])
        return {"color": t_color, "verify": t_verify}

    def run_pass(self, tracer=None) -> dict:
        """Run every operation once; {(item index, op): scaled seconds}."""
        gc.collect()
        times = {}
        before = self.reference.measure()
        for idx, item in enumerate(self.items):
            raw = self._run_item(idx, item, tracer)
            after = self.reference.measure()
            for op, t in raw.items():
                times[(idx, op)] = Reference.scale(t, (before + after) / 2)
            before = after
        return times

    def passes(self, seconds: float, tracer=None) -> tuple:
        """Alternate untraced (and, with a tracer, traced) passes for ``seconds``.

        A new round starts while it would end less than half a round late.

        Returns per-key lists of untraced times, and the per-pass op-time
        totals of untraced and traced passes.
        """
        samples = defaultdict(list)
        totals, traced_totals = [], []
        started = perf_counter()
        rounds = []
        while True:
            t0 = perf_counter()
            times = self.run_pass()
            for key, t in times.items():
                samples[key].append(t)
            totals.append(sum(times.values()))
            if tracer is not None:
                traced_totals.append(sum(self.run_pass(tracer).values()))
            rounds.append(perf_counter() - t0)
            if perf_counter() - started + statistics.median(rounds) / 2 > seconds:
                return samples, totals, traced_totals


def end_to_end_metrics(items, samples, setup_times) -> dict:
    med = {key: statistics.median(ts) for key, ts in samples.items()}

    def rate(op):
        keys = [(i, op) for i in range(len(items)) if (i, op) in med]
        return sum(items[i].n for i, _ in keys) / sum(med[k] for k in keys) if keys else None

    def largest(op):
        """Mean time over the inputs of the largest size."""
        keys = [(i, op) for i in range(len(items)) if (i, op) in med]
        if not keys:
            return None
        top = max(items[i].n for i, _ in keys)
        return statistics.fmean(med[(i, o)] for i, o in keys if items[i].n == top)

    values = {
        "setup_s": statistics.median(setup_times),
        "color_vps": rate("color"),
        "color_s.largest": largest("color"),
        "verify_vps": rate("verify"),
        "recognize_vps": rate("recognize"),
        "recognize_s.largest": largest("recognize"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END if values[name] is not None}


def _slope(points) -> float:
    """Least-squares slope of log(t) against log(n); 0 without two sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return (sum((x - mx) * (y - my) for x, y in pts)
            / sum((x - mx) ** 2 for x, _ in pts))


def _growth(per_item, items, key_of) -> dict:
    """Exponent per key, fitted over the operation that spends most in it.

    ``per_item[(op, item index)]`` maps span names to self seconds;
    ``key_of`` maps a span name to the key it counts towards (or None).
    """
    by_key = defaultdict(lambda: defaultdict(list))  # key -> op -> [(n, t)]
    for (op, idx), selfs in per_item.items():
        sums = defaultdict(float)
        for name, t in selfs.items():
            key = key_of(name)
            if key is not None:
                sums[key] += t
        for key, t in sums.items():
            by_key[key][op].append((items[idx].n, t))
    out = {}
    for key, ops in by_key.items():
        busiest = max(ops.values(), key=lambda pts: sum(t for _, t in pts))
        out[key] = _slope(busiest)
    return out


def per_layer_metrics(tracer, setup_root, runner, traced_totals, untraced_totals):
    passes = len(traced_totals)
    ops = summarize(tracer, [root for root, _, _ in runner.roots])
    color = summarize(tracer, [root for root, op, _ in runner.roots if op == "color"])
    setup = summarize(tracer, [setup_root])
    per_item = defaultdict(lambda: defaultdict(float))
    for root, op, idx in runner.roots:
        for name, t in ops.item_self[root].items():
            per_item[(op, idx)][name] += t
    fn_exp = _growth(per_item, runner.items, lambda name: name)
    layer_exp = _growth(per_item, runner.items,
                        lambda name: name.split(".", 1)[0] if name.split(".", 1)[0] in LAYERS else None)

    values = {}
    for fn, stats in FUNCTION_STATS.items():
        calls = ops.calls.get(fn, 0)
        values[f"{fn}.s"] = ops.self_s.get(fn, 0.0) / passes
        values[f"{fn}.calls"] = calls / passes
        values[f"{fn}.hit_ratio"] = ops.hits.get(fn, 0) / calls if calls else 0.0
        values[f"{fn}.exp"] = fn_exp.get(fn, 0.0)
    values["pipeline.certificate_json.s"] = sum(ops.self_s.get(f, 0.0) for f in CERTIFICATE_JSON) / passes
    values["patterns.find_diamond.per_leaf"] = (
        color.calls.get("patterns.find_diamond", 0) / runner.leaves if runner.leaves else 0.0)
    values["coloring.fallbacks"] = runner.fallbacks / passes
    for fn in SETUP_FUNCTIONS:
        values[f"{fn}.s"] = setup.self_s.get(fn, 0.0)
    for layer in LAYERS:
        # Generators run only in set-up: their share is of one set-up.
        src, per = (setup, 1) if layer == "generators" else (ops, passes)
        self_s = sum(t for name, t in src.self_s.items() if name.split(".", 1)[0] == layer)
        values[f"{layer}.busy"] = src.layer_busy.get(layer, 0.0) / per
        values[f"{layer}.share"] = self_s / src.root_busy
        if layer != "generators":
            values[f"{layer}.exp"] = layer_exp.get(layer, 0.0)
    values["trace.overhead"] = statistics.median(traced_totals) / statistics.median(untraced_totals)
    values["trace.attributed"] = 1 - ops.root_self / ops.root_busy
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}
    return metrics, ops, passes, fn_exp


def print_function_table(ops, passes, fn_exp) -> None:
    print(f"{'function':48} {'self s/pass':>12} {'share':>7} {'calls/pass':>11} "
          f"{'hit':>6} {'exp':>6}")
    for name, t in sorted(ops.self_s.items(), key=lambda kv: -kv[1]):
        calls = ops.calls[name]
        print(f"{name:48} {t / passes:12.6f} {t / ops.root_busy:7.1%} {calls / passes:11.1f} "
              f"{ops.hits[name] / calls:6.2f} {fn_exp.get(name, 0.0):6.2f}")
    print(f"{'(unattributed)':48} {ops.root_self / passes:12.6f} "
          f"{ops.root_self / ops.root_busy:7.1%}")


def timed_setups(workloads, workload: str, seed: int, reference):
    """Set up repeatedly; the last inputs and every scaled set-up time."""
    times = []
    before = reference.measure()
    while len(times) < SETUP_REPEATS or (
            sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS):
        items = None  # let the previous inputs go before building the next
        gc.collect()
        t0 = perf_counter()
        items = workloads.setup(workload, seed)
        seconds = perf_counter() - t0
        after = reference.measure()
        times.append(Reference.scale(seconds, (before + after) / 2))
        before = after
    return items, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = load_package()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    reference = Reference()
    try:
        if args.trace:
            codec = [(workloads, "dumps", "json.dumps"), (workloads, "loads", "json.loads")]
            tracer = Tracer(extra_modules=(workloads,), extra_functions=codec)
            with tracer.installed():
                with tracer.span("setup") as setup_root:
                    items = workloads.setup(args.workload, args.seed)
        else:
            items, setup_times = timed_setups(workloads, args.workload, args.seed, reference)
    except workloads.SetupError as exc:
        print(f"FAIL workload={args.workload} seed={args.seed} set-up: {exc}", file=sys.stderr)
        return 1
    runner = Runner(workloads, args.workload, args.seed, items, reference)
    if args.trace:
        _, totals, traced_totals = runner.passes(args.seconds, tracer)
        metrics, ops, passes, fn_exp = per_layer_metrics(tracer, setup_root, runner,
                                                         traced_totals, totals)
        print_function_table(ops, passes, fn_exp)
        tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        samples, totals, _ = runner.passes(args.seconds)
        metrics = end_to_end_metrics(items, samples, setup_times)
        passes = len(totals)

    fail_ratio = runner.failed / runner.attempted
    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"attempted={runner.attempted} failed={runner.failed} fail_ratio={fail_ratio:g} ratio")
    print(f"reference loop: median {statistics.median(reference.samples) * 1e3:.3f} ms over "
          f"{len(reference.samples)} runs; times below are scaled to {NOMINAL_S * 1e3:g} ms")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
