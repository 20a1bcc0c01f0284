"""Per-layer metrics and tables from the spans of traced sweeps.

Each traced sweep is {"root": index, "processes": [spans, ...]}: the first
span list is the benchmark process, whose span `root` encloses the sweep
call; further lists come from pool workers. A span's self time is its
duration minus the durations of its child spans (children of one span run
one after another, so they never overlap). Sums are reported per sweep.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracing import Span

TENSOR_OPS = ("conv2d", "bilinear_resize", "affine_norm", "avg_pool_to", "relu", "add",
              "concat_channels")
FORWARDS = ("forward_transmitter", "forward_receiver", "forward_full")
PHY = ("modulate", "apply_awgn", "demodulate", "transmit")
ENCODE = ("codec.quantize_features", "codec.serialize_payload", "codec.encode_labelmap",
          "codec.encode_image")
DECODE = ("codec.deserialize_payload", "codec.dequantize_features", "codec.decode_labelmap",
          "codec.decode_image")
PIPELINES = ("traditional", "full_tx", "split")
STAGES = range(7)


def _units() -> dict[str, str]:
    u = {}
    for op in TENSOR_OPS:
        u[f"tensor_ops.{op}.s"] = "s"
        u[f"tensor_ops.{op}.calls"] = "count"
    u["tensor_ops.conv2d.gmac_per_s"] = "GMAC/s"
    u["tensor_ops.bilinear_resize.melem_per_s"] = "Melem/s"
    for fn in FORWARDS:
        u[f"model.{fn}.s"] = "s"
        u[f"model.{fn}.calls"] = "count"
    u["model.build.s"] = "s"
    for k in STAGES:
        u[f"model.stage{k}.conv_s"] = "s"
        u[f"model.stage{k}.gmac_per_s"] = "GMAC/s"
    u["model.uncounted_share"] = "share"
    for fn in PHY:
        u[f"phy.{fn}.s"] = "s"
    u["phy.demodulate.mbit_per_s"] = "Mbit/s"
    u["phy.channel_bits"] = "bit"
    u["codec.encode.s"] = "s"
    u["codec.decode.s"] = "s"
    u["metrics.confusion.s"] = "s"
    u["metrics.miou.s"] = "s"
    u["dataio.generate_synthetic.s"] = "s"
    u["dataio.raster_to_tensor.s"] = "s"
    u["experiments.run.ms_p50"] = "ms"
    u["experiments.run.ms_p90"] = "ms"
    u["experiments.run.samples"] = "count"
    u["experiments.context_s"] = "s"
    u["trace.trials_per_ref_s"] = "1/s"
    u["trace.untraced_trials_per_ref_s"] = "1/s"
    u["trace.overhead_share"] = "share"
    u["trace.top_level_coverage"] = "share"
    return u


PER_LAYER_UNITS = _units()


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Totals:
    """Span sums over all traced sweeps."""

    def __init__(self):
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.work = Counter()
        self.plan_s = defaultdict(float)
        self.plan_calls = Counter()
        self.plan_work = Counter()
        self.run_ms = defaultdict(list)
        self.forward_s = 0.0
        self.busy_s = 0.0
        self.context_s = []
        self.coverage = []

    def add_sweep(self, trace: dict) -> None:
        procs = [[Span(*s) for s in spans] for spans in trace["processes"]]
        root_index = trace["root"]
        root = procs[0][root_index]
        intervals, first_runs = [], []
        for pi, spans in enumerate(procs):
            top = root_index if pi == 0 else -1
            child = [0.0] * len(spans)
            for s in spans:
                if s.parent >= 0:
                    child[s.parent] += s.end - s.start
            runs = []
            for i, s in enumerate(spans):
                if pi == 0 and i == root_index:
                    continue
                d = s.end - s.start
                self.incl[s.name] += d
                self.self_s[s.name] += d - child[i]
                self.calls[s.name] += 1
                self.work[s.name] += s.work
                if s.parent == top:
                    intervals.append((s.start, s.end))
                    self.busy_s += d
                if s.name == "tensor_ops.conv2d":
                    self.plan_s[s.tag] += d
                    self.plan_calls[s.tag] += 1
                    self.plan_work[s.tag] += s.work
                elif s.name.startswith("experiments.run_"):
                    self.run_ms[s.name[len("experiments.run_"):]].append(d * 1e3)
                    runs.append(s.start)
                elif s.name.startswith("model.forward_") and not self._under_forward(spans, s):
                    self.forward_s += d
            if runs:
                first_runs.append(min(runs))
        wall = root.end - root.start
        self.coverage.append(_union_length(intervals) / wall)
        if first_runs:
            self.context_s.append(min(first_runs) - root.start)

    @staticmethod
    def _under_forward(spans, s) -> bool:
        while s.parent >= 0:
            s = spans[s.parent]
            if s.name.startswith("model.forward_"):
                return True
        return False


def per_layer_metrics(pkg, spec, traces: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (per sweep) and the tables printed with them."""
    t = _Totals()
    for trace in traces:
        t.add_sweep(trace)
    n = max(len(traces), 1)
    m = {}
    for op in TENSOR_OPS:
        m[f"tensor_ops.{op}.s"] = t.incl[f"tensor_ops.{op}"] / n
        m[f"tensor_ops.{op}.calls"] = t.calls[f"tensor_ops.{op}"] / n
    conv_s = t.incl["tensor_ops.conv2d"]
    m["tensor_ops.conv2d.gmac_per_s"] = _ratio(t.work["tensor_ops.conv2d"], conv_s) / 1e9
    m["tensor_ops.bilinear_resize.melem_per_s"] = _ratio(
        t.work["tensor_ops.bilinear_resize"], t.incl["tensor_ops.bilinear_resize"]) / 1e6
    for fn in FORWARDS:
        m[f"model.{fn}.s"] = t.incl[f"model.{fn}"] / n
        m[f"model.{fn}.calls"] = t.calls[f"model.{fn}"] / n
    m["model.build.s"] = t.incl["model.build"] / n

    plans = pkg.model.layer_plan(spec.model)
    for k in STAGES:
        names = [p.name for p in plans if p.stage == k]
        s = sum(t.plan_s[name] for name in names)
        m[f"model.stage{k}.conv_s"] = s / n
        m[f"model.stage{k}.gmac_per_s"] = _ratio(sum(t.plan_work[name] for name in names), s) / 1e9
    m["model.uncounted_share"] = 1.0 - _ratio(conv_s, t.forward_s)

    for fn in PHY:
        m[f"phy.{fn}.s"] = t.incl[f"phy.{fn}"] / n
    m["phy.demodulate.mbit_per_s"] = _ratio(t.work["phy.demodulate"], t.incl["phy.demodulate"]) / 1e6
    m["phy.channel_bits"] = t.work["phy.transmit"] / n
    m["codec.encode.s"] = sum(t.incl[name] for name in ENCODE) / n
    m["codec.decode.s"] = sum(t.incl[name] for name in DECODE) / n
    for name in ("metrics.confusion", "metrics.miou", "dataio.generate_synthetic",
                 "dataio.raster_to_tensor"):
        m[f"{name}.s"] = t.incl[name] / n

    pooled = [v for values in t.run_ms.values() for v in values]
    m["experiments.run.ms_p50"] = statistics.median(pooled) if pooled else 0.0
    m["experiments.run.ms_p90"] = _p90(pooled)
    m["experiments.run.samples"] = len(pooled)
    m["experiments.context_s"] = statistics.median(t.context_s) if t.context_s else 0.0
    m["trace.top_level_coverage"] = statistics.median(t.coverage) if t.coverage else 0.0

    conv_rows = []
    for p in plans:
        calls = t.plan_calls[p.name]
        s = t.plan_s[p.name]
        conv_rows.append({
            "name": p.name, "stage": p.stage, "macs": p.macs,
            "calls_per_sweep": calls / n,
            "ms_per_call": _ratio(s, calls) * 1e3,
            "gmac_per_s": _ratio(t.plan_work[p.name], s) / 1e9,
            "macs_match_shapes": t.plan_work[p.name] == p.macs * calls,
        })
    untagged = t.plan_calls.get("", 0)
    layer_rows = [
        {"name": name, "calls_per_sweep": t.calls[name] / n, "incl_s": t.incl[name] / n,
         "self_s": t.self_s[name] / n, "self_share": _ratio(t.self_s[name], t.busy_s)}
        for name in sorted(t.incl)
    ]
    uncounted = {
        "resize": t.incl["tensor_ops.bilinear_resize"],
        "pooling": t.incl["tensor_ops.avg_pool_to"],
        "argmax": t.self_s["model.forward_receiver"],
        "elementwise": sum(t.incl[f"tensor_ops.{op}"]
                           for op in ("affine_norm", "relu", "add", "concat_channels")),
        "channel": t.incl["phy.transmit"],
        "flip_counting": t.incl["experiments._count_flips"],
    }
    tables = {
        "traced_sweeps": len(traces),
        "busy_s_per_sweep": t.busy_s / n,
        "conv_plans": conv_rows,
        "untagged_conv_calls": untagged,
        "conv_share": _ratio(conv_s, t.busy_s),
        "uncounted_shares": {k: _ratio(v, t.busy_s) for k, v in uncounted.items()},
        "layers": layer_rows,
        "runs": {p: {"samples": len(t.run_ms[p]),
                     "ms_p50": statistics.median(t.run_ms[p]) if t.run_ms[p] else 0.0,
                     "ms_p90": _p90(t.run_ms[p])}
                 for p in PIPELINES},
    }
    return m, tables


def print_tables(tables: dict) -> None:
    n = tables["traced_sweeps"]
    print(f"per-ConvPlan conv2d time ({n} traced sweeps; MACs are per call)")
    print(f"  {'plan':<16} {'stage':>5} {'MACs':>13} {'calls':>7} {'ms/call':>9} {'GMAC/s':>8}")
    for r in tables["conv_plans"]:
        flag = "" if r["macs_match_shapes"] else "  (MACs differ from call shapes)"
        print(f"  {r['name']:<16} {r['stage']:>5} {r['macs']:>13} {r['calls_per_sweep']:>7g} "
              f"{r['ms_per_call']:>9.3f} {r['gmac_per_s']:>8.2f}{flag}")
    if tables["untagged_conv_calls"]:
        print(f"  {tables['untagged_conv_calls']} conv2d calls matched no ConvPlan")
    shares = tables["uncounted_shares"]
    print(f"share of traced time: conv {tables['conv_share']:.3f}; outside the MAC accounting "
          f"{sum(shares.values()):.3f} = " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    print(f"  {'layer function':<34} {'calls':>8} {'incl s':>10} {'self s':>10} {'self share':>10}")
    for r in tables["layers"]:
        print(f"  {r['name']:<34} {r['calls_per_sweep']:>8g} {r['incl_s']:>10.4f} "
              f"{r['self_s']:>10.4f} {r['self_share']:>10.3f}")
    for p, r in tables["runs"].items():
        if r["samples"]:
            print(f"  run_{p:<12} samples {r['samples']:>4}  p50 {r['ms_p50']:.2f} ms  "
                  f"p90 {r['ms_p90']:.2f} ms")
