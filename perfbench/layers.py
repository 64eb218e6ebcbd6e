"""Per-layer metrics derived from the spans of one traced command sequence.

Spans come from ``Tracer.export``; each command of a sequence is its own
trace.  A span's exclusive time is its duration minus its direct children's.
A layer's self time under a root call adds the exclusive time of the root and
of every descendant reached through spans of the same layer only, so time
spent in other layers (and in their callbacks) is left out.
"""

from __future__ import annotations

from collections import defaultdict

LOADERS = ("pod.load_basis", "mps.load_mps", "flow.read_snapshot_file",
           "flow.read_snapshot_csv")
WRITERS = ("io_util.atomic_write_bytes", "io_util.atomic_write_text")


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.by_key = {(s["trace"], s["id"]): s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                self.children[(s["trace"], s["parent"])].append(s)

    @staticmethod
    def duration(s):
        return s["end"] - s["start"]

    def parent(self, s):
        if s["parent"] is None:
            return None
        return self.by_key[(s["trace"], s["parent"])]

    def ancestors(self, s):
        p = self.parent(s)
        while p is not None:
            yield p
            p = self.parent(p)

    def named(self, *names):
        return [s for s in self.spans if s["name"] in names]

    def outermost(self, *names):
        """Spans with one of the names and no ancestor with one of them."""
        return [s for s in self.named(*names)
                if not any(a["name"] in names for a in self.ancestors(s))]

    def total_s(self, *names):
        return sum(self.duration(s) for s in self.outermost(*names))

    def attr_sum(self, key, *names):
        return sum((s["attrs"] or {}).get(key, 0) for s in self.named(*names))

    def exclusive_s(self, s):
        kids = self.children[(s["trace"], s["id"])]
        return self.duration(s) - sum(self.duration(c) for c in kids)

    def layer_self_s(self, *names):
        total = 0.0
        for root in self.outermost(*names):
            layer = root["name"].split(".")[0]
            todo = [root]
            while todo:
                s = todo.pop()
                total += self.exclusive_s(s)
                todo.extend(c for c in self.children[(s["trace"], s["id"])]
                            if c["name"].split(".")[0] == layer)
        return total


def _trial_useful_ratio(t):
    """Accepted doublings over candidate evaluations in the bond search.

    Each search evaluates the estimator once for its starting plan and once
    per candidate doubling; only the doublings it keeps are useful.
    """
    trials = doublings = 0
    for search in t.named("mps.search_bond_plan"):
        evals = sum(
            1 for e in t.named("mps.enc_error_estimator")
            if next((a for a in t.ancestors(e) if a["name"] == "mps.search_bond_plan"),
                    None) is search
        )
        trials += max(evals - 1, 0)
        doublings += (search["attrs"] or {}).get("doublings", 0)
    return doublings / trials if trials else 0.0


def layer_metrics(spans):
    """name -> (value, unit) for every per-layer metric of the benchmark."""
    t = SpanTree(spans)
    solve_s = t.total_s("flow.solve_cavity_run")
    cell_iters = sum(
        (s["attrs"] or {}).get("cells", 0) * (s["attrs"] or {}).get("iterations", 0)
        for s in t.named("flow.solve_cavity_run")
    )
    offline = t.named("pipeline.run_offline")
    reused = sum(1 for s in offline if (s["attrs"] or {}).get("reused"))
    return {
        "flow.solves": (len(t.outermost("flow.solve_cavity_run")), "count"),
        "flow.iterations": (t.attr_sum("iterations", "flow.solve_cavity_run"), "count"),
        "flow.solve_s": (solve_s, "s"),
        "flow.ns_per_cell_iter": (solve_s * 1e9 / cell_iters if cell_iters else 0.0, "ns"),
        "pod.build_s": (t.total_s("pod.build_snapshot_matrix"), "s"),
        "pod.svd_s": (t.total_s("pod.pod_decompose"), "s"),
        "pod.svd_calls": (len(t.named("pod.pod_decompose")), "count"),
        "mps.search_s": (t.total_s("mps.search_bond_plan"), "s"),
        "mps.tt_svd_s": (t.total_s("mps.tt_svd"), "s"),
        "mps.tt_svd_calls": (len(t.named("mps.tt_svd")), "count"),
        "mps.estimator_s": (t.total_s("mps.enc_error_estimator"), "s"),
        "mps.estimator_calls": (len(t.named("mps.enc_error_estimator")), "count"),
        "mps.trial_useful_ratio": (_trial_useful_ratio(t), "ratio"),
        "circuit.depth_study_self_s": (
            t.layer_self_s("circuit.depth_vs_gridsize_study"), "s"),
        "circuit.cost_calls": (len(t.named("circuit.cost_model")), "count"),
        "readout.podr_s": (t.total_s("readout.podr_readout"), "s"),
        "readout.rsr_s": (t.total_s("readout.rsr_readout"), "s"),
        "readout.fsr_s": (t.total_s("readout.fsr_readout"), "s"),
        "readout.cells": (len(t.named("readout.podr_readout", "readout.rsr_readout",
                                      "readout.fsr_readout")), "count"),
        "pipeline.offline_self_s": (t.layer_self_s("pipeline.run_offline"), "s"),
        "pipeline.sweep_self_s": (t.layer_self_s("pipeline.run_shot_sweep"), "s"),
        "pipeline.reuse_hits": (reused, "count"),
        "pipeline.reuse_attempts": (len(offline), "count"),
        "io_util.write_s": (t.total_s(*WRITERS), "s"),
        "io_util.bytes_written": (t.attr_sum("bytes", "io_util.atomic_write_bytes"), "B"),
        "io_util.hash_s": (t.total_s("io_util.sha256_file"), "s"),
        "io_util.bytes_hashed": (t.attr_sum("bytes", "io_util.sha256_file"), "B"),
        "io_util.load_s": (t.total_s(*LOADERS), "s"),
        "io_util.bytes_read": (t.attr_sum("bytes", *LOADERS), "B"),
        "visualize.emit_s": (t.total_s("visualize.emit_visual_comparison"), "s"),
        "visualize.files": (t.attr_sum("files", "visualize.emit_visual_comparison"), "count"),
    }


# Counts that must repeat exactly across traced runs of one seed.
EXACT_COUNTS = (
    "flow.iterations", "mps.tt_svd_calls", "mps.estimator_calls", "pod.svd_calls",
    "readout.cells", "io_util.bytes_written", "io_util.bytes_hashed",
    "io_util.bytes_read",
)
