"""Per-layer metrics of mirrorkit: one layer per module of the package.

`<module>.self_s` is the module's self time: the time inside its wrapped
calls minus the time covered by wrapped calls into any module (itself
included). Counts come from span labels, or from hooks on a call's
arguments or result where a count is not one per call.
"""

import os
from collections import Counter

import spans

MODULES = (
    "potentials", "losses", "bregman", "descent", "samplers",
    "datagen", "audit", "experiments", "config", "cli",
)

# count metric -> span labels it counts, one per call
CALL_COUNTS = {
    "audit.trajectories": ("audit.audit_trajectory", "audit.minimax_ratio"),
    "potentials.check_domain_calls": ("potentials.Potential.check_domain",),
    "samplers.streams_created": ("samplers.RngStream.__init__",),
    "samplers.tables_built": ("samplers.TabulatedDensity.__init__",),
    "samplers.draws": ("samplers.sample_weight", "samplers.sample_noise", "samplers.sample_white_noise"),
    "datagen.problems": ("datagen.generate_problem",),
}
# count metric -> module whose wrapped calls it counts
MODULE_CALL_COUNTS = {"bregman.calls": "bregman", "losses.calls": "losses", "config.calls": "config"}
# time metric -> span label whose inclusive time it sums
INCLUSIVE_TIMES = {
    "experiments.bootstrap_s": "experiments.bootstrap_basic_ci",
    "cli.write_csv_s": "cli.write_csv",
}


class LayerTrace:
    """Instruments mirrorkit, and turns the spans of one pass into metrics."""

    def __init__(self, package_modules):
        self.recorder = spans.SpanRecorder()
        self.counts = Counter()
        self._modules = package_modules
        self._undo = None
        self._pass_first = 0

    def hooks(self):
        counts = self.counts

        def iterate(args, traj):
            counts["descent.steps"] += len(traj.iterates)

        def margin(args, result):
            counts["descent.margin_probes"] += len(args["probes"])

        def minimax(args, report):
            counts["audit.minimax_attempted"] += 1
            counts["audit.minimax_certified"] += bool(report.premise_certified)

        def bootstrap(args, result):
            counts["experiments.bootstrap_resamples"] += int(args["n_resamples"])

        def write_csv(args, result):
            counts["cli.rows_written"] += len(args["rows"])
            counts["cli.bytes_written"] += os.path.getsize(args["path"])

        return {
            "descent.iterate": iterate,
            "descent.run_general_recursion": iterate,
            "descent.convexity_margin": margin,
            "audit.minimax_ratio": minimax,
            "experiments.bootstrap_basic_ci": bootstrap,
            "cli.write_csv": write_csv,
        }

    def install(self):
        self._undo = spans.instrument(self._modules, self.recorder, self.hooks())

    def uninstall(self):
        spans.restore(self._undo)
        self._undo = None

    def begin_pass(self):
        self.counts.clear()
        self.recorder.errors.clear()
        self._pass_first = len(self.recorder)

    def pass_metrics(self):
        """Per-layer metrics of the spans recorded since `begin_pass`."""
        rec = self.recorder
        first = self._pass_first
        self_s = spans.self_times(rec.start, rec.end, rec.parent, first)
        module_self = dict.fromkeys(MODULES, 0.0)
        module_calls = Counter()
        label_calls = Counter()
        inclusive = Counter()  # label id -> seconds
        for i, s in enumerate(self_s):
            lid = rec.label[first + i]
            module = rec.label_module[lid]
            module_self[module] += s
            module_calls[module] += 1
            label_calls[lid] += 1
            inclusive[lid] += rec.end[first + i] - rec.start[first + i]
        by_label = {label: lid for lid, label in enumerate(rec.labels)}

        metrics = {f"{module}.self_s": (module_self[module], "s") for module in MODULES}
        for name, labels in CALL_COUNTS.items():
            metrics[name] = (sum(label_calls[by_label[x]] for x in labels if x in by_label), "count")
        for name, module in MODULE_CALL_COUNTS.items():
            metrics[name] = (module_calls[module], "count")
        for name, label in INCLUSIVE_TIMES.items():
            metrics[name] = (float(inclusive[by_label[label]]) if label in by_label else 0.0, "s")
        for name in ("descent.steps", "descent.margin_probes", "experiments.bootstrap_resamples",
                     "cli.rows_written", "cli.bytes_written"):
            metrics[name] = (self.counts[name], "count")
        attempted = self.counts["audit.minimax_attempted"]
        certified = self.counts["audit.minimax_certified"]
        metrics["audit.certified_ratio"] = (certified / attempted if attempted else 0.0, "ratio")
        for module in MODULES:
            metrics[f"{module}.errors"] = (rec.errors.get(module, 0), "count")
        return metrics
