"""In-memory span tracing of stepasm's layers, installed from the benchmark side.

The program is not edited. ``Tracer.install`` replaces each traced function at
the import site its caller looks it up through (``graphs.kabsch_align`` is the
name ``place_chains`` calls, ``cli.load_models`` the one ``cmd_infer`` calls)
and ``uninstall`` puts the originals back, so untraced runs execute the
program's own functions with nothing in between.

A span is ``[name, start_ns, end_ns, parent, phase, cycle, attrs]``: parent is
the index of the enclosing span (-1 at top level); phase and cycle are set by
the harness. ``layer_metrics`` folds one set-up plus the mean measured cycle
into the per-layer metrics.
"""

import json
import logging
import os
import time
import warnings
from collections import defaultdict

SETUP_CYCLE = -1  # cycle tag of set-up spans; None marks warm-up and checks


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.cycle = SETUP_CYCLE
        self._stack = []
        self._patches = []
        self._log_handler = None

    def _open(self, name):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1,
               self.phase, self.cycle, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def event(self, name):
        """Zero-length span: a count recorded where it happens."""
        now = time.perf_counter_ns()
        self.spans.append([name, now, now, self._stack[-1] if self._stack else -1,
                           self.phase, self.cycle, None])

    def traced(self, name, fn, attrs=None, result_attrs=None):
        """``fn`` in a span; ``attrs(*args)`` and ``result_attrs(result)`` attach
        counts such as rows or labels to it."""
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if attrs is not None:
                rec[6] = attrs(*args, **kwargs)
            if result_attrs is not None:
                rec[6] = {**(rec[6] or {}), **result_attrs(result)}
            return result

        return wrapper

    def install(self):
        from stepasm import cli, datagen, graphs, inference, meta, pretrain, prompt
        from stepasm.nn import model as nn_model
        from stepasm.nn.optim import Adam
        from stepasm.nn.tensor import Tensor

        def span(name, attrs=None, result_attrs=None):
            return lambda fn: self.traced(name, fn, attrs, result_attrs)

        def rows(features, *_, **__):
            return {"rows": int(getattr(features, "data", features).shape[0])}

        def chains(features, *_, **__):
            return {"n": int(features.shape[0])}

        def labels(result):
            return {"labels": len(result)}

        sites = [
            # geometry / kernels
            (graphs, "kabsch_align", span("geometry.kabsch")),
            (graphs, "tm_score", span("geometry.tm")),
            (inference, "superposed_scores", span("geometry.tm")),
            # graphs: oracle, placement, tree enumeration
            (graphs, "assembly_correctness", span("graphs.correctness")),
            (datagen, "assembly_correctness", span("graphs.correctness")),
            (graphs, "place_chains", span("graphs.place_chains")),
            (inference, "place_chains", span("graphs.place_chains")),
            (graphs, "enumerate_uca", span("graphs.enumerate")),
            (graphs, "enumerate_scores", span("graphs.enumerate_scores")),
            (cli, "enumerate_scores", span("graphs.enumerate_scores", result_attrs=labels)),
            (cli, "best_assembly", span("graphs.best_assembly")),
            # datagen
            (datagen, "gen_synthetic_multimer", span("datagen.gen_multimer")),
            (datagen, "make_source_dataset", span("datagen.make_source", result_attrs=labels)),
            (datagen, "make_target_dataset", self._make_target),
            (datagen, "load_multimers", span(
                "datagen.load_multimers",
                attrs=lambda path, *_, **__: {"bytes": os.path.getsize(path)})),
            (datagen, "save_jsonl", span("datagen.save_jsonl")),
            # nn
            (nn_model, "gin_encode", span("nn.gin_encode", attrs=rows)),
            (prompt, "gin_encode", span("nn.gin_encode", attrs=rows)),
            (Tensor, "backward", span("nn.backward")),
            (Adam, "step", span("nn.adam_step")),
            # training
            (pretrain, "fit", self._fit),
            (prompt, "fit", self._fit),
            # prompt
            (prompt, "query_embeddings", span("prompt.stage1")),
            (meta, "query_embeddings", span("prompt.stage1")),
            (prompt, "prompt_embeddings", span("prompt.embeddings")),
            (prompt.PromptParams, "transform", span(
                "prompt.mlp", attrs=lambda _self, x, **__: rows(x))),
            (prompt, "pipeline_forward_batch", span("prompt.forward")),
            (meta, "pipeline_forward_batch", span("prompt.forward")),
            (inference, "pipeline_forward_batch", span("prompt.forward")),
            # meta
            (meta.VectorObjective, "loss", span("meta.loss")),
            (meta.VectorObjective, "grad", span("meta.grad")),
            (meta, "meta_initialize", span("meta.initialize")),
            (meta, "adapt", span("meta.adapt")),
            # inference
            (inference, "infer_path", span("inference.infer_path", attrs=chains)),
            (cli, "infer_path", span("inference.infer_path", attrs=chains)),
            (inference.ScoringPipeline, "score_actions", span(
                "inference.score",
                attrs=lambda _self, _f, _n, _e, pairs: {"candidates": len(pairs)})),
            (inference, "predict_structure", span("inference.predict")),
            (inference, "evaluate", span("inference.evaluate")),
            # checkpoint and cli I/O
            (cli, "load_models", span("checkpoint.load")),
            (cli, "atomic_write_text", span("cli.write")),
            (cli, "write_chain_file", span("cli.write")),
            (cli, "main", span("cli.main")),
        ]
        for owner, attr, wrap in sites:
            original = getattr(owner, attr)
            setattr(owner, attr, wrap(original))
            self._patches.append((owner, attr, original))
        self._log_handler = _WarningCounter(self)
        logging.getLogger("stepasm").addHandler(self._log_handler)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._log_handler is not None:
            logging.getLogger("stepasm").removeHandler(self._log_handler)
            self._log_handler = None

    def _fit(self, fit):
        """``fit`` in a span, its forward callback split into train and val spans."""
        tracer = self

        def traced_fit(labels, group_keys, forward_fn, *args, **kwargs):
            train_fwd = tracer.traced("training.forward", forward_fn)
            val_fwd = tracer.traced("training.val", forward_fn)

            def forward(indices, training, rng):
                return (train_fwd if training else val_fwd)(indices, training, rng)

            return fit(labels, group_keys, forward, *args, **kwargs)

        return self.traced("training.fit", traced_fit)

    def _make_target(self, make_target):
        """``make_target_dataset`` in a span counting records and dead-end warnings."""
        from stepasm.errors import NoValidGrowthWarning

        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open("datagen.make_target")
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", NoValidGrowthWarning)
                    result = make_target(*args, **kwargs)
            finally:
                tracer._close(rec)
            rec[6] = {
                "labels": len(result),
                "warnings": sum(issubclass(w.category, NoValidGrowthWarning) for w in caught),
            }
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


class _WarningCounter(logging.Handler):
    """Counts warnings on the ``stepasm`` logger: greedy dimer fallbacks."""

    def __init__(self, tracer):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer.event("inference.dimer_fallback")


# The spans each name is measured from, and the unit it is reported in.
LAYER_METRICS = {
    "geometry.kabsch_calls": "count",
    "geometry.kabsch_s": "s",
    "geometry.tm_calls": "count",
    "geometry.tm_s": "s",
    "graphs.correctness_calls": "count",
    "graphs.correctness_self_s": "s",
    "graphs.place_chains_s": "s",
    "graphs.enumerate_s": "s",
    "graphs.useful_label_ratio.source": "ratio",
    "graphs.useful_label_ratio.target": "ratio",
    "graphs.useful_label_ratio.oracle": "ratio",
    "datagen.gen_multimer_s": "s",
    "datagen.make_source_s": "s",
    "datagen.make_target_s": "s",
    "datagen.no_valid_growth": "count",
    "datagen.load_multimers_s": "s",
    "datagen.load_bytes": "bytes",
    "datagen.save_jsonl_s": "s",
    "nn.gin_encode_calls": "count",
    "nn.gin_encode_rows": "rows",
    "nn.gin_encode_s": "s",
    "nn.backward_s": "s",
    "nn.adam_step_s": "s",
    "nn.steps": "count",
    "training.forward_s": "s",
    "training.val_s": "s",
    "prompt.stage1_s": "s",
    "prompt.stage1_rows": "rows",
    "prompt.mlp_s": "s",
    "prompt.mlp_rows": "rows",
    "prompt.stage2_s": "s",
    "meta.loss_calls": "count",
    "meta.grad_calls": "count",
    "meta.objective_s": "s",
    "meta.stage1_per_objective_call": "ratio",
    "meta.initialize_s": "s",
    "meta.adapt_s": "s",
    "inference.step_s.n4": "s",
    "inference.step_s.n30": "s",
    "inference.score_calls": "count",
    "inference.candidates": "count",
    "inference.stage1_rows_per_candidate": "ratio",
    "inference.mlp_rows_per_candidate": "ratio",
    "inference.dimer_fallbacks": "count",
    "checkpoint.load_s": "s",
    "cli.write_s": "s",
    "trace.spans": "count",
}

_LABELLERS = ("datagen.make_source", "datagen.make_target", "cli.main")


def _ancestor(spans, i, names):
    """Name of the nearest enclosing span whose name is in ``names``, or None."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return spans[p][0]
        p = spans[p][3]
    return None


def layer_metrics(spans, n_cycles):
    """Per-layer totals of one set-up plus the mean of ``n_cycles`` measured cycles.

    Counts and seconds are sums over that unit of work; ratios divide two such
    sums. Spans tagged with no cycle (warm-up, output checks) are left out.
    """
    child_s = defaultdict(float)
    stage_child_s = defaultdict(float)
    for rec in spans:
        if rec[3] >= 0:
            dur = (rec[2] - rec[1]) * 1e-9
            child_s[rec[3]] += dur
            if rec[0] in ("prompt.stage1", "prompt.embeddings"):
                stage_child_s[rec[3]] += dur

    acc = defaultdict(float)
    for i, (name, start, end, parent, _phase, cycle, attrs) in enumerate(spans):
        if cycle is None:
            continue
        w = 1.0 if cycle == SETUP_CYCLE else 1.0 / n_cycles
        dur = (end - start) * 1e-9
        acc["trace.spans"] += w
        acc[name + ".calls"] += w
        acc[name + ".s"] += w * dur
        acc[name + ".self_s"] += w * (dur - child_s[i])
        for key, value in (attrs or {}).items():
            acc[f"{name}.{key}"] += w * value
        if name == "graphs.correctness":
            acc[f"correctness_under.{_ancestor(spans, i, _LABELLERS)}"] += w
        elif name == "nn.gin_encode" and parent >= 0 and spans[parent][0] == "prompt.stage1":
            acc["stage1.rows"] += w * attrs["rows"]
            if _ancestor(spans, i, ("inference.score",)):
                acc["score.stage1_rows"] += w * attrs["rows"]
        elif name == "prompt.mlp" and _ancestor(spans, i, ("inference.score",)):
            acc["score.mlp_rows"] += w * attrs["rows"]
        elif name == "prompt.stage1" and _ancestor(spans, i, ("meta.loss", "meta.grad")):
            acc["meta.stage1"] += w
        elif name == "prompt.forward":
            acc["stage2.s"] += w * (dur - stage_child_s[i])
        elif name == "inference.infer_path":
            acc[f"infer_n{attrs['n']}.s"] += w * dur
            acc[f"infer_n{attrs['n']}.steps"] += w * (attrs["n"] - 1)

    acc["meta.objective.calls"] = acc["meta.loss.calls"] + acc["meta.grad.calls"]

    def ratio(num, den):
        return acc[num] / acc[den] if acc[den] else 0.0

    values = {
        "geometry.kabsch_calls": acc["geometry.kabsch.calls"],
        "geometry.kabsch_s": acc["geometry.kabsch.s"],
        "geometry.tm_calls": acc["geometry.tm.calls"],
        "geometry.tm_s": acc["geometry.tm.s"],
        "graphs.correctness_calls": acc["graphs.correctness.calls"],
        "graphs.correctness_self_s": acc["graphs.correctness.self_s"],
        "graphs.place_chains_s": acc["graphs.place_chains.s"],
        "graphs.enumerate_s": acc["graphs.enumerate.s"],
        "graphs.useful_label_ratio.source": ratio(
            "datagen.make_source.labels", "correctness_under.datagen.make_source"),
        "graphs.useful_label_ratio.target": ratio(
            "datagen.make_target.labels", "correctness_under.datagen.make_target"),
        "graphs.useful_label_ratio.oracle": ratio(
            "graphs.enumerate_scores.labels", "correctness_under.cli.main"),
        "datagen.gen_multimer_s": acc["datagen.gen_multimer.s"],
        "datagen.make_source_s": acc["datagen.make_source.s"],
        "datagen.make_target_s": acc["datagen.make_target.s"],
        "datagen.no_valid_growth": acc["datagen.make_target.warnings"],
        "datagen.load_multimers_s": acc["datagen.load_multimers.s"],
        "datagen.load_bytes": acc["datagen.load_multimers.bytes"],
        "datagen.save_jsonl_s": acc["datagen.save_jsonl.s"],
        "nn.gin_encode_calls": acc["nn.gin_encode.calls"],
        "nn.gin_encode_rows": acc["nn.gin_encode.rows"],
        "nn.gin_encode_s": acc["nn.gin_encode.s"],
        "nn.backward_s": acc["nn.backward.s"],
        "nn.adam_step_s": acc["nn.adam_step.s"],
        "nn.steps": acc["nn.adam_step.calls"],
        "training.forward_s": acc["training.forward.s"],
        "training.val_s": acc["training.val.s"],
        "prompt.stage1_s": acc["prompt.stage1.s"],
        "prompt.stage1_rows": acc["stage1.rows"],
        "prompt.mlp_s": acc["prompt.mlp.s"],
        "prompt.mlp_rows": acc["prompt.mlp.rows"],
        "prompt.stage2_s": acc["stage2.s"],
        "meta.loss_calls": acc["meta.loss.calls"],
        "meta.grad_calls": acc["meta.grad.calls"],
        "meta.objective_s": acc["meta.loss.s"] + acc["meta.grad.s"],
        "meta.stage1_per_objective_call": ratio("meta.stage1", "meta.objective.calls"),
        "meta.initialize_s": acc["meta.initialize.s"],
        "meta.adapt_s": acc["meta.adapt.s"],
        "inference.step_s.n4": ratio("infer_n4.s", "infer_n4.steps"),
        "inference.step_s.n30": ratio("infer_n30.s", "infer_n30.steps"),
        "inference.score_calls": acc["inference.score.calls"],
        "inference.candidates": acc["inference.score.candidates"],
        "inference.stage1_rows_per_candidate": ratio(
            "score.stage1_rows", "inference.score.candidates"),
        "inference.mlp_rows_per_candidate": ratio(
            "score.mlp_rows", "inference.score.candidates"),
        "inference.dimer_fallbacks": acc["inference.dimer_fallback.calls"],
        "checkpoint.load_s": acc["checkpoint.load.s"],
        "cli.write_s": acc["cli.write.s"],
        "trace.spans": acc["trace.spans"],
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
