"""Timing wrappers around the public functions of each bff layer.

`Tracer.install()` replaces each traced function in every module
namespace that looks it up (the CLI imports names into its own
namespace, the engine calls its own `evaluate_curve`, and so on) and
`uninstall()` puts the originals back.  Models and KDE densities are
wrapped where their constructors return them, so that model calls and
evaluated points are counted.

Every call opens a frame on a stack; when it closes, its duration is
charged to the parent frame, which gives each call its self time.  Calls
of the coarse functions (the analysis, engine entry points, CSV reads,
fits, samplers, the meta denominator) are kept as spans (name, start,
end, parent, analysis id, self).  The hot inner calls (model
evaluations, quadrature, `meta_loglik`, KDE and threshold evaluations)
are folded into per-name totals only: recording each of the hundreds of
thousands of them as a span would cost more than the work they time.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# name -> layer; "model" calls are charged to the family that built them
LAYER = {
    "cli.main": "cli",
    "engine.evaluate_curve": "engine",
    "engine.find_mee": "engine",
    "engine.support_set": "engine",
    "engine.support_region": "engine",
    "quadrature.log_integrate": "quadrature",
    "quadrature.integrate": "quadrature",
    "meta.read_csv": "meta",
    "meta.log_denominator": "meta",
    "meta.loglik": "meta",
    "meta.model": "meta",
    "glm.read_csv": "glm",
    "glm.fit_map": "glm",
    "glm.metropolis": "glm",
    "glm.kde_eval": "glm",
    "glm.model": "glm",
    "normal.model": "normal",
    "normal.threshold_prob": "normal",
    "binomial.model": "binomial",
}
HOT = {
    "quadrature.log_integrate", "quadrature.integrate", "meta.loglik", "glm.kde_eval",
    "normal.threshold_prob", "meta.model", "glm.model", "normal.model", "binomial.model",
}
ENGINE_ENTRY = ("evaluate_curve", "find_mee", "support_set", "support_region")
MODEL_BUILDERS = {
    "normal_bff": "normal", "replication_bff": "normal", "binomial_bff": "binomial",
    "meta_joint_bff": "meta", "meta_marginal_theta_bff": "meta",
    "meta_marginal_tau_bff": "meta", "glm_coefficient_bff": "glm",
}


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, analysis, self_s)
        self.stats = {}          # name -> [calls, inclusive s, self s]
        self.counts = defaultdict(float)
        self.analysis = None     # id of the analysis being traced
        self._stack = []         # open frames: [child seconds, span id or None]
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._depth = {}         # name -> [open calls of that name]
        self._saved = []

    def wrap(self, name, fn, count=None):
        """Time `fn` as `name`; `count(counts, args, kwargs, result)` adds work counts."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth = self._depth.setdefault(name, [0])
        keep_span = name not in HOT
        stack, spans, counts, lock, main = self._stack, self.spans, self.counts, self._lock, self._main
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != main:
                # engine pool threads: counted, not timed; their time stays
                # in the main-thread span that waits for the pool
                result = fn(*args, **kwargs)
                if count is not None:
                    with lock:
                        count(counts, args, kwargs, result)
                return result
            frame = [0.0, next(tracer._ids) if keep_span else None]
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None) if keep_span else None
            stack.append(frame)
            depth[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                stack.pop()
                depth[0] -= 1
                if stack:
                    stack[-1][0] += dur
                stat[0] += 1
                if depth[0] == 0:
                    stat[1] += dur
                stat[2] += dur - frame[0]
                if keep_span:
                    spans.append((frame[1], name, start, end, parent, tracer.analysis, dur - frame[0]))
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------ installing

    def _patch(self, module, attr, replacement):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self):
        import bff.cli as cli
        import bff.engine as engine
        import bff.glm as glm
        import bff.meta as meta
        import bff.quadrature as quadrature

        self._patch(cli, "main", self.wrap("cli.main", cli.main))
        for attr in ENGINE_ENTRY:
            count = _count_grid_pass if attr == "evaluate_curve" else None
            traced = self.wrap(f"engine.{attr}", getattr(engine, attr), count)
            self._patch(engine, attr, traced)
            if hasattr(cli, attr):
                self._patch(cli, attr, traced)
        for attr, family in MODEL_BUILDERS.items():
            self._patch(cli, attr, self._model_builder(getattr(cli, attr), family))
        self._patch(cli, "read_meta_csv", self.wrap("meta.read_csv", cli.read_meta_csv))
        self._patch(cli, "meta_log_denominator",
                    self.wrap("meta.log_denominator", cli.meta_log_denominator))
        self._patch(meta, "log_integrate", self.wrap("quadrature.log_integrate", meta.log_integrate))
        self._patch(meta, "meta_loglik", self.wrap("meta.loglik", meta.meta_loglik, _count_loglik))
        self._patch(quadrature, "integrate", self.wrap("quadrature.integrate", quadrature.integrate))
        self._patch(cli, "read_glm_csv", self.wrap("glm.read_csv", cli.read_glm_csv))
        fit = self.wrap("glm.fit_map", glm.fit_map)
        self._patch(cli, "fit_map", fit)
        self._patch(glm, "fit_map", fit)
        self._patch(cli, "metropolis_sample",
                    self.wrap("glm.metropolis", cli.metropolis_sample, _count_metropolis))
        self._patch(glm, "kde_density", self._kde_builder(glm.kde_density))
        self._patch(cli, "bff_threshold_prob",
                    self.wrap("normal.threshold_prob", cli.bff_threshold_prob))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _model_builder(self, build, family):
        def built(*args, **kwargs):
            model = build(*args, **kwargs)
            count = _count_model_2d if model.dim == 2 else _count_model_1d
            return dataclasses.replace(model, log_bff=self.wrap(f"{family}.model", model.log_bff, count))

        return built

    def _kde_builder(self, build):
        def built(*args, **kwargs):
            dens = build(*args, **kwargs)
            return dataclasses.replace(
                dens, log_density=self.wrap("glm.kde_eval", dens.log_density, _count_kde_points)
            )

        return built

    # ------------------------------------------------------------ reporting

    def layer_self(self, layer):
        return sum(st[2] for name, st in self.stats.items() if LAYER[name] == layer)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "analysis", "self_s"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"stats": self.stats, "counts": self.counts}) + "\n")


def _count_grid_pass(counts, args, kwargs, result):
    counts["engine.evaluate_curve_calls"] += 1


def _count_model_1d(counts, args, kwargs, result):
    counts["engine.model_calls"] += 1
    counts["engine.model_points"] += np.size(args[0])


def _count_model_2d(counts, args, kwargs, result):
    counts["engine.model_calls"] += 1
    counts["engine.model_points"] += 1


def _count_loglik(counts, args, kwargs, result):
    counts["meta.loglik_points"] += np.size(result)


def _count_metropolis(counts, args, kwargs, result):
    samples, info = result
    draws = kwargs.get("n_samples", args[2] if len(args) > 2 else 200_000)
    counts["glm.metropolis_draws"] += draws
    counts["glm.metropolis_accepted"] += info["acceptance_rate"] * len(samples)
    counts["glm.metropolis_kept"] += len(samples)


def _count_kde_points(counts, args, kwargs, result):
    counts["glm.kde_eval_points"] += np.size(args[0])
