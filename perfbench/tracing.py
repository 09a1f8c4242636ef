"""Hooks installed from outside the program around the calls into its
modules' public functions.

`Boundary` and `SaveLog` run in every run: the first reads the clock only
when the first prompt-tuning call starts, the second keeps a copy of what
each artifact write held in memory.  `Tracer` runs only in the traced run
and turns the calls it sees into the per-layer metrics of `PER_LAYER`.
"""

from __future__ import annotations

import gc
import logging
import os
import resource
import statistics
import time
from collections import Counter, defaultdict

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("corpus.generate_s", "s", "lower"),
    ("distill.pretrain_steps", "count", "lower"),
    ("distill.pretrain_step_ms", "ms", "lower"),
    ("distill.kd_steps", "count", "lower"),
    ("distill.kd_step_ms", "ms", "lower"),
    ("model.forward_calls", "count", "lower"),
    ("model.forward_s", "s", "lower"),
    ("model.forwards_per_transfer_step", "count", "lower"),
    ("model.head_useful_ratio", "ratio", "higher"),
    ("model.eval_rows_per_s", "1/s", "higher"),
    ("autograd.backward_s", "s", "lower"),
    ("autograd.nodes_per_backward", "count", "lower"),
    ("autograd.gc_s", "s", "lower"),
    ("autograd.gc_gen2_collections", "count", "lower"),
    ("autograd.gc_objects_collected", "count", "lower"),
    ("optim.steps", "count", "lower"),
    ("optim.step_s", "s", "lower"),
    ("tuning.step_ms", "ms", "lower"),
    ("tuning.record_s", "s", "lower"),
    ("tuning.dp_steps", "count", "lower"),
    ("tuning.dp_examples", "count", "lower"),
    ("tuning.dp_step_ms", "ms", "lower"),
    ("tuning.dp_example_ms", "ms", "lower"),
    ("accountant.calibrations", "count", "lower"),
    ("accountant.repeat_calibrations", "count", "lower"),
    ("accountant.calibrate_ms", "ms", "lower"),
    ("accountant.stalled_orders", "count", "lower"),
    ("transfer.steps", "count", "lower"),
    ("transfer.step_ms", "ms", "lower"),
    ("transfer.precompute_s", "s", "lower"),
    ("attacks.shadows", "count", "lower"),
    ("attacks.shadow_s", "s", "lower"),
    ("attacks.confidence_s", "s", "lower"),
    ("artifacts.saves", "count", "lower"),
    ("artifacts.bytes_written", "bytes", "lower"),
    ("artifacts.save_s", "s", "lower"),
    ("artifacts.load_s", "s", "lower"),
    ("pipeline.startup_s", "s", "lower"),
    ("pipeline.data_s", "s", "lower"),
    ("pipeline.pretrain_s", "s", "lower"),
    ("pipeline.kd_s", "s", "lower"),
    ("pipeline.tune_s", "s", "lower"),
    ("pipeline.tune_dp_s", "s", "lower"),
    ("pipeline.transfer_s", "s", "lower"),
    ("pipeline.eval_s", "s", "lower"),
    ("pipeline.attack_s", "s", "lower"),
    ("pipeline.rss_end_of_setup_mb", "MB", "lower"),
    ("trace.setup_s", "s", "lower"),
    ("trace.prompt_s", "s", "lower"),
)

# pipeline stage name -> the pipeline.<x>_s metric its self time adds to
STAGE_METRIC = {
    "data": "data",
    "pretrain": "pretrain",
    "kd": "kd",
    "tune_student": "tune",
    "tune_student_dp": "tune_dp",
    "transfer": "transfer",
    "transfer_dp": "transfer",
    "eval": "eval",
    "attacks": "attack",
}


class TraceError(RuntimeError):
    """The traced run cannot vouch for its numbers (a hook never fired, or a
    hook count disagrees with the config)."""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Patches:
    """Attribute replacements and clean-ups, undone in reverse order.  A
    missing attribute raises at install time: a hook that cannot be placed
    fails loudly."""

    def __init__(self):
        self._undo: list = []

    def wrap(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def defer(self, fn) -> None:
        self._undo.append(fn)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class Boundary:
    """Marks the first call into prompt tuning, the end of set-up."""

    def __init__(self):
        self.prompt_start: float | None = None
        self.rss_at_prompt_mb: float | None = None

    def install(self, patches: Patches, pipeline) -> None:
        def make(fn):
            def first_tuning_call(*args, **kwargs):
                if self.prompt_start is None:
                    self.prompt_start = time.perf_counter()
                    self.rss_at_prompt_mb = peak_rss_mb()
                return fn(*args, **kwargs)

            return first_tuning_call

        # make_dp_params runs the accountant before a DP tune, so it opens
        # the prompt phase when the first tuning is a DP one
        patches.wrap(pipeline, "make_dp_params", make)
        patches.wrap(pipeline, "tune_prompt", make)


class SaveLog:
    """Copies of the in-memory weights each artifact write was given."""

    def __init__(self):
        self.models: dict[str, dict] = {}
        self.prompts: dict[str, tuple] = {}

    def install(self, patches: Patches, artifacts) -> None:
        def make_model(fn):
            def save_model(path, model, *args, **kwargs):
                fn(path, model, *args, **kwargs)
                self.models[os.fspath(path)] = {n: t.data.copy() for n, t in model.params.items()}

            return save_model

        def make_prompt(fn):
            def save_prompt(path, prompt, *args, **kwargs):
                fn(path, prompt, *args, **kwargs)
                meta = prompt.dp_meta.to_dict() if prompt.dp_meta else None
                self.prompts[os.fspath(path)] = (prompt.matrix.copy(), meta)

            return save_prompt

        patches.wrap(artifacts, "save_model", make_model)
        patches.wrap(artifacts, "save_prompt", make_prompt)


class _Scope:
    """A stage call, a tune_prompt call or a transfer_prompt call.  Optimizer
    steps made directly inside it are marked on a clock that excludes the
    time it spent in per-epoch accuracy passes."""

    __slots__ = ("kind", "start", "paused", "marks", "child_stage_s")

    def __init__(self, kind: str, start: float):
        self.kind = kind
        self.start = start
        self.paused = 0.0
        self.marks: list[tuple[float, int]] = []  # (active clock, forward calls so far)
        self.child_stage_s = 0.0


def _intervals(marks) -> list[float]:
    return [b[0] - a[0] for a, b in zip(marks, marks[1:])]


def _graph_nodes(t) -> int:
    seen = {id(t)}
    stack = [t]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Counts and times calls at module boundaries; see `PER_LAYER`."""

    def __init__(self, boundary: Boundary):
        self.boundary = boundary
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.n: Counter[str] = Counter()
        self.stack: list[_Scope] = []
        self.stage_self_s: defaultdict[str, float] = defaultdict(float)
        self.calibration_keys: set[tuple] = set()
        self._gc_start = 0.0

    # -- installation --------------------------------------------------------

    def install(self, patches: Patches, px) -> None:
        """Wrap the program's functions; `px` maps module names to modules."""
        pipeline, model, tuning, attacks, artifacts = (
            px["pipeline"], px["model"], px["tuning"], px["attacks"], px["artifacts"]
        )
        acc = self._accumulate
        patches.wrap(pipeline, "gen_synth_pair", lambda fn: acc("corpus", fn, "corpus.generate_s"))
        patches.wrap(pipeline, "tokenize_corpus", lambda fn: acc("corpus", fn, "corpus.generate_s"))
        patches.wrap(pipeline.SeedRun, "timed", self._stage_hook)
        patches.wrap(model.TransformerLM, "_forward_batch", self._forward_hook)
        for module in (model, attacks):
            patches.wrap(module, "class_log_probs_batch", self._eval_hook)
        patches.wrap(px["autograd"].Tensor, "backward", self._backward_hook)
        patches.wrap(px["optim"].Optimizer, "step", self._step_hook)
        patches.wrap(pipeline, "tune_prompt", self._tune_hook)
        patches.wrap(tuning, "classify_batch", self._record_hook)
        patches.wrap(tuning, "promptdpsgd_step", self._dp_step_hook)
        patches.wrap(tuning, "calibrate_sigma", self._calibrate_hook)
        patches.wrap(pipeline, "transfer_prompt", self._transfer_hook)
        patches.wrap(pipeline, "lira_attack", self._lira_hook)
        patches.wrap(attacks, "true_class_confidences", lambda fn: acc("confidence", fn, "attacks.confidence_s"))
        patches.wrap(artifacts, "save_model", self._save_hook)
        patches.wrap(artifacts, "save_prompt", self._save_hook)
        patches.wrap(artifacts, "load_model", lambda fn: acc("load", fn, "artifacts.load_s"))
        patches.wrap(artifacts, "load_prompt", lambda fn: acc("load", fn, "artifacts.load_s"))

        stall_logger = logging.getLogger(px["accountant"].__name__)
        stall_logger.addFilter(self._stall_filter)
        gc.callbacks.append(self._gc_hook)

        patches.defer(lambda: stall_logger.removeFilter(self._stall_filter))
        patches.defer(lambda: gc.callbacks.remove(self._gc_hook))

    # -- hooks ---------------------------------------------------------------

    def _accumulate(self, label: str, fn, metric: str):
        def wrapper(*args, **kwargs):
            self.calls[label] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_s[metric] += time.perf_counter() - t0

        return wrapper

    def _open(self, kind: str) -> _Scope:
        scope = _Scope(kind, time.perf_counter())
        self.stack.append(scope)
        return scope

    def _close(self, scope: _Scope) -> float:
        popped = self.stack.pop()
        assert popped is scope
        return time.perf_counter() - scope.start

    def _stage_hook(self, fn):
        def timed(run, stage, build, *args, **kwargs):
            self.calls["stage"] += 1
            scope = self._open("stage:" + stage)
            try:
                return fn(run, stage, build, *args, **kwargs)
            finally:
                duration = self._close(scope)
                self.stage_self_s[stage] += duration - scope.child_stage_s
                parent = next((s for s in reversed(self.stack) if s.kind.startswith("stage:")), None)
                if parent is not None:
                    parent.child_stage_s += duration
                if stage == "pretrain":
                    self.n["pretrain_steps"] += len(scope.marks)
                    self.samples["pretrain_step"] += _intervals(scope.marks)
                elif stage == "kd":
                    self.n["kd_steps"] += len(scope.marks)
                    self.samples["kd_step"] += _intervals(scope.marks)

        return timed

    def _forward_hook(self, fn):
        def forward(model, ids, *args, **kwargs):
            self.calls["forward"] += 1
            t0 = time.perf_counter()
            out = fn(model, ids, *args, **kwargs)
            self.total_s["model.forward_s"] += time.perf_counter() - t0
            if self.boundary.prompt_start is not None:
                logits = out[0] if isinstance(out, tuple) else out
                self.n["head_useful"] += len(ids)
                self.n["head_computed"] += int(logits.size // logits.shape[-1])
            return out

        return forward

    def _eval_hook(self, fn):
        def class_log_probs_batch(model, sequences, *args, **kwargs):
            self.calls["eval_rows"] += 1
            t0 = time.perf_counter()
            try:
                return fn(model, sequences, *args, **kwargs)
            finally:
                self.total_s["eval_rows"] += time.perf_counter() - t0
                self.n["eval_rows"] += len(sequences)

        return class_log_probs_batch

    def _backward_hook(self, fn):
        def backward(tensor, *args, **kwargs):
            self.calls["backward"] += 1
            self.n["graph_nodes"] += _graph_nodes(tensor)
            t0 = time.perf_counter()
            try:
                return fn(tensor, *args, **kwargs)
            finally:
                self.total_s["autograd.backward_s"] += time.perf_counter() - t0

        return backward

    def _gc_hook(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        self.calls["gc"] += 1
        self.total_s["autograd.gc_s"] += time.perf_counter() - self._gc_start
        self.n["gc_gen2"] += info["generation"] == 2
        self.n["gc_collected"] += info["collected"]

    def _step_hook(self, fn):
        def step(optimizer, *args, **kwargs):
            self.calls["optim"] += 1
            t0 = time.perf_counter()
            try:
                return fn(optimizer, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.total_s["optim.step_s"] += t1 - t0
                if self.stack:
                    scope = self.stack[-1]
                    scope.marks.append((t1 - scope.paused, self.calls["forward"]))

        return step

    def _tune_hook(self, fn):
        def tune_prompt(model, prompt, dataset, config, *args, **kwargs):
            self.calls["tune"] += 1
            scope = self._open("tune" if config.dp is None else "tune_dp")
            try:
                return fn(model, prompt, dataset, config, *args, **kwargs)
            finally:
                self._close(scope)
                if scope.kind == "tune":
                    self.samples["tune_step"] += _intervals(scope.marks)

        return tune_prompt

    def _record_hook(self, fn):
        def classify_batch(*args, **kwargs):
            self.calls["record"] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                self.total_s["tuning.record_s"] += spent
                if self.stack:
                    self.stack[-1].paused += spent

        return classify_batch

    def _dp_step_hook(self, fn):
        def promptdpsgd_step(model, prompt_var, dataset, sampled_indices, *args, **kwargs):
            self.calls["dp_step"] += 1
            t0 = time.perf_counter()
            try:
                return fn(model, prompt_var, dataset, sampled_indices, *args, **kwargs)
            finally:
                spent = time.perf_counter() - t0
                self.samples["dp_step"].append(spent)
                self.total_s["dp_step"] += spent
                self.n["dp_examples"] += len(sampled_indices)

        return promptdpsgd_step

    def _calibrate_hook(self, fn):
        def calibrate_sigma(*args, **kwargs):
            self.calls["calibrate"] += 1
            key = (args, tuple(sorted(kwargs.items())))
            self.n["repeat_calibrations"] += key in self.calibration_keys
            self.calibration_keys.add(key)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.samples["calibrate"].append(time.perf_counter() - t0)

        return calibrate_sigma

    def _stall_filter(self, record: logging.LogRecord) -> bool:
        if "series stalled" in record.getMessage():
            self.n["stalled_orders"] += 1
        return True

    def _transfer_hook(self, fn):
        def transfer_prompt(*args, **kwargs):
            self.calls["transfer"] += 1
            scope = self._open("transfer")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(scope)
                self.n["transfer_steps"] += len(scope.marks)
                self.samples["transfer_step"] += _intervals(scope.marks)
                if scope.marks:
                    self.total_s["transfer.precompute_s"] += scope.marks[0][0] - scope.start
                self.samples["forwards_per_step"] += [b[1] - a[1] for a, b in zip(scope.marks, scope.marks[1:])]

        return transfer_prompt

    def _lira_hook(self, fn):
        def lira_attack(model, pool, train_fn, *args, **kwargs):
            self.calls["lira"] += 1

            def shadow(*a, **k):
                self.calls["shadow"] += 1
                t0 = time.perf_counter()
                try:
                    return train_fn(*a, **k)
                finally:
                    self.total_s["attacks.shadow_s"] += time.perf_counter() - t0

            return fn(model, pool, shadow, *args, **kwargs)

        return lira_attack

    def _save_hook(self, fn):
        def save(path, *args, **kwargs):
            self.calls["save"] += 1
            t0 = time.perf_counter()
            fn(path, *args, **kwargs)
            self.total_s["artifacts.save_s"] += time.perf_counter() - t0
            self.n["bytes_written"] += os.path.getsize(path)

        return save

    # -- results -------------------------------------------------------------

    def require(self, hooks) -> None:
        """Fail loudly if a hook the workload must exercise never fired."""
        silent = sorted(h for h in hooks if self.calls[h] == 0)
        if silent:
            raise TraceError(f"tracing hooks never fired: {', '.join(silent)}")

    def require_counts(self, expected: dict[str, int], metrics: dict[str, float]) -> None:
        wrong = {k: (metrics[k], v) for k, v in expected.items() if metrics[k] != v}
        if wrong:
            detail = ", ".join(f"{k}={got} (config gives {want})" for k, (got, want) in wrong.items())
            raise TraceError(f"hook counts disagree with the config: {detail}")

    def metrics(self, startup_s: float, setup_s: float, prompt_s: float) -> dict[str, float]:
        """Every PER_LAYER value; `startup_s` is process start to the
        run_pipeline call (imports and config), the part of set-up outside
        the pipeline."""
        t, n, s, calls = self.total_s, self.n, self.samples, self.calls
        stage = {m: 0.0 for m in set(STAGE_METRIC.values())}
        for name, secs in self.stage_self_s.items():
            if name in STAGE_METRIC:
                stage[STAGE_METRIC[name]] += secs
        out = {
            "corpus.generate_s": t["corpus.generate_s"],
            "distill.pretrain_steps": n["pretrain_steps"],
            "distill.pretrain_step_ms": 1e3 * _median(s["pretrain_step"]),
            "distill.kd_steps": n["kd_steps"],
            "distill.kd_step_ms": 1e3 * _median(s["kd_step"]),
            "model.forward_calls": calls["forward"],
            "model.forward_s": t["model.forward_s"],
            "model.forwards_per_transfer_step": _median(s["forwards_per_step"]),
            "model.head_useful_ratio": _ratio(n["head_useful"], n["head_computed"]),
            "model.eval_rows_per_s": _ratio(n["eval_rows"], t["eval_rows"]),
            "autograd.backward_s": t["autograd.backward_s"],
            "autograd.nodes_per_backward": _ratio(n["graph_nodes"], calls["backward"]),
            "autograd.gc_s": t["autograd.gc_s"],
            "autograd.gc_gen2_collections": n["gc_gen2"],
            "autograd.gc_objects_collected": n["gc_collected"],
            "optim.steps": calls["optim"],
            "optim.step_s": t["optim.step_s"],
            "tuning.step_ms": 1e3 * _median(s["tune_step"]),
            "tuning.record_s": t["tuning.record_s"],
            "tuning.dp_steps": calls["dp_step"],
            "tuning.dp_examples": n["dp_examples"],
            "tuning.dp_step_ms": 1e3 * _median(s["dp_step"]),
            "tuning.dp_example_ms": 1e3 * _ratio(t["dp_step"], n["dp_examples"]),
            "accountant.calibrations": calls["calibrate"],
            "accountant.repeat_calibrations": n["repeat_calibrations"],
            "accountant.calibrate_ms": 1e3 * _median(s["calibrate"]),
            "accountant.stalled_orders": n["stalled_orders"],
            "transfer.steps": n["transfer_steps"],
            "transfer.step_ms": 1e3 * _median(s["transfer_step"]),
            "transfer.precompute_s": t["transfer.precompute_s"],
            "attacks.shadows": calls["shadow"],
            "attacks.shadow_s": t["attacks.shadow_s"],
            "attacks.confidence_s": t["attacks.confidence_s"],
            "artifacts.saves": calls["save"],
            "artifacts.bytes_written": n["bytes_written"],
            "artifacts.save_s": t["artifacts.save_s"],
            "artifacts.load_s": t["artifacts.load_s"],
            "pipeline.startup_s": startup_s,
            **{f"pipeline.{m}_s": v for m, v in stage.items()},
            "pipeline.rss_end_of_setup_mb": self.boundary.rss_at_prompt_mb or 0.0,
            "trace.setup_s": setup_s,
            "trace.prompt_s": prompt_s,
        }
        names = [name for name, _, _ in PER_LAYER]
        assert set(out) == set(names), set(out) ^ set(names)
        return {name: out[name] for name in names}

