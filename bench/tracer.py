"""Per-layer tracing of one basketsim command, installed from outside the program.

Every hook wraps a public function at the module attribute where the program
looks it up, so a call through that name opens a span. A span's self time is
its duration minus the time covered by its child spans. Spans are folded into
per-name totals (calls, seconds, child seconds) as they close: one command
makes about a million traced calls, too many to keep a record of each.

Work done in process-pool workers is traced the same way inside each worker.
The pool hook wraps every submitted job in ``_in_worker``, which writes the
worker's totals to a file after each job; the command process merges those
files when it reports.

A hook whose module or attribute no longer exists is skipped, and every
metric built on it is left out of the report instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import time
import uuid
from pathlib import Path

WORKER_DIR_ENV = "BASKETBENCH_WORKER_DIR"

REPORT_FUNCTIONS = (
    "analysis_table",
    "cutoffs_payload",
    "grid_report_csv",
    "oc_report_csv",
    "oc_report_json",
    "tune_payload",
)

# (module, attribute, span). Modules are imported by name with importlib:
# ``basketsim.tune`` and ``basketsim.calibrate`` are shadowed on the package by
# the functions of the same name that ``basketsim/__init__`` exports.
HOOKS = (
    ("basketsim.simulate", "replicate_rng", "simulate.replicate_rng"),
    ("basketsim.simulate", "apply_interims", "trial.apply_interims"),
    ("basketsim.simulate", "final_analysis", "trial.final_analysis"),
    ("basketsim.trial", "build_weight_matrix", "weights.build_weight_matrix"),
    ("basketsim.trial", "posterior_params", "posterior.posterior_params"),
    ("basketsim.trial", "prob_exceed", "posterior.prob_exceed"),
    ("basketsim.weights", "peb_weight", "weights.solve"),
    ("basketsim.weights", "geb_weights", "weights.solve"),
    ("basketsim.weights", "three_component_adjust", "weights.three_component_adjust"),
    ("basketsim.calibrate", "run_scenario", "simulate.run_scenario"),
    ("basketsim.tune", "run_scenario", "simulate.run_scenario"),
    ("basketsim.cli", "run_scenario", "simulate.run_scenario"),
    ("basketsim.tune", "calibrate_q", "calibrate.calibrate_q"),
    ("basketsim.cli", "calibrate_q", "calibrate.calibrate_q"),
    ("basketsim.tune", "compute_metrics", "metrics.compute_metrics"),
    ("basketsim.cli", "compute_metrics", "metrics.compute_metrics"),
    ("basketsim.cli", "tune", "tune.tune"),
) + tuple(("basketsim.cli", name, "reporting") for name in REPORT_FUNCTIONS)

POOL_HOOK = ("basketsim.simulate", "ProcessPoolExecutor", "simulate.pool")

_active: "Tracer | None" = None


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Span totals and counters of one process."""

    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir
        self.hooked: set[str] = set()
        self.broken: set[str] = set()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.token = uuid.uuid4().hex
        self.spans: dict[str, list] = {}  # name -> [calls, seconds, child seconds]
        self.counts: dict[str, float] = {}
        self.outcomes: set[tuple] = set()
        self._stack: list[list[float]] = []

    def open(self) -> tuple[list[float], float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def close(self, name: str, frame: list[float], t0: float) -> float:
        dt = time.perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += frame[0]
        return dt

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- hooks -------------------------------------------------------------

    def _span(self, fn, name: str, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame, t0 = tracer.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(name, frame, t0)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _guarded(self, metric: str, probe):
        """Run ``probe`` on a call's arguments; if it cannot read them, drop ``metric``."""

        def hook(*args):
            if metric in self.broken:
                return
            try:
                probe(*args)
            except (AttributeError, IndexError, KeyError, TypeError):
                self.broken.add(metric)

        return hook

    def _count_outcome(self, args, kwargs) -> None:
        data = args[0] if args else kwargs["data"]
        self.outcomes.add((tuple(data.y), tuple(data.n), tuple(data.active)))

    def _count_requests(self, args, kwargs) -> None:
        config = args[0] if args else kwargs["config"]
        data = args[1] if len(args) > 1 else kwargs["data"]
        method = config.method
        kind = type(method).__name__
        base = getattr(method, "base", None)
        k = sum(bool(a) for a in data.active)
        if kind == "PowerPriorGEB" or base == "geb":
            self.add("weights.requests", k)  # one coordinate-ascent row per active basket
        elif kind == "PowerPriorPEB" or base == "peb":
            self.add("weights.requests", k * (k - 1))  # one solve per ordered active pair

    def _count_candidates(self, result) -> None:
        self.add("tune.candidates", len(result.report))

    def _run_scenario(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cpu0 = _children_cpu_s()
            workers0 = tracer.counts.get("simulate.pool_workers", 0)
            frame, t0 = tracer.open()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = tracer.close("simulate.run_scenario", frame, t0)
                tracer.add("simulate.worker_cpu_s", _children_cpu_s() - cpu0)
                added = tracer.counts.get("simulate.pool_workers", 0) - workers0
                if added:
                    tracer.add("simulate.pool_capacity_s", added * dt)

        return wrapper

    def _pool(self, base: type) -> type:
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.add("simulate.pools", 1)
                tracer.add("simulate.pool_workers", max_workers or os.cpu_count() or 1)

            def __enter__(self):
                self._bench_span = tracer.open()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close("simulate.pool", *self._bench_span)

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(_in_worker, fn, *args, **kwargs)

        TracedPool.__name__ = TracedPool.__qualname__ = base.__name__
        return TracedPool

    def install(self) -> None:
        extras = {
            "trial.final_analysis": {
                "before": self._guarded("trial.unique_outcomes", self._count_outcome)
            },
            "weights.build_weight_matrix": {
                "before": self._guarded("weights.hit_ratio", self._count_requests)
            },
            "tune.tune": {"after": self._guarded("tune.candidates", self._count_candidates)},
        }
        for module_name, attr, name in HOOKS:
            module = _module(module_name)
            target = getattr(module, attr, None)
            if not callable(target):
                continue
            if name == "simulate.run_scenario":
                wrapped = self._run_scenario(target)
            else:
                wrapped = self._span(target, name, **extras.get(name, {}))
            setattr(module, attr, wrapped)
            self.hooked.add(name)
        module_name, attr, name = POOL_HOOK
        module = _module(module_name)
        target = getattr(module, attr, None)
        if isinstance(target, type):
            setattr(module, attr, self._pool(target))
            self.hooked.add(name)

    # -- workers -----------------------------------------------------------

    def dump(self) -> None:
        """Write this worker's totals; the file of a worker is replaced after every job."""
        path = Path(self.worker_dir) / f"{self.token}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "spans": self.spans,
            "counts": self.counts,
            "outcomes": sorted(self.outcomes),
        }))
        os.replace(tmp, path)

    def _merge_workers(self) -> None:
        for path in sorted(Path(self.worker_dir).glob("*.json")):
            part = json.loads(path.read_text())
            for name, (calls, total, child) in part["spans"].items():
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += child
            for key, value in part["counts"].items():
                self.add(key, value)
            self.outcomes.update(tuple(tuple(v) for v in o) for o in part["outcomes"])

    # -- report ------------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Per-layer metrics of the command, merged over its pool workers."""
        self._merge_workers()

        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return self.spans.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            rec = self.spans.get(name, [0, 0.0, 0.0])
            return rec[1] - rec[2]

        count = self.counts.get
        solves = calls("weights.solve")
        requests = count("weights.requests", 0)
        capacity = count("simulate.pool_capacity_s", 0.0)
        worker_cpu = count("simulate.worker_cpu_s", 0.0)
        rng, interims = "simulate.replicate_rng", "trial.apply_interims"
        final = "trial.final_analysis"
        params, exceed = "posterior.posterior_params", "posterior.prob_exceed"
        matrix, adjust = "weights.build_weight_matrix", "weights.three_component_adjust"
        run, pool, cal = "simulate.run_scenario", "simulate.pool", "calibrate.calibrate_q"
        # metric -> (spans it needs, value); values are computed only when
        # every span they need was hooked
        table = {
            "simulate.replicate_rng.s": ([rng], lambda: total(rng)),
            "trial.apply_interims.s": ([interims], lambda: total(interims)),
            "trial.final_analysis.self_s": ([final], lambda: self_s(final)),
            "posterior.posterior_params.calls": ([params], lambda: calls(params)),
            "posterior.posterior_params.s": ([params], lambda: total(params)),
            "posterior.prob_exceed.calls": ([exceed], lambda: calls(exceed)),
            "posterior.prob_exceed.s": ([exceed], lambda: total(exceed)),
            "weights.build_weight_matrix.s": ([matrix], lambda: total(matrix)),
            "weights.three_component_adjust.s": ([adjust], lambda: total(adjust)),
            # run_scenario's own time plus, in pool workers, the job time not
            # spent in a traced layer: the replicate loop and its RNG draws
            "simulate.self_s": ([run], lambda: self_s(run) + self_s("simulate.worker")),
            "weights.solves": (["weights.solve"], lambda: solves),
            "weights.solve_s": (["weights.solve"], lambda: total("weights.solve")),
            "weights.hit_ratio": (["weights.solve", matrix], lambda: 1.0 - solves / requests),
            "simulate.run_scenario.calls": ([run], lambda: calls(run)),
            "simulate.run_scenario.s": ([run], lambda: total(run)),
            "simulate.pools": ([pool], lambda: count("simulate.pools", 0)),
            "simulate.worker_cpu_s": ([run], lambda: worker_cpu),
            "simulate.pool_utilization": (
                [run, pool], lambda: worker_cpu / capacity if capacity else 0.0
            ),
            "tune.candidates": (["tune.tune"], lambda: count("tune.candidates", 0)),
            "tune.self_s": (["tune.tune"], lambda: self_s("tune.tune")),
            "calibrate.calibrate_q.calls": ([cal], lambda: calls(cal)),
            "calibrate.calibrate_q.self_s": ([cal], lambda: self_s(cal)),
            "metrics.compute_metrics.s": (
                ["metrics.compute_metrics"], lambda: total("metrics.compute_metrics")
            ),
            "trial.unique_outcomes": ([final], lambda: len(self.outcomes)),
            "reporting.s": (["reporting"], lambda: total("reporting")),
        }
        if not requests:
            self.broken.add("weights.hit_ratio")
        return {
            metric: value()
            for metric, (needs, value) in table.items()
            if metric not in self.broken and all(n in self.hooked for n in needs)
        }


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def install(worker_dir: str) -> Tracer:
    """Hook the imported program in this process; pool workers inherit the hooks."""
    global _active
    os.environ[WORKER_DIR_ENV] = worker_dir
    _active = Tracer(worker_dir)
    _active.install()
    return _active


def _in_worker(fn, *args, **kwargs):
    """Run one pool job inside a ``simulate.worker`` span and save the worker's totals."""
    global _active
    if _active is None:  # a worker started by spawn imports the program afresh
        install(os.environ[WORKER_DIR_ENV])
    elif _active.pid != os.getpid():  # a forked worker starts with its parent's totals
        _active._reset()
    tracer = _active
    frame, t0 = tracer.open()
    try:
        return fn(*args, **kwargs)
    finally:
        tracer.close("simulate.worker", frame, t0)
        tracer.dump()
