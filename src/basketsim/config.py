"""JSON configuration and data-file parsing.

One JSON document describes a study: the trial design, the borrowing method
and prior, simulation scenarios, and run settings.  A separate small data
file carries observed per-basket counts for one-off analyses.  Validation
failures raise :class:`ConfigError` carrying the offending field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from .posterior import PriorSpec
from .simulate import Scenario
from .trial import DesignSpec, Look
from .tune import MATCH_TARGET, MAXIMIZE_POWER, TuningGrid
from .weights import (
    BorrowingConfig,
    IndependentModel,
    JSDWeights,
    LocalPowerPrior,
    PowerPriorGEB,
    PowerPriorPEB,
)

__all__ = [
    "ConfigError",
    "RunSettings",
    "StudyConfig",
    "ObservedData",
    "load_config",
    "load_data",
    "default_a_grid",
    "default_delta_grid",
    "default_epsilon_grid",
    "default_tau_grid",
]

METHOD_TYPES = ("im", "pp_peb", "pp_geb", "local_pp", "jsd")


class ConfigError(ValueError):
    """A configuration or data file violated the schema."""

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        super().__init__(f"{field}: {message}")


def default_a_grid() -> tuple[float, ...]:
    # step 0.05 up to 1, then 0.1 up to the no-discount ceiling of 4
    fine = [round(0.05 * k, 2) for k in range(0, 21)]
    coarse = [round(1.0 + 0.1 * k, 2) for k in range(1, 31)]
    return tuple(fine + coarse)


def default_delta_grid() -> tuple[float, ...]:
    return (0.1, 0.2, 0.3, 0.4)


def default_epsilon_grid() -> tuple[float, ...]:
    return tuple(round(1.0 + 0.5 * k, 2) for k in range(0, 13))


def default_tau_grid() -> tuple[float, ...]:
    return tuple(round(0.1 * k, 2) for k in range(0, 11))


@dataclass(frozen=True)
class RunSettings:
    m: int
    seed: int
    workers: int


@dataclass(frozen=True)
class StudyConfig:
    design: DesignSpec
    borrowing: BorrowingConfig
    scenarios: tuple[Scenario, ...]
    run: RunSettings
    cutoffs: Optional[tuple[float, ...]]
    tuning: Optional[TuningGrid]


@dataclass(frozen=True)
class ObservedData:
    names: tuple[str, ...]
    y: tuple[int, ...]
    n: tuple[int, ...]


def _expect(obj: Any, key: str, path: str, kind, kindname: str):
    if not isinstance(obj, dict):
        raise ConfigError(path or "<root>", "expected a JSON object")
    if key not in obj:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}" if path else key, f"expected {kindname}")
    return value


def _expect_number(obj, key, path) -> float:
    return float(_expect(obj, key, path, (int, float), "a number"))


def _expect_int(obj, key, path) -> int:
    value = _expect(obj, key, path, int, "an integer")
    return int(value)


def _expect_list(obj, key, path) -> list:
    return _expect(obj, key, path, list, "a list")


def _expect_str(obj, key, path) -> str:
    return _expect(obj, key, path, str, "a string")


def _number_list(raw, path) -> tuple[float, ...]:
    if not isinstance(raw, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw
    ):
        raise ConfigError(path, "expected a list of numbers")
    return tuple(float(v) for v in raw)


def _parse_design(raw: dict) -> DesignSpec:
    baskets = _expect_list(raw, "baskets", "design")
    if not baskets:
        raise ConfigError("design.baskets", "at least one basket is required")
    names, n_max, looks = [], [], []
    for i, b in enumerate(baskets):
        path = f"design.baskets[{i}]"
        if not isinstance(b, dict):
            raise ConfigError(path, "expected an object")
        names.append(b.get("name", f"basket{i + 1}"))
        if not isinstance(names[-1], str):
            raise ConfigError(f"{path}.name", "expected a string")
        if names[-1] in names[:-1]:
            raise ConfigError(f"{path}.name", f"duplicate basket name {names[-1]!r}")
        n_max.append(_expect_int(b, "n_max", path))
        raw_looks = b.get("looks", [])
        if not isinstance(raw_looks, list):
            raise ConfigError(f"{path}.looks", "expected a list")
        basket_looks = []
        for k, lk in enumerate(raw_looks):
            lpath = f"{path}.looks[{k}]"
            if not isinstance(lk, dict):
                raise ConfigError(lpath, "expected an object")
            try:
                basket_looks.append(
                    Look(
                        size=_expect_int(lk, "size", lpath),
                        futility_max_responses=_expect_int(lk, "futility_max_responses", lpath),
                    )
                )
            except ValueError as exc:
                raise ConfigError(lpath, str(exc)) from exc
        looks.append(tuple(basket_looks))
    p0 = _expect_number(raw, "p0", "design")
    alpha = _expect_number(raw, "alpha", "design")
    try:
        return DesignSpec(tuple(n_max), tuple(looks), p0, alpha, tuple(names))
    except ValueError as exc:
        raise ConfigError("design", str(exc)) from exc


def _parse_prior(raw: dict, n_baskets: int) -> PriorSpec:
    def side(key: str) -> tuple[float, ...]:
        if key not in raw:
            raise ConfigError(f"prior.{key}", "missing required field")
        v = raw[key]
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return (float(v),) * n_baskets
        values = _number_list(v, f"prior.{key}")
        if len(values) != n_baskets:
            raise ConfigError(f"prior.{key}", f"expected {n_baskets} entries, got {len(values)}")
        return values

    try:
        return PriorSpec(side("b1"), side("b2"))
    except ValueError as exc:
        raise ConfigError("prior", str(exc)) from exc


def _parse_method(raw: dict, prior: PriorSpec) -> BorrowingConfig:
    mtype = _expect_str(raw, "type", "method").strip().lower().replace("-", "_")
    if mtype not in METHOD_TYPES:
        raise ConfigError("method.type", f"expected one of {METHOD_TYPES}, got {mtype!r}")
    try:
        if mtype == "im":
            method = IndependentModel()
        elif mtype == "pp_peb":
            method = PowerPriorPEB()
        elif mtype == "pp_geb":
            method = PowerPriorGEB()
        elif mtype == "local_pp":
            base = raw.get("base", "peb")
            if not isinstance(base, str):
                raise ConfigError("method.base", "expected a string")
            method = LocalPowerPrior(
                base=base.strip().lower(),
                a=_expect_number(raw, "a", "method"),
                delta=_expect_number(raw, "delta", "method"),
            )
        else:
            method = JSDWeights(
                epsilon=_expect_number(raw, "epsilon", "method"),
                tau=_expect_number(raw, "tau", "method"),
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("method", str(exc)) from exc
    return BorrowingConfig(method=method, prior=prior)


def _parse_scenarios(raw: list, n_baskets: int) -> tuple[Scenario, ...]:
    if not isinstance(raw, list):
        raise ConfigError("scenarios", "expected a list")
    scenarios = []
    seen = set()
    for i, sc in enumerate(raw):
        path = f"scenarios[{i}]"
        if not isinstance(sc, dict):
            raise ConfigError(path, "expected an object")
        name = _expect_str(sc, "name", path)
        if name in seen:
            raise ConfigError(f"{path}.name", f"duplicate scenario name {name!r}")
        seen.add(name)
        orr = _number_list(_expect_list(sc, "orr", path), f"{path}.orr")
        if len(orr) != n_baskets:
            raise ConfigError(f"{path}.orr", f"expected {n_baskets} entries, got {len(orr)}")
        try:
            scenarios.append(Scenario(name, orr))
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    return tuple(scenarios)


def _parse_run(raw: dict) -> RunSettings:
    m = _expect_int(raw, "M", "run")
    if m < 1:
        raise ConfigError("run.M", "must be >= 1")
    seed = _expect_int(raw, "seed", "run")
    if not 0 <= seed < 2**64:
        raise ConfigError("run.seed", "must fit in an unsigned 64-bit integer")
    workers = raw.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError("run.workers", "must be a positive integer")
    return RunSettings(m=m, seed=seed, workers=workers)


def _parse_tuning(raw: dict, scenarios: tuple[Scenario, ...]) -> TuningGrid:
    strategy = _expect_str(raw, "strategy", "tuning").strip().lower()
    if strategy not in (MAXIMIZE_POWER, MATCH_TARGET):
        raise ConfigError(
            "tuning.strategy", f"expected '{MAXIMIZE_POWER}' or '{MATCH_TARGET}'"
        )
    key = "max_bwer_below" if strategy == MAXIMIZE_POWER else "match_bwer_max"
    constraint = _expect_number(raw, key, "tuning")
    if not 0.0 < constraint < 1.0:
        raise ConfigError(f"tuning.{key}", "must lie in (0, 1)")
    by_name = {s.name: s for s in scenarios}
    names_raw = raw.get("scenarios")
    if names_raw is None:
        names = list(by_name)
    else:
        if not isinstance(names_raw, list) or not all(isinstance(v, str) for v in names_raw):
            raise ConfigError("tuning.scenarios", "expected a list of scenario names")
        for pos, name in enumerate(names_raw):
            if name not in by_name:
                raise ConfigError("tuning.scenarios", f"unknown scenario {name!r}")
            if name in names_raw[:pos]:
                raise ConfigError("tuning.scenarios", f"duplicate scenario name {name!r}")
        names = names_raw
    if not names:
        raise ConfigError("tuning.scenarios", "must be nonempty")

    def grid(key: str, default: tuple[float, ...], check) -> tuple[float, ...]:
        # every entry must pass the bounds of the method the list tunes, and
        # appear once: a repeat would be simulated and reported twice
        if key not in raw:
            return default
        values = _number_list(raw[key], f"tuning.{key}")
        for k, value in enumerate(values):
            if value in values[:k]:
                raise ConfigError(f"tuning.{key}[{k}]", f"duplicate value {value!r}")
            try:
                check(value)
            except ValueError as exc:
                raise ConfigError(f"tuning.{key}[{k}]", str(exc)) from exc
        return values

    return TuningGrid(
        scenario_set=tuple(by_name[name] for name in names),
        strategy=strategy,
        constraint=constraint,
        a_values=grid("a_values", default_a_grid(), lambda a: LocalPowerPrior("peb", a, 0.0)),
        delta_values=grid(
            "delta_values", default_delta_grid(), lambda delta: LocalPowerPrior("peb", 0.0, delta)
        ),
        epsilon_values=grid(
            "epsilon_values", default_epsilon_grid(), lambda epsilon: JSDWeights(epsilon, 0.0)
        ),
        tau_values=grid("tau_values", default_tau_grid(), lambda tau: JSDWeights(1.0, tau)),
    )


def _load_json(path: Path, label: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(label, f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(label, f"invalid JSON in {path}: {exc}") from exc


def load_config(path: Path | str) -> StudyConfig:
    """Parse and validate a study configuration file."""
    raw = _load_json(Path(path), "<config>")
    if not isinstance(raw, dict):
        raise ConfigError("<config>", "top level must be a JSON object")
    design = _parse_design(_expect(raw, "design", "", dict, "an object"))
    prior = _parse_prior(_expect(raw, "prior", "", dict, "an object"), design.n_baskets)
    borrowing = _parse_method(_expect(raw, "method", "", dict, "an object"), prior)
    scenarios = _parse_scenarios(raw.get("scenarios", []), design.n_baskets)
    run = _parse_run(_expect(raw, "run", "", dict, "an object"))

    cutoffs = None
    if "cutoffs" in raw:
        cutoffs = _number_list(raw["cutoffs"], "cutoffs")
        if len(cutoffs) != design.n_baskets:
            raise ConfigError(
                "cutoffs", f"expected {design.n_baskets} entries, got {len(cutoffs)}"
            )
        for c in cutoffs:
            if not 0.0 <= c <= 1.0:
                raise ConfigError("cutoffs", f"entries must lie in [0, 1], got {c}")

    tuning = None
    if "tuning" in raw:
        tuning_raw = raw["tuning"]
        if not isinstance(tuning_raw, dict):
            raise ConfigError("tuning", "expected an object")
        tuning = _parse_tuning(tuning_raw, scenarios)

    return StudyConfig(
        design=design,
        borrowing=borrowing,
        scenarios=scenarios,
        run=run,
        cutoffs=cutoffs,
        tuning=tuning,
    )


def load_data(path: Path | str, n_baskets: Optional[int] = None) -> ObservedData:
    """Parse an observed-counts file: {"baskets": [{"name", "y", "n"}, ...]}."""
    raw = _load_json(Path(path), "<data>")
    if not isinstance(raw, dict):
        raise ConfigError("<data>", "top level must be a JSON object")
    baskets = _expect_list(raw, "baskets", "")
    if not baskets:
        raise ConfigError("baskets", "at least one basket is required")
    names, ys, ns = [], [], []
    for i, b in enumerate(baskets):
        path_i = f"baskets[{i}]"
        if not isinstance(b, dict):
            raise ConfigError(path_i, "expected an object")
        names.append(b.get("name", f"basket{i + 1}"))
        if not isinstance(names[-1], str):
            raise ConfigError(f"{path_i}.name", "expected a string")
        if names[-1] in names[:-1]:
            raise ConfigError(f"{path_i}.name", f"duplicate basket name {names[-1]!r}")
        y = _expect_int(b, "y", path_i)
        n = _expect_int(b, "n", path_i)
        if n <= 0:
            raise ConfigError(f"{path_i}.n", "must be positive")
        if not 0 <= y <= n:
            raise ConfigError(f"{path_i}.y", f"must lie in [0, {n}]")
        ys.append(y)
        ns.append(n)
    if n_baskets is not None and len(ys) != n_baskets:
        raise ConfigError(
            "baskets", f"expected {n_baskets} baskets to match the design, got {len(ys)}"
        )
    return ObservedData(tuple(names), tuple(ys), tuple(ns))
