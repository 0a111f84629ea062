"""Experiment orchestration: scenario definitions, config parsing, CSV/JSON output.

The config format is flat ``key = value`` text with dotted sections, one row
of ``_KEYS`` per key: the field it sets, its kind (parser and canonical
printer), its range and the infinities it may take.  dB/dBm quantities are
converted to linear units here, at the boundary; every engine exchanges
linear units only.  Any key can also be overridden through the environment
as ``MMWCOV_<KEY>`` with dots replaced by double underscores (e.g.
``MMWCOV_CHANNEL__ALPHA_L=2.2``).

Each scenario writes one CSV per engine with the fixed column schema
``(x, value, stderr, engine, policy)``; when a scenario sweeps extra
parameters the ``policy`` field carries the full curve key (e.g.
``P1;sectors_exp=2;density=8e-04``).  A JSON manifest accompanies every run
and embeds the fully resolved config, which re-validates to itself.
"""

from __future__ import annotations

import difflib
import json
import math
import os
import sys
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .radio import (AntennaConfig, ChannelParams, NetworkParams, _db_to_linear, dbm_to_watts,
                    watts_to_dbm)
from .montecarlo import (SimPlan, check_chunk_points, default_power_levels, run_coverages,
                         run_power_ccdfs)
from . import analytic, dominant

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "validate_config",
    "run_experiment",
    "SCENARIOS",
    "ENV_PREFIX",
]

ENV_PREFIX = "MMWCOV_"
SCENARIOS = ("fig4", "fig5", "fig6", "fig7", "fig8", "custom")
_ENGINES = ("mc", "analytic", "dominant")


class ConfigError(ValueError):
    """Config parse/validation failure with a line-anchored message."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment description."""

    scenario: str = "custom"
    params: NetworkParams = field(default_factory=NetworkParams)
    engines: tuple = ("mc", "analytic")
    policies: tuple = ("P1", "P3")
    seed: int = 20240
    trials: int = 200_000
    workers: int = 1
    out_dir: str = "out"
    strict: bool = False
    gamma_grid_db: tuple = (-10.0, -7.5, -5.0, -2.5, 0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0)
    fig7_gamma_db: float = 3.0
    density_sweep: tuple = (4e-4, 8e-4, 1.6e-3)
    sector_sweep: tuple = (1, 2, 3)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        for e in self.engines:
            if e not in _ENGINES:
                raise ConfigError(f"unknown engine {e!r}; expected a subset of {_ENGINES}")
        for p in self.policies:
            if p not in ("P1", "P2", "P3"):
                raise ConfigError(f"unknown policy {p!r}")
        for key in ("run.engines", "run.trials", "run.workers", "run.seed"):
            _check_range(key, getattr(self, _KEYS[key].path))
        if len(self.gamma_grid_db) > 1 and any(
                b <= a for a, b in zip(self.gamma_grid_db, self.gamma_grid_db[1:])):
            raise ConfigError("grid.gamma_db must be strictly increasing")

    def to_flat(self) -> dict:
        """Canonical flat key/value form; the fixed point of validate_config."""
        return {key: _KINDS[row.kind][1](reduce(getattr, row.path.split("."), self))
                for key, row in _KEYS.items()}


def _items(parse: Callable) -> Callable:
    """Parser of a comma list, each entry read by ``parse``; blank entries are skipped."""
    return lambda raw: tuple(parse(part.strip()) for part in raw.split(",") if part.strip())


def _watts(dbm: float) -> float:
    """The power in W of ``dbm``; a level above the float range is +inf, without a warning."""
    with np.errstate(over="ignore"):
        return float(dbm_to_watts(dbm))


_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}
# The parser (text to value; ValueError or KeyError when unparseable) and the
# canonical printer (field to text) of each kind of key.  A dBm key's value is
# converted to W for its field.
_KINDS = {
    "text": (str, str),
    "bool": (lambda raw: _BOOLS[raw.strip().lower()], lambda v: "true" if v else "false"),
    "int": (int, str),
    "float": (float, repr),
    "dBm": (float, lambda watts: repr(float(watts_to_dbm(watts)))),
    "float list": (_items(float), lambda values: ",".join(map(repr, values))),
    "int list": (_items(int), lambda values: ",".join(map(str, values))),
    "engines": (_items(str.lower), ",".join),
    "policies": (_items(str.upper), ",".join),
}


class _Key(NamedTuple):
    """A config key: the attribute path of its field in ExperimentConfig, its kind,
    its range (a test and the rule it states) and the infinities it may take,
    which the test skips."""

    path: str
    kind: str
    ok: Callable | None = None
    rule: str = ""
    infinities: tuple = ()


_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
_BEAMS = (lambda m: 0 <= m <= 8, "must lie in [0, 8]")
_LINEAR = "must be finite and above 0 in linear units"

# Every config key, in the order of the canonical form.  -inf dBm is no noise
# at all, and an infinite threshold is certain or impossible coverage.
_KEYS = {
    "scenario": _Key("scenario", "text"),
    "network.density": _Key("params.density", "float", *_POSITIVE),
    "antenna.g_max_db": _Key("params.antenna.g_max_db", "float",
                             lambda db: 0.0 < _db_to_linear((db,))[0] < math.inf, _LINEAR),
    "antenna.sla_db": _Key("params.antenna.sla_db", "float", *_POSITIVE),
    "antenna.sectors_exp": _Key("params.antenna.sectors_exp", "int", *_BEAMS),
    "antenna.phi_3db": _Key("params.antenna.phi_3db", "float",
                            lambda v: 0 < v <= 2 * math.pi, "must lie in (0, 2*pi]"),
    "channel.alpha_l": _Key("params.channel.alpha_l", "float", *_POSITIVE),
    "channel.f_c": _Key("params.channel.f_c", "float", *_POSITIVE),
    "channel.m_s": _Key("params.channel.m_s", "int", *_AT_LEAST_1),
    "channel.m_x": _Key("params.channel.m_x", "int", *_AT_LEAST_1),
    "channel.r_los": _Key("params.channel.r_los", "float", *_POSITIVE),
    "channel.tx_power_dbm": _Key("params.channel.tx_power_w", "dBm",
                                 lambda dbm: 0.0 < _watts(dbm) < math.inf, _LINEAR),
    "channel.noise_dbm": _Key("params.channel.noise_w", "dBm",
                              lambda dbm: 0.0 < _watts(dbm) < math.inf, _LINEAR, (-math.inf,)),
    "run.engines": _Key("engines", "engines", bool, "must name at least one engine"),
    "run.policies": _Key("policies", "policies"),
    "run.seed": _Key("seed", "int", lambda v: 0 <= v < 2**128, "must lie in [0, 2**128)"),
    "run.trials": _Key("trials", "int", *_AT_LEAST_1),
    "run.workers": _Key("workers", "int", *_AT_LEAST_1),
    "run.out_dir": _Key("out_dir", "text"),
    "run.strict": _Key("strict", "bool"),
    "grid.gamma_db": _Key("gamma_grid_db", "float list", infinities=(-math.inf, math.inf)),
    "grid.fig7_gamma_db": _Key("fig7_gamma_db", "float", infinities=(-math.inf, math.inf)),
    "sweep.density": _Key("density_sweep", "float list",
                          lambda v: all(d > 0 for d in v), "must all be positive"),
    "sweep.sectors": _Key("sector_sweep", "int list",
                          lambda v: all(map(_BEAMS[0], v)), "must all lie in [0, 8]"),
}


def _parse_value(key: str, raw: str, where: str):
    row = _KEYS[key]
    try:
        value = _KINDS[row.kind][0](raw)
    except (ValueError, KeyError):
        raise ConfigError(f"{where}: {key} has an unparseable value {raw!r}") from None
    for v in value if isinstance(value, tuple) else (value,):
        if isinstance(v, float) and not (math.isfinite(v) or v in row.infinities):
            raise ConfigError(f"{where}: {key} must not be {v!r}")
    return value


def _check_range(key: str, value, where: str = "") -> None:
    """Refuse a ``value`` of ``key`` outside the key's range, or an empty list."""
    row = _KEYS[key]
    if row.ok is not None and value not in row.infinities and not row.ok(value):
        rule = row.rule
    elif value == ():
        rule = "must not be empty"
    else:
        return
    raise ConfigError(f"{where}{': ' if where else ''}{key} {rule} (got {value!r})")


def _read_pairs(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        yield f"line {lineno}", key, raw


def _env_pairs(environ):
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower().replace("__", ".")
        yield f"env {name}", key, raw


def validate_config(source=None, strict: bool = False, environ=None) -> ExperimentConfig:
    """Parse and range-check a config file (or text), applying defaults.

    ``source`` may be a ``pathlib.Path`` to a config file, a ``str`` of
    config text, or None (pure defaults).  Environment overrides are applied
    after the file.  Unknown keys raise in strict mode (with a spelling
    suggestion) and warn otherwise; the mode is on when ``strict`` is, or
    when the last ``run.strict`` of the file and environment is true.  A
    config whose run would fail before it computes anything is refused as
    well (see :func:`_check_runnable`).
    """
    text = source or ""
    if isinstance(source, Path):
        if not source.is_file():
            raise ConfigError(f"config file {str(source)!r} does not exist or is not a file")
        text = source.read_text(encoding="utf-8")
    values: dict = {}
    pairs = list(_read_pairs(text))
    if environ is None:
        environ = os.environ
    pairs += list(_env_pairs(environ))

    locations: dict = {}
    for where, key, raw in pairs:
        if key in _KEYS:
            values[key] = _parse_value(key, raw, where)
            locations[key] = where
    # unknown keys are judged once every pair is read, so that strictness
    # does not depend on where run.strict appears
    for where, key, raw in pairs:
        if key not in _KEYS:
            suggestion = difflib.get_close_matches(key, _KEYS, n=1, cutoff=0.4)
            hint = f"; did you mean {suggestion[0]!r}?" if suggestion else ""
            message = f"{where}: unknown key {key!r}{hint}"
            if strict or values.get("run.strict", False):
                raise ConfigError(message)
            warnings.warn(message, stacklevel=2)

    given = defaultdict(dict)   # the given field values of each dataclass, by its path
    for key, value in values.items():
        _check_range(key, value, locations[key])
        row = _KEYS[key]
        owner, _, name = row.path.rpartition(".")
        given[owner][name] = _watts(value) if row.kind == "dBm" else value
    params = NetworkParams(antenna=AntennaConfig(**given["params.antenna"]),
                           channel=ChannelParams(**given["params.channel"]), **given["params"])
    config = ExperimentConfig(params=params, **{"strict": strict, **given[""]})
    _check_runnable(config, locations)
    return config


def _check_runnable(config: ExperimentConfig, locations: dict) -> None:
    """Refuse a config whose run would fail before it computes anything,
    naming the key and its ``locations`` entry: a field that the run draws
    (an mc curve, or fig8's report) too dense for the chunk budget, a
    path-loss exponent below the antiderivative tables (analytic coverage,
    the dominant P2 curves, or fig8's report), or an antenna that the P1
    serving-power law (analytic P1 and fig4, or fig8's report) cannot take,
    or a gain that every engine forms, g_max**2 (a link's boresight gain) or
    g_s, at 0 or beyond the float range."""
    ant = config.params.antenna
    boresight = float(_db_to_linear((2.0 * ant.g_max_db,))[0])
    for keys, name, gain in ((("antenna.g_max_db",), "g_max**2", boresight),
                             (("antenna.sla_db", "antenna.g_max_db"), "g_s", ant.g_s)):
        if not 0.0 < gain < math.inf:
            key = next((k for k in keys if k in locations), keys[0])
            raise ConfigError(f"{locations.get(key, 'default')}: {key} leaves the gain {name} at "
                              f"{gain!r}, which must be finite and above 0 in linear units "
                              f"(g_max_db {ant.g_max_db:g}, sla_db {ant.sla_db:g})")
    mc = "mc" in config.engines
    report = config.scenario == "fig8" and "dominant" in config.engines
    dominant_p2 = ("dominant" in config.engines and config.scenario == "custom"
                   and "P2" in config.policies)
    if report or dominant_p2 or ("analytic" in config.engines and config.scenario != "fig4"):
        try:
            analytic.check_alpha(config.params.channel.alpha_l)
        except ValueError as exc:
            raise ConfigError(f"{locations.get('channel.alpha_l', 'default')}: "
                              f"channel.alpha_l {exc}") from None
    # the densities of the fields that the run draws, and the key that sets each
    drawn = [("network.density", config.params.density)] if report else []
    if mc:
        swept = config.scenario in ("fig4", "fig7")
        densities = (config.density_sweep if config.scenario == "fig4" else
                     [c.params.density for c in _CURVES[config.scenario](config)["mc"]])
        drawn += [("sweep.density" if swept else "network.density", density)
                  for density in dict.fromkeys(densities)]
    for key, density in drawn:
        try:
            check_chunk_points(density, config.params.r_los)
        except ValueError as exc:
            where = locations.get(key, locations.get("channel.r_los", "default"))
            raise ConfigError(f"{where}: {key} {exc}") from None

    own = ("antenna.phi_3db", "antenna.sla_db", "antenna.sectors_exp")
    fig4 = config.scenario == "fig4" and "analytic" in config.engines
    laws = [(config.params, own)] if report or fig4 else []
    if "analytic" in config.engines and config.scenario != "fig4":
        keys = own if config.scenario == "custom" else ("antenna.sla_db",)  # phi_3db is reset
        laws += [(c.params, keys) for c in _CURVES[config.scenario](config)["analytic"]
                 if c.policy == "P1"]
    for params, keys in laws:
        try:
            analytic.ServingPowerLaw(params)
        except ValueError:
            key = next((k for k in keys if k in locations), keys[0])
            ant = params.antenna
            raise ConfigError(
                f"{locations.get(key, 'default')}: {key} leaves beams up to half the spacing "
                f"{0.5 * ant.beam_spacing:.4g} rad off a beam maximum, beyond the mainlobe "
                f"half-width phi_a {ant.phi_a:.4g} rad that the P1 serving-power law needs "
                f"(sectors_exp {ant.sectors_exp}, phi_3db {ant.phi_3db:.4g} rad, "
                f"sla_db {ant.sla_db:g})") from None


# ---------------------------------------------------------------------------
# Scenario runners
# ---------------------------------------------------------------------------


def _curve_key(policy: str, **labels) -> str:
    parts = [policy] + [f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in labels.items()]
    return ";".join(parts)


def _with(params: NetworkParams, density=None, sectors_exp=None) -> NetworkParams:
    out = params
    if density is not None:
        out = replace(out, density=density)
    if sectors_exp is not None:
        out = replace(out, antenna=replace(out.antenna, sectors_exp=sectors_exp, phi_3db=None))
    return out


@dataclass(frozen=True)
class _Curve:
    """One output curve: ``policy`` at ``params`` over the dB thresholds
    ``grid_db``, written as rows keyed ``key`` with one ``x`` per threshold."""

    key: str
    params: NetworkParams
    policy: str
    grid_db: tuple
    x: tuple


def _grid_curve(config: ExperimentConfig, key: str, params: NetworkParams,
                policy: str) -> _Curve:
    """A curve over the config's threshold grid, with the threshold as x."""
    return _Curve(key, params, policy, config.gamma_grid_db, config.gamma_grid_db)


def _plan(config: ExperimentConfig, params: NetworkParams, policy: str,
          thresholds_db) -> SimPlan:
    """The config's MC plan for one curve."""
    return SimPlan(params=params, policy=policy, thresholds_db=thresholds_db,
                   n_trials=config.trials, master_seed=config.seed)


# the module and name prefix of the coverage functions of each curve engine
_COVERAGE = {"analytic": (analytic, "coverage_"), "dominant": (dominant, "coverage_dom_")}


def _curve_rows(config: ExperimentConfig, engine: str, curves: list, meter: dict) -> list:
    """Rows of every curve on ``engine``, in curve order; the seconds spent in
    the engine's calls are added to ``meter[engine]``.

    Each engine call takes a group of curves.  Monte Carlo evaluates the
    curves of one density on one shared draw (one ``run_coverages`` call);
    curves with the same ``sectors_exp`` should sit next to each other, so
    that they share the grid offsets.  The analytic engine evaluates the
    curves that differ only in density (one policy, threshold grid, antenna
    and channel) in one ``coverage_pN`` call, which shares their region
    exponents: fig7 makes one call per policy and ``sectors_exp``.  The
    dominant engine takes one curve per call.
    """
    groups = {}
    for i, c in enumerate(curves):
        if engine == "mc":
            key = c.params.density
        elif engine == "analytic":
            key = (c.policy, c.grid_db, c.params.antenna, c.params.channel)
        else:
            key = i
        groups.setdefault(key, []).append(i)
    results = [None] * len(curves)
    for group in groups.values():
        members = [curves[i] for i in group]
        start = time.perf_counter()
        if engine == "mc":
            plans = [_plan(config, c.params, c.policy, c.grid_db) for c in members]
            found = [(coverage.p_cov, coverage.stderr)
                     for coverage in run_coverages(plans, n_workers=config.workers)]
        else:
            module, prefix = _COVERAGE[engine]
            # looked up at call time, so that a wrapper installed on the module
            # after import (a tracer's, say) sees the call
            coverage = getattr(module, prefix + members[0].policy.lower())
            gammas = _db_to_linear(members[0].grid_db)
            if engine == "analytic":
                values = coverage(gammas, [c.params for c in members])
            else:
                values = [coverage(gammas, members[0].params)]
            found = [(v, repeat(0.0)) for v in values]
        meter[engine] += time.perf_counter() - start
        for i, result in zip(group, found):
            results[i] = result
    return [(x, v, s, engine, c.key) for c, (values, errors) in zip(curves, results)
            for x, v, s in zip(c.x, values, errors)]


def _scenario_fig4(config: ExperimentConfig, rows: dict) -> None:
    laws = {"P1": analytic.serving_power_ccdf, "P3": analytic.nearest_power_ccdf}
    for density in config.density_sweep:
        params = _with(config.params, density=density)
        levels = default_power_levels(params)
        levels_db = 10.0 * np.log10(levels)
        keys = {policy: _curve_key(policy, density=density) for policy in laws}
        if "mc" in config.engines:
            plans = [_plan(config, params, policy, (0.0,)) for policy in laws]
            for curve in run_power_ccdfs(plans, levels=levels, n_workers=config.workers):
                rows["mc"] += [(x, v, s, "mc", keys[curve.policy]) for x, v, s
                               in zip(levels_db, curve.ccdf, curve.stderr)]
        if "analytic" in config.engines:
            for policy, law in laws.items():
                vals = law(levels, params)
                rows["analytic"] += [(x, v, 0.0, "analytic", keys[policy])
                                     for x, v in zip(levels_db, vals)]


def _sector_curves(config: ExperimentConfig, policies) -> dict:
    curves = [_grid_curve(config, _curve_key(policy, sectors_exp=m),
                          _with(config.params, sectors_exp=m), policy)
              for m in config.sector_sweep for policy in policies]
    return {"mc": curves, "analytic": curves}


def _curves_fig7(config: ExperimentConfig) -> dict:
    """One single-threshold curve per point, with the beam count as x."""
    curves = [_Curve(_curve_key(policy, density=density),
                     _with(config.params, density=density, sectors_exp=m), policy,
                     (config.fig7_gamma_db,), (float(m),))
              for density in config.density_sweep
              for m in config.sector_sweep for policy in ("P1", "P3")]
    return {"mc": curves, "analytic": curves}


def _curves_fig8(config: ExperimentConfig) -> dict:
    full = [_grid_curve(config, _curve_key("P1", sectors_exp=m),
                        _with(config.params, sectors_exp=m), "P1")
            for m in config.sector_sweep]
    dominant_curves = [_grid_curve(config, _curve_key(f"{policy}-dominant", sectors_exp=m),
                                   curve.params, policy)
                       for m, curve in zip(config.sector_sweep, full)
                       for policy in ("P2", "P3")]
    return {"mc": full, "analytic": full, "dominant": dominant_curves}


def _curves_custom(config: ExperimentConfig) -> dict:
    curves = [_grid_curve(config, policy, config.params, policy)
              for policy in config.policies]
    return {"mc": curves, "analytic": curves,
            "dominant": [replace(c, key=f"{c.policy}-dominant") for c in curves
                         if c.policy in ("P2", "P3")]}


_CURVES = {
    "fig5": lambda config: _sector_curves(config, ("P1", "P3")),
    "fig6": lambda config: _sector_curves(config, ("P1", "P2")),
    "fig7": _curves_fig7,
    "fig8": _curves_fig8,
    "custom": _curves_custom,
}


def _write_csv(path: Path, rows) -> None:
    lines = ["x,value,stderr,engine,policy"]
    lines += [f"{x:.10e},{v:.10e},{s:.10e},{engine},{key}"
              for x, v, s, engine, key in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def run_experiment(config: ExperimentConfig) -> list[Path]:
    """Run one scenario and emit per-engine CSVs plus a JSON manifest.

    The config is checked again as ``validate_config`` checks it, because a
    caller may have changed it since; a run that cannot succeed is refused
    before the output directory is made."""
    _check_runnable(config, {})
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    rows = {engine: [] for engine in config.engines}
    extras = {}
    runtimes = {}
    meter = defaultdict(float)   # seconds of each engine's curve calls
    start = time.perf_counter()
    if config.scenario == "fig4":
        _scenario_fig4(config, rows)
    else:
        curves = _CURVES[config.scenario](config)
        for engine in config.engines:
            rows[engine] = _curve_rows(config, engine, curves.get(engine, []), meter)
        if "mc" in meter:
            extras["mc_trials_per_s"] = len(curves["mc"]) * config.trials / meter["mc"]
    runtimes["total"] = time.perf_counter() - start
    runtimes.update(meter)

    written = []
    for engine, engine_rows in rows.items():
        if not engine_rows:
            continue
        path = out_dir / f"{config.scenario}_{engine}.csv"
        _write_csv(path, engine_rows)
        written.append(path)

    if config.scenario == "fig8" and "dominant" in config.engines:
        report_start = time.perf_counter()
        report = dominant.build_discrepancy_report(
            config.params, seed=config.seed, n_trials=min(config.trials, 200_000))
        report_path = out_dir / "discrepancies.json"
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
        runtimes["discrepancy_report"] = time.perf_counter() - report_start
        written.append(report_path)
        extras["discrepancy_report"] = report_path.name

    manifest = {
        "scenario": config.scenario,
        "config": config.to_flat(),
        "package": {"name": "mmwcov", "version": __version__},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "seed": config.seed,
        "runtimes_s": runtimes,
        "outputs": [p.name for p in written],
        "tolerance_flags": {
            "void_conditioning": "probability laws renormalized on a nonempty disk",
            "arbitrated_defaults": {
                "p1_exclusion": "all-beams",
                "p2_exclusion": "grid",
                "p2_gain_ratio_density": "negative exponential argument",
                "p3_distance_ratio_constant": "2/alpha",
                "p3_dominant_sir_pairing": "product",
            },
        },
        **extras,
    }
    manifest_path = out_dir / f"{config.scenario}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    written.append(manifest_path)
    return written
