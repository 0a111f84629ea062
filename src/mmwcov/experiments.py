"""Experiment orchestration: scenario definitions, config parsing, CSV/JSON output.

The config format is flat ``key = value`` text with dotted sections.  dB/dBm
quantities are converted to linear units here, at the boundary; every engine
exchanges linear units only.  Any key can also be overridden through the
environment as ``MMWCOV_<KEY>`` with dots replaced by double underscores
(e.g. ``MMWCOV_CHANNEL__ALPHA_L=2.2``).

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
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .radio import AntennaConfig, ChannelParams, NetworkParams, dbm_to_watts, watts_to_dbm
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
        if not self.engines:
            raise ConfigError("at least one engine is required")
        for e in self.engines:
            if e not in _ENGINES:
                raise ConfigError(f"unknown engine {e!r}; expected a subset of {_ENGINES}")
        for p in self.policies:
            if p not in ("P1", "P2", "P3"):
                raise ConfigError(f"unknown policy {p!r}")
        if self.trials < 1:
            raise ConfigError("run.trials must be at least 1")
        if self.workers < 1:
            raise ConfigError("run.workers must be at least 1")
        if not 0 <= self.seed < 2**128:
            raise ConfigError(f"run.seed must lie in [0, 2**128) (got {self.seed!r})")
        if len(self.gamma_grid_db) > 1 and any(
                b <= a for a, b in zip(self.gamma_grid_db, self.gamma_grid_db[1:])):
            raise ConfigError("grid.gamma_db must be strictly increasing")

    def to_flat(self) -> dict:
        """Canonical flat key/value form; the fixed point of validate_config."""
        ant, ch = self.params.antenna, self.params.channel
        return {
            "scenario": self.scenario,
            "network.density": repr(self.params.density),
            "antenna.g_max_db": repr(ant.g_max_db),
            "antenna.sla_db": repr(ant.sla_db),
            "antenna.sectors_exp": str(ant.sectors_exp),
            "antenna.phi_3db": repr(ant.phi_3db),
            "channel.alpha_l": repr(ch.alpha_l),
            "channel.f_c": repr(ch.f_c),
            "channel.m_s": str(ch.m_s),
            "channel.m_x": str(ch.m_x),
            "channel.r_los": repr(ch.r_los),
            "channel.tx_power_dbm": repr(float(watts_to_dbm(ch.tx_power_w))),
            "channel.noise_dbm": repr(float(watts_to_dbm(ch.noise_w))),
            "run.engines": ",".join(self.engines),
            "run.policies": ",".join(self.policies),
            "run.seed": str(self.seed),
            "run.trials": str(self.trials),
            "run.workers": str(self.workers),
            "run.out_dir": self.out_dir,
            "run.strict": "true" if self.strict else "false",
            "grid.gamma_db": ",".join(repr(g) for g in self.gamma_grid_db),
            "grid.fig7_gamma_db": repr(self.fig7_gamma_db),
            "sweep.density": ",".join(repr(d) for d in self.density_sweep),
            "sweep.sectors": ",".join(str(s) for s in self.sector_sweep),
        }


_KNOWN_KEYS = tuple(ExperimentConfig().to_flat().keys())
# Infinite values a float key may take: -inf dBm is no noise at all, and an
# infinite threshold is certain or impossible coverage.  NaN is never valid.
_INFINITIES = {"channel.noise_dbm": (-math.inf,),
               "grid.gamma_db": (-math.inf, math.inf),
               "grid.fig7_gamma_db": (-math.inf, math.inf)}


def _parse_value(key: str, raw: str, where: str):
    def err(msg):
        return ConfigError(f"{where}: {key} {msg}")

    try:
        if key in ("scenario", "run.out_dir"):
            return raw
        if key == "run.strict":
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise err("must be a boolean (true/false)")
        if key in ("run.engines", "run.policies"):
            return tuple(part.strip().lower() if key == "run.engines" else part.strip().upper()
                         for part in raw.split(",") if part.strip())
        if key == "sweep.sectors":
            return tuple(int(part) for part in raw.split(",") if part.strip())
        if key in ("antenna.sectors_exp", "channel.m_s", "channel.m_x",
                   "run.seed", "run.trials", "run.workers"):
            return int(raw)
        if key in ("grid.gamma_db", "sweep.density"):
            value = tuple(float(part) for part in raw.split(",") if part.strip())
        else:
            value = float(raw)
        for v in value if isinstance(value, tuple) else (value,):
            if not (math.isfinite(v) or v in _INFINITIES.get(key, ())):
                raise err(f"must not be {v!r}")
        return value
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise err(f"has an unparseable value {raw!r}") from None


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
        if key in _KNOWN_KEYS:
            values[key] = _parse_value(key, raw, where)
            locations[key] = where
    # unknown keys are judged once every pair is read, so that strictness
    # does not depend on where run.strict appears
    for where, key, raw in pairs:
        if key not in _KNOWN_KEYS:
            suggestion = difflib.get_close_matches(key, _KNOWN_KEYS, n=1, cutoff=0.4)
            hint = f"; did you mean {suggestion[0]!r}?" if suggestion else ""
            message = f"{where}: unknown key {key!r}{hint}"
            if strict or values.get("run.strict", False):
                raise ConfigError(message)
            warnings.warn(message, stacklevel=2)

    def rng_check(key, ok, msg):
        if key in values and not ok(values[key]):
            raise ConfigError(f"{locations[key]}: {key} {msg} (got {values[key]!r})")

    rng_check("network.density", lambda v: v > 0, "must be positive")
    rng_check("channel.alpha_l", lambda v: v > 0, "must be positive")
    rng_check("channel.r_los", lambda v: v > 0, "must be positive")
    rng_check("channel.f_c", lambda v: v > 0, "must be positive")
    rng_check("antenna.sectors_exp", lambda v: 0 <= v <= 8, "must lie in [0, 8]")
    rng_check("sweep.density", lambda v: all(d > 0 for d in v), "must all be positive")
    rng_check("sweep.sectors", lambda v: all(0 <= m <= 8 for m in v), "must all lie in [0, 8]")
    rng_check("antenna.sla_db", lambda v: v > 0, "must be positive")
    rng_check("antenna.phi_3db", lambda v: 0 < v <= 2 * math.pi, "must lie in (0, 2*pi]")
    rng_check("channel.m_s", lambda v: v >= 1, "must be at least 1")
    rng_check("channel.m_x", lambda v: v >= 1, "must be at least 1")
    rng_check("run.trials", lambda v: v >= 1, "must be at least 1")
    rng_check("run.workers", lambda v: v >= 1, "must be at least 1")
    rng_check("run.seed", lambda v: 0 <= v < 2**128, "must lie in [0, 2**128)")

    base = ExperimentConfig()
    antenna_kwargs = dict(
        g_max_db=values.get("antenna.g_max_db", base.params.antenna.g_max_db),
        sla_db=values.get("antenna.sla_db", base.params.antenna.sla_db),
        sectors_exp=values.get("antenna.sectors_exp", base.params.antenna.sectors_exp),
    )
    if "antenna.phi_3db" in values:
        antenna_kwargs["phi_3db"] = values["antenna.phi_3db"]
    channel = ChannelParams(
        alpha_l=values.get("channel.alpha_l", base.params.channel.alpha_l),
        f_c=values.get("channel.f_c", base.params.channel.f_c),
        m_s=values.get("channel.m_s", base.params.channel.m_s),
        m_x=values.get("channel.m_x", base.params.channel.m_x),
        r_los=values.get("channel.r_los", base.params.channel.r_los),
        tx_power_w=float(dbm_to_watts(values["channel.tx_power_dbm"]))
        if "channel.tx_power_dbm" in values else base.params.channel.tx_power_w,
        noise_w=float(dbm_to_watts(values["channel.noise_dbm"]))
        if "channel.noise_dbm" in values else base.params.channel.noise_w,
    )
    params = NetworkParams(
        density=values.get("network.density", base.params.density),
        antenna=AntennaConfig(**antenna_kwargs),
        channel=channel,
    )
    config = ExperimentConfig(
        scenario=values.get("scenario", base.scenario),
        params=params,
        engines=values.get("run.engines", base.engines),
        policies=values.get("run.policies", base.policies),
        seed=values.get("run.seed", base.seed),
        trials=values.get("run.trials", base.trials),
        workers=values.get("run.workers", base.workers),
        out_dir=values.get("run.out_dir", base.out_dir),
        strict=values.get("run.strict", strict),
        gamma_grid_db=values.get("grid.gamma_db", base.gamma_grid_db),
        fig7_gamma_db=values.get("grid.fig7_gamma_db", base.fig7_gamma_db),
        density_sweep=values.get("sweep.density", base.density_sweep),
        sector_sweep=values.get("sweep.sectors", base.sector_sweep),
    )
    _check_runnable(config, locations)
    return config


def _check_runnable(config: ExperimentConfig, locations: dict) -> None:
    """Refuse a config whose run would fail before it computes anything,
    naming the key and its ``locations`` entry: a field too dense for the
    chunk budget (mc, or fig8's report), or an antenna that the P1
    serving-power law (analytic P1 and fig4, or fig8's report) cannot take."""
    mc = "mc" in config.engines
    report = config.scenario == "fig8" and "dominant" in config.engines
    drawn = [("network.density", config.params.density)] if mc or report else []
    drawn += [("sweep.density", density) for density in config.density_sweep] if mc else []
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


def _linear(grid_db) -> np.ndarray:
    """Linear thresholds of a grid in dB, by Python's scalar power: numpy's
    array ``**`` can differ from it in the last bit."""
    return np.array([10.0 ** (g_db / 10.0) for g_db in grid_db])


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
            gammas = _linear(members[0].grid_db)
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

    import scipy        # here, where its version is read, not in every process's setup

    manifest = {
        "scenario": config.scenario,
        "config": config.to_flat(),
        "package": {"name": "mmwcov", "version": __version__},
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
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
