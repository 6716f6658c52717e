"""INI configuration: named profiles, file loading, overrides, and
construction of problems / solver settings from a parsed config.

A config is a plain dict of sections {problem, oracle, algorithm,
solver, harness}, each a dict of coerced values.  Overrides use
``section.key=value`` syntax.  An unknown key, a value of the wrong
type and a value out of range are ConfigErrors, in every section.
"""

import configparser
from dataclasses import fields
from importlib import resources

import numpy as np

from .engine import ConfigError, SolverConfig
from .library import (ControlProblemSpec, SyntheticQpSpec,
                      build_neumann_control, build_poisson_control,
                      build_synthetic_qp)

__all__ = ["load_config", "apply_overrides", "build_problem",
           "build_solver_config", "oracle_settings", "harness_settings",
           "available_profiles", "SECTIONS"]

SECTIONS = ("problem", "oracle", "algorithm", "solver", "harness")

_BOOL = {"true": True, "false": False, "yes": True, "no": False}

# the [harness] keys that SolverConfig takes, and all of them
_SOLVER_HARNESS_KEYS = ("feasibility_tol", "stationarity_tol",
                        "max_outer_iterations", "seed")
_HARNESS_KEYS = ("seeds", "eps_n_list", "kappa_exact", "output",
                 *_SOLVER_HARNESS_KEYS)


def _coerce(text):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return _BOOL.get(text.lower(), text)


def available_profiles():
    pkg = resources.files("sisqo.profiles")
    return sorted(p.name[:-4] for p in pkg.iterdir() if p.name.endswith(".ini"))


def load_config(source):
    """Parse an INI file path, or a bundled profile name."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    names = available_profiles()
    if source in names:
        text = resources.files("sisqo.profiles") \
            .joinpath(f"{source}.ini").read_text()
        parser.read_string(text, source=source)
    else:
        read = parser.read(source)
        if not read:
            raise ConfigError(f"config {source!r} is neither a readable file"
                              f" nor a profile ({', '.join(names)})")
    config = {}
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown config section [{section}]; expected"
                              f" one of {SECTIONS}")
        config[section] = {k: _coerce(v) for k, v in parser[section].items()}
    return config


def apply_overrides(config, pairs):
    """Apply ``section.key=value`` strings on top of a config dict."""
    for pair in pairs:
        head, sep, value = pair.partition("=")
        if not sep or "." not in head:
            raise ConfigError(f"override {pair!r} is not section.key=value")
        section, key = head.split(".", 1)
        if section not in SECTIONS:
            raise ConfigError(f"unknown override section {section!r}")
        config.setdefault(section, {})[key.strip()] = _coerce(value)
    return config


def build_problem(config):
    """Instantiate the configured problem.

    The control problems take their reference-state spread from the
    oracle's eps_n, so the one knob drives both the data and the noise.
    A finite-sum oracle needs a problem made of finite-sum terms.
    """
    section = dict(config.get("problem", {}))
    kind = section.pop("kind", None)
    if kind == "synthetic_qp":
        spec = _spec(SyntheticQpSpec, section, {"seed": "problem_seed"})
        try:
            problem = build_synthetic_qp(spec)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise ConfigError(f"no QP for {spec}: {exc}") from exc
    elif kind in ("poisson_control", "neumann_control"):
        spec = _spec(ControlProblemSpec, section, {},
                     eps_n=oracle_settings(config)[1])
        build = build_poisson_control if kind == "poisson_control" \
            else build_neumann_control
        problem = build(spec)
    else:
        raise ConfigError(f"unknown problem kind {kind!r}")
    if oracle_settings(config)[0] == "finite_sum" and problem.term_grid is None:
        raise ConfigError(f"oracle kind finite_sum needs finite-sum terms;"
                          f" problem kind {kind!r} has none")
    return problem


def _spec(spec_cls, section, renamed, **fixed):
    """``spec_cls`` from the [problem] keys in ``section``: one key per
    field not in ``fixed``, under its ``renamed`` name if it has one; the
    spec's own defaults fill in missing keys."""
    fields_by_key = {renamed.get(f.name, f.name): f.name
                     for f in fields(spec_cls) if f.name not in fixed}
    _check_keys("problem", section, fields_by_key)
    return _build(spec_cls,
                  {fields_by_key[k]: v for k, v in section.items()}, **fixed)


def _check_keys(name, section, known):
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown [{name}] keys: {sorted(unknown)}")


def _check_type(key, value, want):
    """``value`` when it has type ``want`` (an int stands for a float,
    and only a bool for a bool), else a ConfigError."""
    if isinstance(value, bool):
        ok = want is bool
    else:
        ok = isinstance(value, want) or (want is float
                                         and isinstance(value, int))
    if not ok:
        raise ConfigError(f"{key} must be {want.__name__}, got {value!r}")
    return value


def _build(cls, kwargs, **fixed):
    """``cls(**kwargs, **fixed)`` once each value in ``kwargs`` has the
    type of its dataclass field; a wrong type and a ValueError of ``cls``
    itself are ConfigErrors."""
    types = {f.name: f.type for f in fields(cls)}
    for key, value in kwargs.items():
        _check_type(key, value, types[key])
    try:
        return cls(**kwargs, **fixed)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_solver_config(config, **extra):
    """SolverConfig from the [algorithm] and [solver] sections plus the
    outer-loop knobs of [harness]; ``extra`` wins over everything."""
    kwargs = {}
    kwargs.update(config.get("algorithm", {}))
    kwargs.update(config.get("solver", {}))
    harness = config.get("harness", {})
    for key in _SOLVER_HARNESS_KEYS:
        if key in harness:
            kwargs[key] = harness[key]
    kwargs.update(extra)
    valid = {f.name for f in fields(SolverConfig)}
    unknown = set(kwargs) - valid
    if unknown:
        raise ConfigError(f"unknown solver settings: {sorted(unknown)}")
    _check_seeds([kwargs.get("seed", 0)])
    return _build(SolverConfig, kwargs)


def _check_seeds(seeds):
    not_int = [s for s in seeds if type(s) is not int]
    if not_int:
        raise ConfigError(f"seeds must be integers, got {not_int}")
    negative = [s for s in seeds if s < 0]
    if negative:
        raise ConfigError(f"seeds must be non-negative, got {negative}")
    return seeds


def _noise_level(key, value):
    """``value`` as a float when it is a finite non-negative number."""
    if not 0.0 <= _check_type(key, value, float) < np.inf:
        raise ConfigError(f"bad noise parameters: {key} must be"
                          f" non-negative and finite, got {value!r}")
    return float(value)


def oracle_settings(config):
    """(kind, eps_n) of the [oracle] section."""
    section = config.get("oracle", {})
    _check_keys("oracle", section, ("kind", "eps_n"))
    kind = section.get("kind", "gaussian")
    if kind not in ("gaussian", "finite_sum", "exact"):
        raise ConfigError(f"unknown oracle kind {kind!r}")
    return kind, _noise_level("eps_n", section.get("eps_n", 0.0))


def _as_list(value):
    if isinstance(value, (int, float)):
        return [value]
    return [_coerce(tok) for tok in str(value).replace(",", " ").split()]


def harness_settings(config):
    """Sweep and output settings with defaults filled in.  The keys that
    SolverConfig takes are typed when it is built; ``seed`` is checked
    here too, as a run's seed list replaces it."""
    section = config.get("harness", {})
    _check_keys("harness", section, _HARNESS_KEYS)
    seed = _check_seeds([section.get("seed", 0)])
    levels = section.get("eps_n_list", oracle_settings(config)[1])
    # the kappa of the near-exact runs, in the range of SolverConfig.kappa
    kappa_exact = _check_type("kappa_exact", section.get("kappa_exact", 1e-7),
                              float)
    if not 0.0 < kappa_exact < 1.0:
        raise ConfigError(f"kappa_exact must lie in (0, 1), got {kappa_exact}")
    return {
        "seeds": _check_seeds(_as_list(section.get("seeds", seed[0]))),
        "eps_n_list": [_noise_level("eps_n_list", v)
                       for v in _as_list(levels)],
        "kappa_exact": kappa_exact,
        "output": _check_type("output", section.get("output", "results.csv"),
                              str),
    }
