"""Profile loading, override syntax, and config-driven construction."""

import ast
import math
from collections.abc import Mapping
from dataclasses import fields
from pathlib import Path

import pytest

import sisqo
import sisqo.config
import sisqo.engine as engine
from sisqo import kernels
from sisqo.config import (SECTIONS, apply_overrides, available_profiles,
                          build_problem, build_solver_config, harness_settings,
                          load_config, oracle_settings)
from sisqo.engine import ConfigError, SolverConfig
from sisqo.library import (ControlProblemSpec, SyntheticQpSpec,
                           build_poisson_control, build_synthetic_qp)


def test_bundled_profiles_are_listed():
    names = available_profiles()
    assert "qp_gaussian" in names
    assert "control_finite_sum" in names


def test_qp_profile_round_trips_exact_floats():
    cfg = build_solver_config(load_config("qp_gaussian"))
    assert cfg.tau_init == cfg.eta == cfg.kappa == 0.1
    assert cfg.lipschitz_mode == "directional"
    assert cfg.lip_gamma == 0.0
    assert cfg.max_outer_iterations == 500
    assert cfg.feasibility_tol == 1e-6
    assert cfg.stationarity_tol == 1e-2


def test_control_profile_round_trips_exact_floats():
    config = load_config("control_finite_sum")
    cfg = build_solver_config(config)
    assert cfg.tau_init == 1e-4
    assert cfg.eta == 0.5
    assert cfg.kappa == 1e-4
    assert cfg.lipschitz_mode == "directional"
    assert cfg.lip_l == 1.0
    assert cfg.lip_gamma == 0.0
    assert config["problem"]["eps_s"] == math.sqrt(15.0)


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[problem]\nkind = synthetic_qp\nn = 6\nm = 2\n"
                    "[oracle]\nkind = exact\n")
    config = load_config(str(path))
    assert config["problem"]["kind"] == "synthetic_qp"
    assert config["problem"]["n"] == 6
    assert isinstance(config["problem"]["n"], int)
    assert config["oracle"]["kind"] == "exact"


def test_load_config_rejects_missing_source():
    with pytest.raises(ConfigError, match="neither a readable file"):
        load_config("no_such_profile")


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[tuning]\nfoo = 1\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[tuning\]"):
        load_config(str(path))


def test_apply_overrides_coerces_and_creates_sections():
    config = {"problem": {"kind": "synthetic_qp"}}
    apply_overrides(config, ["problem.n=12", "oracle.eps_n=1e-3",
                             "algorithm.debug_checks=true",
                             "harness.output=out.json"])
    assert config["problem"]["n"] == 12
    assert config["oracle"]["eps_n"] == 1e-3
    assert config["algorithm"]["debug_checks"] is True
    assert config["harness"]["output"] == "out.json"


def test_apply_overrides_rejects_malformed_pairs():
    with pytest.raises(ConfigError, match="not section.key=value"):
        apply_overrides({}, ["problem.n"])
    with pytest.raises(ConfigError, match="not section.key=value"):
        apply_overrides({}, ["n=12"])
    with pytest.raises(ConfigError, match="unknown override section"):
        apply_overrides({}, ["tuning.n=12"])


def test_build_problem_synthetic_qp():
    config = {"problem": {"kind": "synthetic_qp", "n": 8, "m": 3,
                          "problem_seed": 5}}
    problem = build_problem(config)
    assert problem.n == 8
    assert problem.m == 3


def test_build_problem_defaults_are_the_spec_defaults():
    def same(a, b):
        return (a.x0.tobytes() == b.x0.tobytes()
                and a.eval_grad_f(a.x0).tobytes()
                == b.eval_grad_f(b.x0).tobytes())

    qp = build_problem({"problem": {"kind": "synthetic_qp"}})
    assert (qp.n, qp.m) == (40, 15)
    assert same(qp, build_synthetic_qp(SyntheticQpSpec()))
    control = build_problem({"problem": {"kind": "poisson_control"},
                             "oracle": {"eps_n": 1e-2}})
    assert same(control, build_poisson_control(ControlProblemSpec()))


def test_build_problem_controls_take_eps_n_from_oracle():
    config = {"problem": {"kind": "poisson_control", "mesh_size": 4,
                          "n_terms": 3},
              "oracle": {"kind": "finite_sum", "eps_n": 0.25}}
    problem = build_problem(config)
    assert problem.n == 2 * 16
    assert problem.info["eps_n"] == 0.25
    assert problem.info["mesh_size"] == 4

    config["problem"]["kind"] = "neumann_control"
    config["problem"]["mesh_size"] = 3
    problem = build_problem(config)
    assert problem.m == 25
    assert problem.info["eps_n"] == 0.25


def test_build_problem_controls_default_eps_n_is_the_oracle_default():
    # without oracle.eps_n the problem data, the run record and the
    # sweep all use the one default
    config = {"problem": {"kind": "poisson_control", "mesh_size": 4},
              "oracle": {"kind": "finite_sum"}}
    problem = build_problem(config)
    _, eps_n = oracle_settings(config)
    assert problem.info["eps_n"] == eps_n == 0.0
    assert harness_settings(config)["eps_n_list"] == [eps_n]


def test_build_problem_rejects_unknown_keys_and_kind():
    with pytest.raises(ConfigError, match=r"unknown \[problem\] keys"):
        build_problem({"problem": {"kind": "synthetic_qp", "mesh_size": 4}})
    with pytest.raises(ConfigError, match=r"unknown \[problem\] keys"):
        build_problem({"problem": {"kind": "poisson_control", "n": 8}})
    # the QP's seed is problem_seed; a control problem's eps_n is the
    # oracle's
    with pytest.raises(ConfigError, match=r"unknown \[problem\] keys"):
        build_problem({"problem": {"kind": "synthetic_qp", "seed": 1}})
    with pytest.raises(ConfigError, match=r"unknown \[problem\] keys"):
        build_problem({"problem": {"kind": "poisson_control", "eps_n": 1}})
    with pytest.raises(ConfigError, match="unknown problem kind"):
        build_problem({"problem": {"kind": "rosenbrock"}})
    with pytest.raises(ConfigError, match="unknown problem kind"):
        build_problem({})


def test_build_solver_config_extra_wins():
    config = load_config("qp_gaussian")
    cfg = build_solver_config(config, kappa=0.5, seed=9)
    assert cfg.kappa == 0.5
    assert cfg.seed == 9


def test_algorithm_kappa_is_the_run_kappa():
    config = apply_overrides(load_config("qp_gaussian"),
                             ["algorithm.kappa=0.5"])
    assert build_solver_config(config).kappa == 0.5


@pytest.mark.parametrize("key, value", [
    ("max_outer_iterations", 7), ("feasibility_tol", 0.3),
    ("stationarity_tol", 0.3), ("seed", 9)])
def test_outer_loop_keys_and_the_seed_are_not_algorithm_keys(key, value):
    # the outer loop's keys are [harness] keys, and a run's seed comes
    # from harness.seeds or --seed
    config = apply_overrides(load_config("qp_gaussian"),
                             [f"algorithm.{key}={value}"])
    with pytest.raises(ConfigError,
                       match=rf"unknown \[algorithm\] keys: \['{key}'\]"):
        build_solver_config(config)


def test_the_seed_is_not_a_harness_key():
    config = apply_overrides(load_config("qp_gaussian"), ["harness.seed=7"])
    with pytest.raises(ConfigError,
                       match=r"unknown \[harness\] keys: \['seed'\]"):
        harness_settings(config)


def test_solver_is_not_a_section(tmp_path):
    with pytest.raises(ConfigError, match="unknown override section 'solver'"):
        apply_overrides(load_config("qp_gaussian"), ["solver.kappa=0.5"])
    path = tmp_path / "old.ini"
    path.write_text("[solver]\nkappa = 0.5\n")
    with pytest.raises(ConfigError,
                       match=r"unknown config section \[solver\]"):
        load_config(str(path))


def test_build_solver_config_rejects_unknown_keys():
    config = {"algorithm": {"kappa": 0.1, "warp_factor": 9}}
    with pytest.raises(ConfigError, match=r"unknown \[algorithm\] keys"):
        build_solver_config(config)
    with pytest.raises(ConfigError, match="warp_factor"):
        build_solver_config({}, warp_factor=9)


# the implementation tolerances that were keys of the former [solver]
_FORMER_SOLVER_KEYS = ("cg_rel_tol", "cg_abs_floor", "minres_abs_floor",
                       "minres_max_iter_scale", "ls_multiplier_tol",
                       "max_rung", "stationary_tol")


@pytest.mark.parametrize("section, key", [
    ("algorithm", "lip_floor"), ("algorithm", "probe_radius_scale"),
    *((section, key) for section in ("solver", "algorithm")
      for key in _FORMER_SOLVER_KEYS),
    *(("algorithm", key) for key in (
        "xi_init", "eps_c", "eps_u", "sigma_u", "sigma_c", "eps_tau",
        "eps_xi", "kappa_rho", "kappa_r", "kappa_u", "kappa_v", "theta",
        "eps_r"))])
def test_fixed_tolerances_are_not_settings(section, key):
    # [solver] is no section any more, and [algorithm] takes only the
    # method's settings
    message = ("unknown override section 'solver'" if section == "solver"
               else rf"unknown \[{section}\] keys.*{key}")
    with pytest.raises(ConfigError, match=message):
        build_solver_config(apply_overrides(load_config("qp_gaussian"),
                                            [f"{section}.{key}=1"]))


def test_method_constants_meet_the_theory():
    # what the convergence analysis asks of the parameters no run sets;
    # the profiles set them to these values before they became constants
    for value in (kernels.SIGMA_C, kernels.SIGMA_U, engine.EPS_TAU,
                  engine.EPS_XI):
        assert 0.0 < value < 1.0
    assert 0.0 < kernels.SIGMA_C < kernels.EPS_R <= 1.0
    assert 0.0 < engine.EPS_C <= 1.0
    for value in (engine.XI_INIT, kernels.EPS_U, kernels.KAPPA_RHO,
                  kernels.KAPPA_R, kernels.KAPPA_U, kernels.KAPPA_V,
                  engine.THETA):
        assert 0.0 < value < math.inf
    assert (kernels.SIGMA_U, kernels.EPS_R) == (0.999999999999, 0.9999)


@pytest.mark.parametrize("settings, key", [
    ({"eta": 0.0}, "eta"), ({"eta": 1.0}, "eta"),
    ({"kappa": 0.0}, "kappa"), ({"kappa": 1.0}, "kappa"),
    ({"beta0": 0.0}, "beta0"), ({"beta0": 1.5}, "beta0"),
    ({"beta_mode": "linear"}, "beta_mode"),
    ({"lipschitz_mode": "guess"}, "lipschitz_mode"),
    ({"lipschitz_mode": "fixed", "lip_gamma": -1.0}, "lip_gamma"),
    ({"lipschitz_mode": "fixed", "lip_gamma": math.nan}, "lip_gamma"),
    # 2(1 - eta) beta0 xi0 tau0 / lip_gamma = 1.8 and 0
    ({"lipschitz_mode": "fixed", "lip_gamma": 0.1}, "lip_gamma"),
    ({"lipschitz_mode": "fixed", "lip_gamma": math.inf}, "lip_gamma"),
    ({"max_outer_iterations": -1}, "max_outer_iterations"),
    # a former mode is rejected, not read as another
    ({"lipschitz_mode": "estimate"}, "lipschitz_mode"),
    # directional mode reads lip_gamma as fixed mode does
    ({"lipschitz_mode": "directional", "lip_gamma": -1.0}, "lip_gamma"),
    ({"lipschitz_mode": "directional", "lip_gamma": 0.1}, "lip_gamma"),
])
def test_out_of_range_settings_are_rejected(settings, key):
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        build_solver_config({}, **settings)


def test_directional_mode_is_the_default_and_takes_a_gamma():
    assert SolverConfig().lipschitz_mode == "directional"
    # 2(1 - eta) beta0 xi0 tau0 / lip_gamma = 0.36
    cfg = build_solver_config({"algorithm": {"lipschitz_mode": "directional",
                                             "lip_gamma": 0.5}})
    assert (cfg.lipschitz_mode, cfg.lip_gamma) == ("directional", 0.5)


def test_negative_seeds_are_rejected():
    with pytest.raises(ConfigError, match="non-negative"):
        build_solver_config(load_config("qp_gaussian"), seed=-3)
    with pytest.raises(ConfigError, match="non-negative"):
        harness_settings({"harness": {"seeds": "0 -1 2"}})


@pytest.mark.parametrize("key", ["seeds", "eps_n_list"])
@pytest.mark.parametrize("value", ["", " , "])
def test_empty_run_lists_are_rejected(key, value):
    # a run or sweep over no seed or no noise level writes nothing
    with pytest.raises(ConfigError, match=f"{key} must list at least one"):
        harness_settings({"harness": {key: value}})


def test_finite_sum_oracle_needs_finite_sum_terms():
    config = apply_overrides(load_config("qp_gaussian"),
                             ["oracle.kind=finite_sum"])
    with pytest.raises(ConfigError, match="finite-sum terms"):
        build_problem(config)
    config = apply_overrides(load_config("control_finite_sum"),
                             ["problem.mesh_size=4"])
    assert build_problem(config).term_grid is not None


def test_oracle_settings_defaults_and_validation():
    assert oracle_settings({}) == ("gaussian", 0.0)
    kind, eps_n = oracle_settings({"oracle": {"kind": "exact"}})
    assert kind == "exact"
    assert eps_n == 0.0
    kind, eps_n = oracle_settings(
        {"oracle": {"kind": "finite_sum", "eps_n": 1e-2}})
    assert kind == "finite_sum"
    assert eps_n == 1e-2
    with pytest.raises(ConfigError, match="unknown oracle kind"):
        oracle_settings({"oracle": {"kind": "bootstrap"}})


def test_harness_settings_parses_lists():
    settings = harness_settings(load_config("control_finite_sum"))
    assert settings["seeds"] == list(range(10))
    assert settings["eps_n_list"] == [1e-4, 1e-2, 1e-1]
    assert settings["kappa_exact"] == 1e-7
    assert settings["output"] == "results.csv"


def test_harness_settings_defaults_and_scalars():
    settings = harness_settings({})
    assert settings == {"seeds": [0], "eps_n_list": [0.0],
                        "kappa_exact": 1e-7, "output": "results.csv"}
    settings = harness_settings({"harness": {"seeds": 4,
                                             "eps_n_list": "1e-3, 1e-1"}})
    assert settings["seeds"] == [4]
    assert settings["eps_n_list"] == [1e-3, 1e-1]


def test_every_solver_config_field_is_read():
    # a field that only __post_init__ validates is a knob no code path
    # reads; reads are matched by attribute name anywhere in the package
    read = set()
    for path in Path(sisqo.__file__).parent.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        validation = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "SolverConfig":
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and item.name == "__post_init__":
                        validation.update(map(id, ast.walk(item)))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in validation)
    unread = [f.name for f in fields(SolverConfig) if f.name not in read]
    assert unread == []


_CONSUMERS = ("build_problem", "oracle_settings", "build_solver_config",
              "harness_settings")


class _Recorded(Mapping):
    """A config section that records in ``reads``, under (section, key),
    the consumers that read a key's value: the innermost of ``active``."""

    def __init__(self, section, values, active, reads):
        self._section, self._values = section, values
        self._active, self._reads = active, reads

    def __getitem__(self, key):
        value = self._values[key]
        self._reads.setdefault((self._section, key), set()).add(
            self._active[-1])
        return value

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


def test_every_setting_has_one_key(monkeypatch):
    # each key of a bundled profile is read by one consumer, and each
    # SolverConfig field but the run seed is a key of one section: the
    # method's of [algorithm], the outer loop's of [harness]
    active = []
    for name in _CONSUMERS:
        def tagged(config, fn=getattr(sisqo.config, name), name=name, **kw):
            active.append(name)
            try:
                return fn(config, **kw)
            finally:
                active.pop()
        monkeypatch.setattr(sisqo.config, name, tagged)
    solver_reads = set()
    for profile in available_profiles():
        reads = {}
        config = {section: _Recorded(section, values, active, reads)
                  for section, values in load_config(profile).items()}
        for name in _CONSUMERS:
            getattr(sisqo.config, name)(config)
        assert set(reads) == {(section, key) for section in config
                              for key in config[section]}
        assert {key: len(by) for key, by in reads.items()
                if len(by) != 1} == {}
        solver_reads |= {key for key, by in reads.items()
                         if by == {"build_solver_config"}}

    def accepts(section, key, value):
        config = load_config("qp_gaussian")
        config.setdefault(section, {})[key] = value
        try:
            for name in _CONSUMERS:
                getattr(sisqo.config, name)(config)
        except ConfigError:
            return False
        return True

    defaults = SolverConfig()
    spellings = {(section, f.name) for f in fields(SolverConfig)
                 for section in SECTIONS
                 if accepts(section, f.name, getattr(defaults, f.name))}
    # 11 spellings, one per field but the seed
    assert sorted(key for _, key in spellings) == sorted(
        f.name for f in fields(SolverConfig) if f.name != "seed")
    # the profiles set all but lip_l, read only by lipschitz_mode =
    # fixed: no profile selects the paper's fixed L any more, but it stays
    # the reference that test_the_control_profile_measures_l_along_the_step
    # measures the shipped rule against (ROADMAP item 14 asks whether it
    # stays)
    assert solver_reads == spellings - {("algorithm", "lip_l")}
