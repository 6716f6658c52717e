"""End-to-end command-line runs on tiny problems."""

import csv

import pytest

import sisqo.harness
from sisqo.cli import main
from sisqo.engine import ConfigError, InvariantBreach, SolverConfig
from sisqo.harness import CSV_COLUMNS, load_results

# a QP small enough that every verb finishes in well under a second
_TINY = ["problem.n=6", "problem.m=2", "oracle.kind=exact",
         "harness.seeds=0", "harness.max_outer_iterations=60"]


def test_run_writes_results(tmp_path):
    out = tmp_path / "run.csv"
    code = main(["run", "-c", "qp_gaussian", "-o", str(out)] + _TINY)
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 2
    assert rows[1][1] == "sisqo"
    assert rows[1][-1] == "converged"


def test_run_single_seed_flag(tmp_path):
    out = tmp_path / "seeded.csv"
    code = main(["run", "-c", "qp_gaussian", "-o", str(out), "--seed", "7",
                 "harness.seeds=0 1 2"] + _TINY[:-2])
    assert code == 0
    loaded = load_results(str(out))
    assert [r.seed for r in loaded] == [7]


def test_compare_emits_both_strategies(tmp_path):
    out = tmp_path / "pairs.csv"
    code = main(["compare", "-c", "qp_gaussian", "-o", str(out),
                 "oracle.kind=gaussian", "oracle.eps_n=1e-2",
                 "problem.n=6", "problem.m=2", "harness.seeds=0",
                 "harness.max_outer_iterations=60"])
    assert code == 0
    loaded = load_results(str(out))
    assert sorted({r.strategy for r in loaded}) == ["sisqo", "sisqo_exact"]


def test_sweep_covers_noise_levels(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "-c", "qp_gaussian", "-o", str(out),
                 "oracle.kind=gaussian", "problem.n=6", "problem.m=2",
                 "harness.seeds=0", "harness.eps_n_list=1e-3 1e-2",
                 "harness.max_outer_iterations=60"])
    assert code == 0
    loaded = load_results(str(out))
    assert sorted({r.eps_n for r in loaded}) == [1e-3, 1e-2]
    assert len(loaded) == 4


def test_run_records_every_seed_when_one_breaches(tmp_path, monkeypatch):
    iterate = sisqo.harness.sqp_iterate

    def breach_on_seed_1(state, problem, oracle, cfg):
        if cfg.seed == 1:
            raise InvariantBreach("injected breach")
        return iterate(state, problem, oracle, cfg)

    monkeypatch.setattr(sisqo.harness, "sqp_iterate", breach_on_seed_1)
    out = tmp_path / "run.csv"
    code = main(["run", "-c", "qp_gaussian", "-o", str(out),
                 "harness.seeds=0 1 2"] + _TINY[:3] + _TINY[4:])
    assert code == 1
    loaded = load_results(str(out))
    assert [(r.seed, r.status) for r in loaded] == \
        [(0, "converged"), (1, "breach"), (2, "converged")]


def test_validate_passes_on_library_problems():
    assert main(["validate", "-c", "qp_gaussian"] + _TINY) == 0
    assert main(["validate", "-c", "control_finite_sum",
                 "problem.mesh_size=4"]) == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validate_fails_on_a_nan_error(capsys):
    # f overflows at the probes, so the finite-difference gradient and
    # its error are NaN, which no tolerance accepts
    assert main(["validate", "-c", "qp_gaussian",
                 "problem.curvature_floor=1e307"]) == 1
    out = capsys.readouterr().out
    assert "gradient  max relative error nan" in out
    assert "FAIL" in out


def test_bad_config_paths_exit_2(tmp_path):
    assert main(["run", "-c", "no_such_profile"]) == 2
    assert main(["run", "-c", "qp_gaussian", "bogus-override"]) == 2
    assert main(["run", "-c", "qp_gaussian", "solver.warp_factor=9"]) == 2
    assert main(["run", "-c", "qp_gaussian", "problem.kind=rosenbrock"]) == 2


def test_finite_sum_oracle_without_terms_exits_2(capsys):
    for verb in ("run", "validate"):
        assert main([verb, "-c", "qp_gaussian", "oracle.kind=finite_sum",
                     "problem.n=6", "problem.m=2"]) == 2
    assert "finite-sum terms" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    out = str(tmp_path / "run.csv")
    assert main(["run", "-c", "qp_gaussian", "-o", out, "--seed", "-3"]
                + _TINY) == 2
    assert main(["run", "-c", "qp_gaussian", "-o", out,
                 "harness.seeds=0 -1"] + _TINY[:3]) == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    ["algorithm.tau_init=nan"],
    ["algorithm.beta0=nan"],
    ["algorithm.lipschitz_mode=fixed", "algorithm.lip_l=nan"],
    ["harness.feasibility_tol=nan"],
])
def test_nan_settings_are_rejected(tmp_path, capsys, override):
    # "val <= 0.0" is false for NaN; validation must not read it that way
    key = override[-1].split(".")[1].split("=")[0]
    settings = {"lipschitz_mode": "fixed"} if len(override) == 2 else {}
    with pytest.raises(ConfigError, match=key):
        SolverConfig(**settings, **{key: float("nan")})
    out = str(tmp_path / "run.csv")
    assert main(["run", "-c", "qp_gaussian", "-o", out] + override
                + _TINY) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "nan"])
def test_validate_rejects_a_bad_lip_gamma_in_estimate_mode(capsys, value):
    # the qp_gaussian profile measures L along the step and reads Gamma
    # from lip_gamma: a negative or NaN value must not pass as "solver
    # config ok"
    assert main(["validate", "-c", "qp_gaussian",
                 f"algorithm.lip_gamma={value}"]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "lip_gamma" in captured.err
    assert "solver config ok" not in captured.out


def test_validate_names_both_lipschitz_modes(capsys):
    assert main(["validate", "-c", "qp_gaussian",
                 "algorithm.lipschitz_mode=estimate"]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "'fixed' or 'directional'" in captured.err
    assert "solver config ok" not in captured.out
    assert main(["validate", "-c", "control_finite_sum", "problem.mesh_size=4",
                 "algorithm.lipschitz_mode=directional"]) == 0
    assert "lipschitz_mode=directional" in capsys.readouterr().out


def test_run_in_directional_mode_on_a_control_problem(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["run", "-c", "control_finite_sum", "-o", str(out),
                 "problem.mesh_size=4", "harness.seeds=0",
                 "algorithm.lipschitz_mode=directional"]) == 0
    assert [r.status for r in load_results(str(out))] == ["converged"]


@pytest.mark.parametrize("value", ["5", "nan", "0", "1"])
def test_kappa_exact_out_of_range_exits_2(tmp_path, capsys, value):
    # the kappa of the near-exact runs of compare and sweep: validate
    # and run passed a value that compare then refused
    override = f"harness.kappa_exact={value}"
    assert main(["validate", "-c", "qp_gaussian", override]) == 2
    captured = capsys.readouterr()
    assert "kappa_exact must lie in (0, 1)" in captured.err
    assert "solver config ok" not in captured.out
    out = str(tmp_path / "run.csv")
    for verb in ("run", "compare"):
        assert main([verb, "-c", "qp_gaussian", "-o", out, override]
                    + _TINY) == 2
        assert "kappa_exact must lie in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("profile, overrides, message", [
    ("control_finite_sum", ["problem.mesh_size=4.5"], "mesh_size must be int"),
    ("control_finite_sum", ["problem.mesh_size=4", "oracle.eps_n=-1"],
     "noise parameters"),
    ("qp_gaussian", ["solver.kappa=abc"] + _TINY, "kappa must be float"),
    ("qp_gaussian", ["solver.kappa=true"] + _TINY, "kappa must be float"),
    ("qp_gaussian", _TINY + ["harness.seeds=1.5"], "seeds must be integers"),
])
def test_mistyped_and_invalid_settings_exit_2(tmp_path, capsys, profile,
                                              overrides, message):
    out = str(tmp_path / "run.csv")
    assert main(["run", "-c", profile, "-o", out] + overrides) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("verb, override, message", [
    ("validate", "harness.seedz=5", "unknown [harness] keys: ['seedz']"),
    ("validate", "oracle.epsn=3", "unknown [oracle] keys: ['epsn']"),
    ("run", "oracle.eps_n=abc", "eps_n must be float"),
    ("run", "harness.kappa_exact=abc", "kappa_exact must be float"),
    ("run", "harness.eps_n_list=1e-2 abc", "eps_n_list must be float"),
    ("run", "harness.output=1", "output must be str"),
    ("run", "oracle.eps_n=-1", "eps_n must be non-negative"),
])
def test_oracle_and_harness_keys_are_known_and_typed(tmp_path, capsys, verb,
                                                     override, message):
    # the qp_gaussian defaults: a Gaussian oracle, so a negative eps_n
    # meets no problem spec that would reject it
    out = str(tmp_path / "run.csv")
    args = [verb, "-c", "qp_gaussian", "problem.n=6", "problem.m=2",
            "harness.seeds=0", "harness.max_outer_iterations=5", override]
    if verb == "run":
        args[1:1] = ["-o", out]
    assert main(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("verb, profile, overrides, key", [
    ("run", "qp_gaussian", ["algorithm.tau_init=inf"], "tau_init"),
    ("run", "qp_gaussian", ["algorithm.eta=inf"], "eta"),
    ("run", "qp_gaussian", ["oracle.eps_n=inf"], "eps_n"),
    ("run", "qp_gaussian",
     ["algorithm.lip_l=inf", "algorithm.lipschitz_mode=fixed"], "lip_l"),
    ("run", "qp_gaussian", ["solver.kappa=inf"], "kappa"),
    ("run", "qp_gaussian", ["problem.cond_target=inf"], "cond_target"),
    # finite, but beyond what the QP generator can build
    ("run", "qp_gaussian", ["problem.cond_target=1e300"], "cond_target"),
    pytest.param("run", "qp_gaussian",
                 ["problem.curvature_floor=1e300", "problem.cond_target=1e10"],
                 "curvature_floor", marks=pytest.mark.filterwarnings(
                     "ignore::RuntimeWarning")),
    ("validate", "control_finite_sum", ["problem.regularization=inf"],
     "regularization"),
    ("validate", "control_finite_sum", ["problem.eps_s=inf"], "eps_s"),
    ("validate", "control_finite_sum", ["algorithm.beta0=inf"], "beta0"),
])
def test_non_finite_settings_exit_2(tmp_path, capsys, verb, profile,
                                    overrides, key):
    # a run on such a setting failed, "converged" or raised, and a
    # validation reported every check ok
    if verb == "run":
        args = [verb, "-c", profile, "-o", str(tmp_path / "run.csv"),
                "harness.seeds=0", "harness.max_outer_iterations=5"]
    else:
        args = [verb, "-c", profile, "problem.mesh_size=4"]
    args += overrides
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


def test_infinite_tolerances_set_no_bound(tmp_path):
    # unlike every other float setting, a tolerance may be inf: the
    # start point then converges
    out = str(tmp_path / "run.csv")
    assert main(["run", "-c", "qp_gaussian", "-o", out,
                 "harness.feasibility_tol=inf",
                 "harness.stationarity_tol=inf"] + _TINY) == 0
    [record] = load_results(out)
    assert record.status == "converged" and record.outer_iters == 0


def test_int_setting_is_accepted_as_float(tmp_path):
    out = str(tmp_path / "run.csv")
    assert main(["run", "-c", "qp_gaussian", "-o", out, "algorithm.beta0=1"]
                + _TINY) == 0


def test_unwritable_output_exits_1(tmp_path):
    out = tmp_path / "missing_dir" / "run.csv"
    code = main(["run", "-c", "qp_gaussian", "-o", str(out)] + _TINY)
    assert code == 1


def test_missing_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    capsys.readouterr()
