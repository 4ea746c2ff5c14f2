import ast
import dataclasses
import enum
import errno
import inspect
import itertools
import json
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml

import driftlab
from driftlab import cli, experiments, simulator
from driftlab.classifier import classify_mv_critical, classify_theorem1, ratio_family_chain
from driftlab.cli import ConfigError, main, parse_config
from driftlab.fields import (
    Constant1,
    CriticalLamperti,
    DriftField,
    ExponentialMean1,
    GammaMean1,
    JumpLaw,
    MeanReverting,
    PowerLaw,
    Tabulated,
    UniformMean1,
    Zero,
)


def write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


CLASSIFY_CL3 = """\
command: classify
field:
  family: critical_lamperti
  c: 3.0
"""

# every command (and check kind), sized to run in well under a second
SEEDED_CONFIGS = {
    "classify": "command: classify\n",
    "simulate": "command: simulate\nsimulate: {horizon: 20.0}\n",
    "bd-oracle": "command: bd-oracle\nfield: {family: critical_lamperti, c: 3.0}\n"
                 "bd-oracle: {n_max: 200}\n",
    "experiment": "command: experiment\nworkers: 1\n"
                  "experiment: {n_paths: 20, horizon: 100.0, level: 4.0}\n",
    "check-wald": "command: check\ncheck: {kind: wald, n_paths: 100}\n",
    "check-martingale": "command: check\ncheck: {kind: martingale, n_paths: 100}\n",
    "check-balance": "command: check\nfield: {family: mean_reverting, kappa: 0.2}\n"
                     "check: {kind: balance, total_time: 1000.0}\n",
}

TABLE = dict(x_grid=[0.0, 10.0], t_grid=[0.0, 50.0], values=[[0.3, 0.2], [0.1, 0.0]])

# (config section, the object it builds) for every family and law
FIELD_SECTIONS = [
    ({"family": "zero"}, Zero()),
    ({"family": "zero", "x_floor": 2.5}, Zero(x_floor=2.5)),
    ({"family": "critical_lamperti", "c": 3.0}, CriticalLamperti(c=3.0)),
    (
        {"family": "power_law", "rho": 0.5, "alpha": 0.5, "beta": 0.75, "x_floor": 0.5},
        PowerLaw(rho=0.5, alpha=0.5, beta=0.75, x_floor=0.5),
    ),
    ({"family": "mean_reverting", "kappa": 0.2}, MeanReverting(kappa=0.2)),
    ({"family": "tabulated", **TABLE, "x_floor": 3.0}, Tabulated(**TABLE, x_floor=3.0)),
]
LAW_SECTIONS = [
    ({"family": "constant1"}, Constant1()),
    ({"family": "exponential_mean1"}, ExponentialMean1()),
    ({"family": "gamma_mean1", "k": 2.5}, GammaMean1(k=2.5)),
    ({"family": "uniform_mean1", "d": 0.4}, UniformMean1(d=0.4)),
]

SIMULATE_SMALL = """\
command: simulate
seed: 9
jumps:
  up: {family: exponential_mean1}
  down: {family: exponential_mean1}
simulate:
  horizon: 50.0
"""


# (row of cli._PARAMS, its bounded key or None for a rule, a section that
# breaks the bound or rule, the start of its error): one per bound and per
# rule of every row, and the check kind's choices
PARAM_VIOLATIONS = [
    ("classify", "grid", "{grid: 99}", "classify.grid: must be >= 100"),
    ("simulate", "horizon", "{horizon: -1.0}", "simulate.horizon: must be >= 0.0"),
    ("bd-oracle", "source", "{source: chain}", "bd-oracle.source: must be one of"),
    ("bd-oracle", "quadrature_points", "{quadrature_points: 0}",
     "bd-oracle.quadrature_points: must be >= 1"),
    ("bd-oracle", "tail_extension", "{tail_extension: -1}",
     "bd-oracle.tail_extension: must be >= 0"),
    ("bd-oracle", "criterion", "{criterion: neither}",
     "bd-oracle.criterion: must be one of"),
    ("bd-oracle", "c", "{source: ratio, c: -0.5}", "bd-oracle.c: must be >= 0.0"),
    ("experiment", "n_paths", "{n_paths: 0, horizon: 10.0, level: 3.0}",
     "experiment.n_paths: must be >= 1"),
    ("experiment", "horizon", "{n_paths: 4, horizon: -1.0, level: 3.0}",
     "experiment.horizon: must be >= 0.0"),
    ("check", "kind", "{kind: drift}", "check.kind: must be one of"),
    ("martingale", "tau", "{kind: martingale, tau: -1.0}", "check.tau: must be >= 0.0"),
    ("martingale", "horizon", "{kind: martingale, horizon: -1.0}",
     "check.horizon: must be >= 0.0"),
    ("martingale", "n_paths", "{kind: martingale, n_paths: 99}",
     "check.n_paths: must be >= 100"),
    ("wald", "sigma", "{kind: wald, sigma: -1.0}", "check.sigma: must be >= 0.0"),
    ("wald", "n_paths", "{kind: wald, n_paths: 99}", "check.n_paths: must be >= 100"),
    ("balance", "total_time", "{kind: balance, total_time: -1.0}",
     "check.total_time: must be >= 0.0"),
    ("balance", "quadrature_points", "{kind: balance, quadrature_points: 0}",
     "check.quadrature_points: must be >= 1"),
    ("classify", None, "{x0: 0.0}", "classify.x0: must be positive"),
    ("classify", None, "{x0: 5.0, x_max: 5.0}", "classify.x_max: must exceed x0"),
    ("classify", None, "{x_max: 1.3407807929942597e+154}",
     "classify.x_max: must be at most 1.3407807929942596e+154 (x_max**2 must be finite)"),
    ("bd-oracle", None, "{n_min: 20, n_max: 10}",
     "bd-oracle.n_min: must not exceed n_max"),
    ("bd-oracle", None, "{source: ratio}",
     "bd-oracle.c: required when source is 'ratio'"),
    ("bd-oracle", None, "{source: ratio, c: 2.0, n_min: 0}",
     "bd-oracle.n_min: ratio source needs n_min >= 1"),
    ("bd-oracle", None, "{n0: 1}", "bd-oracle.n0: must lie within [n_min, n_max]"),
    ("bd-oracle", None, "{bilateral: true}",
     "bd-oracle.bilateral: window must span both tails (n_min <= -n0)"),
    ("experiment", None, "{n_paths: 4, horizon: 10.0, level: 3.0, band: 3.0}",
     "experiment: need level > band > 0"),
    ("martingale", None, "{kind: martingale, rate: 0.0}", "check.rate: must be positive"),
    ("martingale", None, "{kind: martingale, tau: 10.0, horizon: 5.0}",
     "check.horizon: must be at least tau"),
    ("balance", None, "{kind: balance, window_min: 0, window_max: 1}",
     "check.window_max: window needs at least 3 cells"),
]


class TestParseConfig:
    def test_minimal_classify_resolves_defaults(self):
        rc = parse_config("command: classify\n")
        assert rc.command == "classify"
        assert rc.seed == 0
        assert rc.strict is False
        assert rc.workers == 0
        assert rc.output_path is None
        assert rc.output_format == "json"
        eff = rc.effective
        assert eff["classify"] == {"x0": 2.0, "x_max": 1e4, "grid": 512}
        assert eff["field"]["family"] == "zero"
        assert eff["jumps"] == {"up": {"family": "constant1"}, "down": {"family": "constant1"}}

    def test_effective_config_round_trips(self):
        for (field_sect, field), (law_sect, law) in itertools.product(FIELD_SECTIONS, LAW_SECTIONS):
            raw = {"command": "classify", "field": field_sect, "jumps": {"up": law_sect, "down": law_sect}}
            rc = parse_config(yaml.safe_dump(raw))
            assert (rc.field, rc.up_law, rc.down_law) == (field, law, law), raw
            again = parse_config(yaml.safe_dump(rc.effective))
            assert again.effective == rc.effective, raw
            assert (again.field, again.up_law, again.down_law) == (rc.field, rc.up_law, rc.down_law), raw

    def test_family_tables_list_every_exported_class(self):
        exported = {getattr(driftlab, name) for name in driftlab.__all__}
        classes = {c for c in exported if isinstance(c, type)}
        fields = {c for c in classes if issubclass(c, DriftField) and c is not DriftField}
        laws = {c for c in classes if issubclass(c, JumpLaw) and c is not JumpLaw}
        assert set(cli._FIELD_FAMILIES.values()) == fields
        assert set(cli._JUMP_LAWS.values()) == laws

    def test_unknown_keys_are_named_with_their_path(self):
        with pytest.raises(ConfigError, match=r"config: unknown key\(s\): 'bogus'$"):
            parse_config("command: classify\nbogus: 1\n")
        with pytest.raises(ConfigError, match=r"field: unknown key\(s\): 'zap'$"):
            parse_config("command: classify\nfield: {zap: 1}\n")
        with pytest.raises(ConfigError, match=r"classify: unknown key\(s\): 'foo'$"):
            parse_config("command: classify\nclassify: {foo: 1}\n")

    @pytest.mark.parametrize(
        "section,keys",
        [
            ('"": 1', "''"),
            ("null: 1", "None"),
            ('"None": 1', "'None'"),
            ("1: 1", "1"),
            ('"1": 1', "'1'"),
            ('"": 1, null: 2, "None": 3', "'', 'None', None"),
        ],
        ids=["empty", "null", "string-None", "int", "string-1", "all-three"],
    )
    @pytest.mark.parametrize("where", ["config", "field"])
    def test_an_unknown_key_that_is_not_a_plain_name_reads_apart(self, section, keys, where):
        # keys that print alike as str (None and "None") or not at all ("")
        inner = section if where == "config" else f"field: {{{section}}}"
        with pytest.raises(ConfigError) as e:
            parse_config(f"{{command: classify, {inner}}}\n")
        assert str(e.value) == f"{where}: unknown key(s): {keys}"

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("command: frobnicate\n")

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="command: required"):
            parse_config("seed: 1\n")

    def test_type_errors_carry_the_key(self):
        with pytest.raises(ConfigError, match="seed: expected an integer"):
            parse_config("command: classify\nseed: abc\n")
        with pytest.raises(ConfigError, match="strict: expected a boolean"):
            parse_config("command: classify\nstrict: 1\n")

    def test_scientific_notation_needs_a_signed_exponent(self):
        # the YAML 1.1 resolver wants 1.0e+4; bare 1e4 and 1.0e4 are strings
        with pytest.raises(ConfigError, match="x_max: expected a number"):
            parse_config("command: classify\nclassify: {x_max: 1e4}\n")
        with pytest.raises(ConfigError, match="x_max: expected a number"):
            parse_config("command: classify\nclassify: {x_max: 1.0e4}\n")
        rc = parse_config("command: classify\nclassify: {x_max: 1.0e+4}\n")
        assert rc.params["x_max"] == 1e4

    @pytest.mark.parametrize("key", ["mode", "rho", "beta"])
    def test_classify_reads_its_model_from_field_alone(self, key):
        # the critical window is a power_law field; classify keeps no copy of it
        with pytest.raises(ConfigError) as e:
            parse_config(f"command: classify\nclassify: {{{key}: 0.25}}\n")
        assert str(e.value) == f"classify: unknown key(s): '{key}'"

    def test_csv_rejected_for_record_commands(self):
        with pytest.raises(ConfigError, match="csv is not available"):
            parse_config("command: classify\noutput: {format: csv}\n")
        with pytest.raises(ConfigError, match="csv is not available"):
            parse_config("command: check\ncheck: {kind: wald}\noutput: {format: csv}\n")

    def test_non_mapping_root_rejected(self):
        with pytest.raises(ConfigError, match="expected a mapping"):
            parse_config("- 1\n- 2\n")

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError, match="invalid YAML"):
            parse_config("command: [unclosed\n")

    def test_field_parameter_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="field"):
            parse_config("command: classify\nfield: {family: critical_lamperti, c: -1.0}\n")

    def test_bd_oracle_window_rules(self):
        with pytest.raises(ConfigError, match="n_min"):
            parse_config("command: bd-oracle\nbd-oracle: {n_min: 20, n_max: 10}\n")
        with pytest.raises(ConfigError, match="source is 'ratio'"):
            parse_config("command: bd-oracle\nbd-oracle: {source: ratio}\n")
        with pytest.raises(ConfigError, match="span both tails"):
            parse_config("command: bd-oracle\nbd-oracle: {bilateral: true, n_min: 2}\n")

    def test_seed_precedence_env_and_config(self, monkeypatch):
        monkeypatch.delenv("DRIFTLAB_SEED", raising=False)
        assert parse_config("command: classify\n").seed == 0
        monkeypatch.setenv("DRIFTLAB_SEED", "77")
        assert parse_config("command: classify\n").seed == 77
        assert parse_config("command: classify\nseed: 5\n").seed == 5

    def test_garbage_env_seed_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv("DRIFTLAB_SEED", "not-a-number")
        with pytest.raises(ConfigError, match="DRIFTLAB_SEED"):
            parse_config("command: classify\n")

    def test_overrides_apply_in_order(self):
        text = "command: classify\nseed: 1\nfield:\n"
        lamperti = {"family": "critical_lamperti", "c": 1.0}
        rc = parse_config(text, [("seed", 2), ("field", lamperti), ("field.c", 3.0), ("seed", 3)])
        assert (rc.seed, rc.field) == (3, CriticalLamperti(c=3.0))
        rc = parse_config(text, [("field.family", "critical_lamperti"), ("field.c", 3.0),
                                 ("field", lamperti)])
        assert (rc.seed, rc.field) == (1, CriticalLamperti(c=1.0))
        assert lamperti == {"family": "critical_lamperti", "c": 1.0}
        assert parse_config(text).field == Zero()

    @pytest.mark.parametrize(
        "text,key,message",
        [
            ("command: classify\noutput: out.json\n", "output.path", "output"),
            ("command: classify\njumps: {up: []}\n", "jumps.up.family", "jumps.up"),
            ("- 1\n- 2\n", "seed", "config"),
        ],
        ids=["section", "nested", "root"],
    )
    def test_override_through_a_non_mapping_names_its_key(self, text, key, message):
        with pytest.raises(ConfigError, match=rf"^{key}: {message} is not a mapping$"):
            parse_config(text, [(key, 1)])

    @pytest.mark.parametrize("key", [".seed", "field..c", "seed.", ""])
    def test_an_empty_dotted_segment_names_the_whole_key(self, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(repr(key))}: empty segment"):
            parse_config("command: classify\n", [(key, 1)])

    @pytest.mark.parametrize("row,key,section,message", PARAM_VIOLATIONS,
                             ids=[f"{r}.{k}" if k else m.split(":")[0] + "-rule"
                                  for r, k, _, m in PARAM_VIOLATIONS])
    def test_each_bound_and_rule_of_the_table_names_its_key(self, row, key, section, message):
        command = row if row in cli._COMMANDS else "check"  # a check kind's row
        with pytest.raises(ConfigError) as e:
            parse_config(f"command: {command}\n{command}: {section}\n")
        assert str(e.value).startswith(message)

    def test_the_violations_cover_every_bound_and_rule(self):
        bounded = {(row, key) for row, keys in cli._PARAMS.items()
                   for key, (_, _, bound) in keys.items() if bound is not None}
        assert {(r, k) for r, k, *_ in PARAM_VIOLATIONS if k and r in cli._PARAMS} == bounded
        rules = sorted((r, m) for r, _, m in cli._RULES)
        assert sorted((r, m) for r, k, _, m in PARAM_VIOLATIONS if k is None) == rules


class TestMainClassify:
    def test_summary_line_and_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, CLASSIFY_CL3)
        assert main([cfg]) == 0
        out = capsys.readouterr().out
        assert out == "verdict=Transient c_estimate=3.000 method=theorem1 window=[2,10000]\n"

    def test_json_record_embeds_config_and_version(self, tmp_path):
        cfg = write(tmp_path, CLASSIFY_CL3)
        out = tmp_path / "res.json"
        assert main([cfg, "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["tool"] == "driftlab"
        assert rec["version"] == driftlab.__version__
        assert rec["command"] == "classify"
        assert rec["result"]["verdict"] == "Transient"
        assert rec["result"]["c_estimate"] == pytest.approx(3.0, rel=1e-12)
        assert rec["config"]["classify"]["grid"] == 512
        assert rec["config"]["field"]["c"] == 3.0

    def test_strict_inconclusive_exits_one(self, tmp_path, capsys):
        cfg = write(
            tmp_path, "command: classify\nfield: {family: critical_lamperti, c: 1.0}\n"
        )
        assert main([cfg]) == 0
        assert main([cfg, "--strict"]) == 1
        assert "verdict=Inconclusive" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field",
        [
            "{family: power_law, rho: 0.3, alpha: -0.5, beta: 0.25}",
            # 2 * 0.6 - 1 is 0.19999999999999996; alpha 0.2 is on the line
            "{family: power_law, rho: 0.1, alpha: 0.2, beta: 0.6}",
            "{family: power_law, rho: 0.25, alpha: 0.5, beta: 0.75, x_floor: 3.0}",
        ],
    )
    def test_a_critical_line_field_gets_the_closed_form(self, tmp_path, capsys, field):
        rc = parse_config(f"command: classify\nfield: {field}\n")
        out = tmp_path / "res.json"
        assert main([write(tmp_path, f"command: classify\nfield: {field}\n"), "--out", str(out)]) == 0
        want = classify_mv_critical(rc.field.rho, rc.field.beta, x_floor=rc.field.x_floor)
        assert json.loads(out.read_text())["result"] == json.loads(cli._record_json(
            rc, {**want.to_record(), "evidence": want.evidence}))["result"]
        assert want.method == "mv-critical"
        assert "method=mv-critical" in capsys.readouterr().out

    def test_the_delegated_scan_reads_the_field_x_floor(self, tmp_path):
        # s(x) = 1.2 sqrt(x / 1000) sits below 1 up to x ~ 694, inside the
        # scan's tail window: this field's own scan is Inconclusive, while
        # the same rho and beta at x_floor 1 scan Transient
        field = "{family: power_law, rho: 0.3, alpha: -0.5, beta: 0.25, x_floor: 1000.0}"
        rc = parse_config(f"command: classify\nfield: {field}\n")
        out = tmp_path / "res.json"
        assert main([write(tmp_path, f"command: classify\nfield: {field}\n"), "--out", str(out)]) == 0
        result = json.loads(out.read_text())["result"]
        assert (result["method"], result["verdict"]) == ("mv-critical", "Transient")
        assert result["evidence"]["delegated_verdict"] == "Inconclusive"
        assert result["evidence"]["delegated_verdict"] == classify_theorem1(rc.field).verdict.value

    @pytest.mark.parametrize(
        "field",
        [
            "{family: zero}",
            "{family: critical_lamperti, c: 0.5}",
            "{family: critical_lamperti, c: 3.0}",
            "{family: tabulated, x_grid: [0.0, 1.0], t_grid: [0.0, 1.0], "
            "values: [[0.1, 0.1], [0.1, 0.1]]}",
            "{family: power_law, rho: 0.3, alpha: -0.499999, beta: 0.25}",
            "{family: power_law, rho: 0.3, alpha: 0.0, beta: 0.5}",
            "{family: power_law, rho: 0.3, alpha: 1.0, beta: 1.0}",
            "{family: power_law, rho: 0.3, alpha: -1.0, beta: 0.0}",
        ],
    )
    def test_any_other_field_gets_the_theorem1_scan(self, tmp_path, field):
        rc = parse_config(f"command: classify\nfield: {field}\n")
        out = tmp_path / "res.json"
        assert main([write(tmp_path, f"command: classify\nfield: {field}\n"), "--out", str(out)]) == 0
        want = classify_theorem1(rc.field)
        assert json.loads(out.read_text())["result"] == json.loads(cli._record_json(
            rc, {**want.to_record(), "evidence": want.evidence}))["result"]

    def test_a_classify_mode_set_on_the_command_line_exits_two(self, tmp_path, capsys):
        assert main([write(tmp_path, "command: classify\n"), "--set", "classify.mode=theorem1"]) == 2
        assert capsys.readouterr().err == "driftlab: config error: classify: unknown key(s): 'mode'\n"

    @pytest.mark.parametrize("x_max", ["1.0e+100", "1.3407807929942596e+154"])
    def test_x_max_up_to_the_square_root_of_the_largest_float_classifies(self, tmp_path, capsys, x_max):
        # 4 rho = 2: transient, and the scan reads phi at t = x_max**2
        cfg = write(tmp_path, "command: classify\n"
                    "field: {family: power_law, rho: 0.5, alpha: -0.5, beta: 0.25}\n"
                    f"classify: {{x_max: {x_max}}}\n")
        assert main([cfg]) == 0
        assert capsys.readouterr().out.startswith("verdict=Transient c_estimate=2.000")

    @pytest.mark.parametrize("x_max", ["1.3407807929942597e+154", "1.0e+200", "1.0e+308"])
    def test_an_x_max_whose_square_overflows_is_a_config_error(self, tmp_path, capsys, x_max):
        cfg = write(tmp_path, "command: classify\n"
                    "field: {family: power_law, rho: 0.5, alpha: -0.5, beta: 0.25}\n"
                    f"classify: {{x_max: {x_max}}}\n")
        assert main([cfg]) == 2
        assert "config error: classify.x_max: must be at most 1.3407807929942596e+154" in \
            capsys.readouterr().err

    def test_set_overrides_apply_before_validation(self, tmp_path, capsys):
        cfg = write(tmp_path, "command: classify\n")
        code = main(
            [
                cfg,
                "--set", "field.family=critical_lamperti",
                "--set", "field.c=3.0",
                "--set", "classify.grid=256",
            ]
        )
        assert code == 0
        assert "verdict=Transient" in capsys.readouterr().out

    def test_malformed_set_is_usage_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "command: classify\n")
        assert main([cfg, "--set", "no-equals-here"]) == 2
        assert "config error" in capsys.readouterr().err


# flag -> (config, the flag's argv, its key, its value as --set spells it,
# a --set value of that key that the flag must beat); OUT and ELSEWHERE
# stand for two output paths
FLAG_SETS = {
    "seed": (SIMULATE_SMALL + "output: {path: OUT}\n", ["--seed", "5"], "seed", "5", "6"),
    "out": (SIMULATE_SMALL, ["--out", "OUT"], "output.path", "OUT", "ELSEWHERE"),
    "format": (SIMULATE_SMALL + "output: {path: OUT}\n", ["--format", "json"],
               "output.format", "json", "csv"),
    "strict": ("command: classify\nfield: {family: critical_lamperti, c: 1.0}\n"
               "output: {path: OUT}\n", ["--strict"], "strict", "true", "false"),
    "workers": ("command: classify\nworkers: 2\noutput: {path: OUT}\n", ["--workers", "1"],
                "workers", "1", "2"),
}


@pytest.mark.parametrize("name", sorted(FLAG_SETS))
def test_each_flag_is_shorthand_for_one_set(tmp_path, capsys, name):
    text, flag, key, value, beaten = FLAG_SETS[name]
    out, elsewhere = str(tmp_path / "out"), str(tmp_path / "elsewhere")
    cfg = write(tmp_path, text.replace("OUT", out))

    def run(*argv):
        if os.path.exists(out):
            os.remove(out)
        code = main([cfg, *(a.replace("OUT", out).replace("ELSEWHERE", elsewhere) for a in argv)])
        written = pathlib.Path(out).read_bytes() if os.path.exists(out) else None
        return code, capsys.readouterr().out, written

    by_flag = run(*flag)
    assert by_flag[0] == (1 if name == "strict" else 0)
    assert by_flag[2] is not None
    assert run("--set", f"{key}={value}") == by_flag
    assert run("--set", f"{key}={beaten}", *flag) == by_flag
    assert not os.path.exists(elsewhere)
    assert run("--set", f"{key}={beaten}") != by_flag  # so the flag did beat something


def spoiled(name, edit):
    """A stand-in for ``cli.<name>`` that passes the real result through ``edit``."""
    real = getattr(cli, name)
    return lambda *args, **kwargs: edit(real(*args, **kwargs))


# command -> (a config whose run passes, what makes it fail: --set
# arguments, or a (cli name, stand-in) pair; None where nothing fails)
STRICT_CASES = {
    "classify": (CLASSIFY_CL3, ["--set", "field.c=1.0"]),
    "bd-oracle": ("command: bd-oracle\n"
                  "bd-oracle: {source: ratio, c: 2.0, n_max: 500, criterion: ratio}\n",
                  ["--set", "bd-oracle.c=1.03"]),
    "simulate": (SEEDED_CONFIGS["simulate"], None),
    "experiment": (SEEDED_CONFIGS["experiment"], None),
    "check-martingale": (SEEDED_CONFIGS["check-martingale"], ("martingale_check", lambda chk: (
        dataclasses.replace(chk, ensemble=dataclasses.replace(chk.ensemble, within_3se=False))))),
    "check-wald": (SEEDED_CONFIGS["check-wald"], ("wald_second_moment_check", lambda chk: (
        dataclasses.replace(chk, passed=False)))),
    "check-balance": (SEEDED_CONFIGS["check-balance"], ("solve_balance_window", lambda occ: (
        dataclasses.replace(occ, p_star=np.full(occ.p_star.size, 1.0 / occ.p_star.size))))),
}


@pytest.mark.parametrize("name", sorted(STRICT_CASES))
def test_strict_exits_one_on_a_failed_result_only(tmp_path, capsys, monkeypatch, name):
    text, spoil = STRICT_CASES[name]
    cfg = write(tmp_path, text)
    assert main([cfg]) == main([cfg, "--strict"]) == 0
    argv = [cfg]
    if isinstance(spoil, list):
        argv += spoil
    elif spoil is not None:
        monkeypatch.setattr(cli, spoil[0], spoiled(*spoil))
    assert main(argv) == 0
    assert main([*argv, "--strict"]) == (0 if spoil is None else 1)


# each _PARAMS row a runner passes as keywords, and the functions it is passed to
KEYWORD_ROWS = {
    "classify": (classify_theorem1, classify_mv_critical),
    "simulate": (simulator.simulate_walk, simulator._event_blocks),
    "experiment": (experiments.RecurrenceExperiment,),
    "martingale": (simulator.martingale_check,),
    "wald": (simulator.wald_second_moment_check,),
}


@pytest.mark.parametrize("row", sorted(KEYWORD_ROWS))
def test_each_key_of_a_passed_row_is_a_parameter_of_its_function(row):
    # a renamed library argument would otherwise surface as a TypeError
    # traceback from run, which maps only ValueError to exit 2
    keys = set(cli._PARAMS[row]) - {"kind"}
    for fn in KEYWORD_ROWS[row]:
        assert keys - set(inspect.signature(fn).parameters) == set(), fn.__name__


class TestMainErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.yaml")]) == 3
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_yaml_file(self, tmp_path, capsys):
        cfg = write(tmp_path, "command: [unclosed\n")
        assert main([cfg]) == 2
        assert "invalid YAML" in capsys.readouterr().err

    def test_non_mapping_root(self, tmp_path, capsys):
        cfg = write(tmp_path, "- a\n- b\n")
        assert main([cfg]) == 2
        assert "config: expected a mapping" in capsys.readouterr().err

    def test_unknown_command_in_config(self, tmp_path, capsys):
        cfg = write(tmp_path, "command: mystery\n")
        assert main([cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_flag(self, tmp_path, capsys):
        cfg = write(tmp_path, "command: classify\n")
        with pytest.MonkeyPatch.context():
            assert main([cfg, "--frobnicate"]) == 2

    def test_unwritable_output_path(self, tmp_path, capsys):
        cfg = write(tmp_path, CLASSIFY_CL3)
        missing = tmp_path / "no" / "such" / "dir" / "out.json"
        assert main([cfg, "--out", str(missing)]) == 3
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize(
        "text,key",
        [
            ("command: classify\nfield: {family: critical_lamperti, c: %s}\n", "field.c"),
            ("command: simulate\nfield: {family: mean_reverting, kappa: %s}\n"
             "simulate: {horizon: 5.0}\n", "field.kappa"),
            ("command: experiment\nexperiment: {n_paths: 4, horizon: %s, level: 3.0}\n",
             "experiment.horizon"),
        ],
        ids=["field.c", "field.kappa", "experiment.horizon"],
    )
    def test_non_finite_floats_name_their_key(self, tmp_path, capsys, text, key, value):
        cfg = write(tmp_path, text % value)
        assert main([cfg]) == 2
        assert f"{key}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,table",
        [
            ("x_grid", "x_grid: [0.0, .nan], t_grid: [0.0, 1.0], values: [[0.1, 0.1], [0.1, 0.1]]"),
            ("t_grid", "x_grid: [0.0, 1.0], t_grid: [0.0, .inf], values: [[0.1, 0.1], [0.1, 0.1]]"),
            ("values", "x_grid: [0.0, 1.0], t_grid: [0.0, 1.0], values: [[0.1, 0.1], [0.1, .nan]]"),
        ],
        ids=["x_grid", "t_grid", "values"],
    )
    def test_non_finite_table_entries_are_config_errors(self, tmp_path, capsys, key, table):
        cfg = write(tmp_path, f"command: classify\nfield: {{family: tabulated, {table}}}\n")
        assert main([cfg]) == 2
        assert f"field: {key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("field: {family: power_law, alpha: 0.5, beta: 0.75}\n", "field.rho: required key missing"),
            ("jumps: {up: {family: gamma_mean1}}\n", "jumps.up.k: required key missing"),
            ("jumps: {down: {family: uniform_mean1, d: wide}}\n", "jumps.down.d: expected a number"),
            ("jumps: {down: {family: exponential_mean1, k: 2.0}}\n", "jumps.down: unknown key(s): 'k'"),
            # the chain reads phi at parabolic time; no key fixes its time
            ("field: {family: zero, t_proxy: 1.0e+8}\n", "field: unknown key(s): 't_proxy'"),
            # the balance check always solves the exact window
            ("command: check\ncheck: {kind: balance, compare_exact: false}\n",
             "check: unknown key(s): 'compare_exact'"),
            ("field: {family: tabulated, x_grid: [0.0, 1.0], t_grid: [0.0, 1.0], "
             "values: [[0.1, 0.1], [0.1]]}\n", "field.values: "),
            ("field: {family: tabulated, x_grid: [0.0, 1.0], t_grid: [0.0, 1.0], "
             "values: [[0.1, 0.1], [0.1, high]]}\n", "field.values: could not convert"),
            ("field: {family: tabulated, x_grid: [0.0, one], t_grid: [0.0, 1.0], "
             "values: [[0.1, 0.1], [0.1, 0.1]]}\n", "field.x_grid: could not convert"),
            ("field: {family: tabulated, x_grid: [0.0, 1.0], t_grid: [[0.0], [1.0, 2.0]], "
             "values: [[0.1, 0.1], [0.1, 0.1]]}\n", "field.t_grid: "),
        ],
        ids=["field.rho", "jumps.up.k", "jumps.down.d", "jumps.down", "t_proxy", "compare_exact",
             "ragged", "non-numeric", "non-numeric-x_grid", "ragged-t_grid"],
    )
    def test_family_parameter_errors_name_their_path(self, tmp_path, capsys, text, message):
        # a case that names its own command runs it; the rest run classify
        cfg = write(tmp_path, text if text.startswith("command:") else "command: classify\n" + text)
        assert main([cfg]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,argv,key,line",
        [
            ("command: classify\ncommand: check\ncheck: {kind: wald}\n", [], "command", 2),
            ("command: classify\nfield:\n  family: critical_lamperti\n  c: 1.0\n  c: 3.0\n", [],
             "c", 5),
            ("command: classify\n", ["--set", "field={family: critical_lamperti, c: 1.0, c: 3.0}"],
             "c", 1),
        ],
        ids=["top-level", "nested", "set"],
    )
    def test_a_repeated_key_is_a_config_error(self, tmp_path, capsys, text, argv, key, line):
        assert main([write(tmp_path, text), *argv]) == 2
        assert f"duplicate key '{key}' on line {line}" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["config", "flag", "env"])
    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["minus-one", "two-to-64"])
    @pytest.mark.parametrize("command", sorted(SEEDED_CONFIGS))
    def test_seed_outside_64_bits_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, command, seed, source
    ):
        # experiment, wald and martingale used to mask it to 64 bits;
        # simulate and balance failed with numpy's text under the command
        text, argv = SEEDED_CONFIGS[command], []
        monkeypatch.delenv("DRIFTLAB_SEED", raising=False)
        if source == "config":
            text += f"seed: {seed}\n"
        elif source == "flag":
            argv = ["--seed", str(seed)]
        else:
            monkeypatch.setenv("DRIFTLAB_SEED", str(seed))
        assert main([write(tmp_path, text), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("driftlab: config error: seed: must lie in [0, 2**64)")
        assert (source == "env") == ("DRIFTLAB_SEED" in err)

    @pytest.mark.parametrize("command", sorted(SEEDED_CONFIGS))
    def test_the_64_bit_seed_edges_run(self, tmp_path, capsys, command):
        cfg = write(tmp_path, SEEDED_CONFIGS[command])
        for seed in (0, 2**64 - 1):
            out = tmp_path / f"{seed}.json"
            assert main([cfg, "--seed", str(seed), "--format", "json", "--out", str(out)]) == 0
            assert json.loads(out.read_text())["seed"] == seed

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert f"driftlab {driftlab.__version__}" in capsys.readouterr().out

    def test_package_metadata_reads_the_one_version(self):
        # records carry driftlab.__version__; the build reads the same value
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as f:
            meta = tomllib.load(f)
        assert "version" not in meta["project"]
        assert meta["project"]["dynamic"] == ["version"]
        dynamic = meta["tool"]["setuptools"]["dynamic"]["version"]
        assert dynamic == {"attr": "driftlab.__version__"}


class TestMainSimulate:
    def test_csv_default_and_determinism(self, tmp_path, capsys):
        cfg = write(tmp_path, SIMULATE_SMALL)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main([cfg, "--out", str(a)]) == 0
        assert main([cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("tau,signed_jump,z_after\n")
        out = capsys.readouterr().out
        assert "seed=9" in out
        assert "events=" in out

    def test_seed_flag_changes_the_path(self, tmp_path):
        cfg = write(tmp_path, SIMULATE_SMALL)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main([cfg, "--out", str(a)]) == 0
        assert main([cfg, "--seed", "10", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_env_seed_matches_explicit_config(self, tmp_path, monkeypatch):
        no_seed = SIMULATE_SMALL.replace("seed: 9\n", "")
        cfg_env = write(tmp_path, no_seed, "env.yaml")
        cfg_fix = write(tmp_path, no_seed + "seed: 321\n", "fix.yaml")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        monkeypatch.setenv("DRIFTLAB_SEED", "321")
        assert main([cfg_env, "--out", str(a)]) == 0
        monkeypatch.delenv("DRIFTLAB_SEED")
        assert main([cfg_fix, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format_carries_the_arrays(self, tmp_path):
        cfg = write(tmp_path, SIMULATE_SMALL)
        out = tmp_path / "traj.json"
        assert main([cfg, "--format", "json", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["result"]["n_events"] == len(rec["result"]["times"])
        assert rec["config"]["output"]["format"] == "json"

    def test_no_stray_tempfiles(self, tmp_path):
        cfg = write(tmp_path, SIMULATE_SMALL)
        out = tmp_path / "a.csv"
        assert main([cfg, "--out", str(out)]) == 0
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".driftlab-")]
        assert leftovers == []


EXPERIMENT_SMALL = """\
command: experiment
seed: 11
jumps:
  up: {family: exponential_mean1}
  down: {family: exponential_mean1}
experiment:
  n_paths: 25
  horizon: 40.0
  level: 3.0
  band: 1.0
"""


class TestMainExperiment:
    def test_csv_output_is_byte_identical_across_runs(self, tmp_path):
        cfg = write(tmp_path, EXPERIMENT_SMALL)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main([cfg, "--out", str(a)]) == 0
        assert main([cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("path,seed,reached_L,first_hit_time,returned,final_z\n")

    def test_json_report_round_trips(self, tmp_path, capsys):
        # the record embeds the effective config, so byte-identity needs
        # the same output path on both runs
        cfg = write(tmp_path, EXPERIMENT_SMALL)
        a = tmp_path / "a.json"
        assert main([cfg, "--format", "json", "--out", str(a)]) == 0
        first = a.read_bytes()
        assert main([cfg, "--format", "json", "--out", str(a)]) == 0
        assert a.read_bytes() == first
        rec = json.loads(a.read_text())
        assert rec["result"]["proxy"] == "band-return"
        assert 0.0 <= rec["result"]["returned_fraction"] <= 1.0
        out = capsys.readouterr().out
        assert "returned=" in out


BD_RATIO = """\
command: bd-oracle
bd-oracle:
  source: ratio
  c: 2.0
  n_min: 2
  n_max: 2000
  tail_extension: 98000
"""


class TestMainBdOracle:
    def test_ratio_family_is_transient_under_both_criteria(self, tmp_path, capsys):
        cfg = write(tmp_path, BD_RATIO)
        out = tmp_path / "bd.json"
        assert main([cfg, "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["result"]["ratio"]["verdict"] == "Transient"
        assert rec["result"]["series"]["verdict"] == "Transient"
        assert rec["result"]["chain_window"] == [2, 2000]
        summary = capsys.readouterr().out.strip()
        assert "ratio=Transient(2.000)" in summary
        assert "series=Transient(" in summary

    def test_strict_flags_inconclusive_chains(self, tmp_path):
        cfg = write(
            tmp_path,
            "command: bd-oracle\n"
            "bd-oracle: {source: ratio, c: 1.03, n_max: 500, criterion: ratio}\n",
        )
        assert main([cfg]) == 0
        assert main([cfg, "--strict"]) == 1

    def test_chain_csv_dump(self, tmp_path):
        cfg = write(
            tmp_path,
            "command: bd-oracle\n"
            "bd-oracle: {source: ratio, c: 2.0, n_max: 50, criterion: ratio}\n",
        )
        out = tmp_path / "chain.csv"
        assert main([cfg, "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,lambda_star,mu_star"
        assert len(lines) == 50
        n, lam, mu = lines[1].split(",")
        assert n == "2"
        assert float(lam) + float(mu) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("n_max", [3, 4097, 4098, 4099, 8195])
    def test_chain_csv_blocks_match_the_row_by_row_renderer(self, tmp_path, n_max):
        # windows of 2, 4096 +- 1 and 8194 rows, rendered 4096 at a time
        cfg = write(
            tmp_path,
            "command: bd-oracle\n"
            f"bd-oracle: {{source: ratio, c: 2.0, n_max: {n_max}, criterion: ratio}}\n",
        )
        out = tmp_path / "chain.csv"
        assert main([cfg, "--format", "csv", "--out", str(out)]) == 0
        chain = ratio_family_chain(2.0, 2, n_max)
        rows = ["n,lambda_star,mu_star"]
        for i, n in enumerate(range(chain.n_min, chain.n_max + 1)):
            rows.append(f"{n},{float(chain.lam[i])!r},{float(chain.mu[i])!r}")
        assert out.read_text() == "\n".join(rows) + "\n"

    def test_discretized_field_source(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "command: bd-oracle\n"
            "field: {family: critical_lamperti, c: 3.0}\n"
            "bd-oracle: {n_min: 3, n_max: 2000, criterion: ratio}\n",
        )
        assert main([cfg]) == 0
        assert "ratio=Transient(" in capsys.readouterr().out

    def test_saturated_window_is_reported_as_config_error(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "command: bd-oracle\n"
            "field: {family: critical_lamperti, c: 3.0}\n"
            "bd-oracle: {n_min: 2, n_max: 100, quadrature_points: 1, criterion: ratio}\n",
        )
        assert main([cfg]) == 2
        assert "non-positive at cell" in capsys.readouterr().err

    def test_window_clipped_at_parabolic_time_is_a_config_error(self, tmp_path, capsys):
        # phi(x, x^2) = 1/x sits on the clip 1/2 over all of the cell [1, 2]
        cfg = write(
            tmp_path,
            "command: bd-oracle\n"
            "field: {family: power_law, rho: 1.0, alpha: 0.5, beta: 0.75}\n"
            "bd-oracle: {n_min: 2, n_max: 100, criterion: ratio}\n",
        )
        assert main([cfg]) == 2
        assert "non-positive at cell n=2" in capsys.readouterr().err


class TestMainCheck:
    def test_wald(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "command: check\ncheck: {kind: wald, sigma: 1.0, n_paths: 300}\n",
        )
        out = tmp_path / "wald.json"
        assert main([cfg, "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["result"]["kind"] == "wald"
        assert rec["result"]["passed"] is True
        assert rec["result"]["bound"] == 2.0
        assert capsys.readouterr().out.startswith("wald empirical=")

    def test_martingale(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "command: check\n"
            "check: {kind: martingale, rate: 0.5, tau: 4.0, horizon: 6.0, n_paths: 200}\n",
        )
        out = tmp_path / "mart.json"
        assert main([cfg, "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["result"]["literal"]["within_3se"] is True
        assert rec["result"]["ensemble"]["within_3se"] is True
        assert "martingale literal=" in capsys.readouterr().out

    def test_balance(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "command: check\n"
            "field: {family: mean_reverting, kappa: 0.2}\n"
            "jumps: {up: {family: exponential_mean1}, down: {family: exponential_mean1}}\n"
            "check: {kind: balance, total_time: 2000.0, window_min: -6, window_max: 6}\n",
        )
        out = tmp_path / "bal.json"
        assert main([cfg, "--strict", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["result"]["exact_l1"] < 1e-10
        assert rec["result"]["l1"] >= 0.0
        assert "balance l1=" in capsys.readouterr().out

    def test_check_validation(self):
        with pytest.raises(ConfigError, match="check.horizon"):
            parse_config(
                "command: check\ncheck: {kind: martingale, tau: 10.0, horizon: 5.0}\n"
            )
        with pytest.raises(ConfigError, match="at least 3 cells"):
            parse_config(
                "command: check\ncheck: {kind: balance, window_min: 0, window_max: 1}\n"
            )


def per_element_sanitize(v):
    """Reference: every array element through the scalar rules."""
    if isinstance(v, dict):
        return {str(k): per_element_sanitize(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [per_element_sanitize(x) for x in v]
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, np.ndarray):
        return [per_element_sanitize(x) for x in v.tolist()]
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        v = float(v)
    if isinstance(v, float):
        if math.isnan(v):
            return None
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
    return v


def test_record_json_arrays_match_the_per_element_path(monkeypatch):
    # finite float arrays are written through one tolist(); the rest
    # element by element
    edge = [-0.0, 5e-324, 1e16, 0.1, -2.5]
    result = {
        "finite": np.array(edge),
        "non_finite": np.array(edge + [np.nan, np.inf, -np.inf]),
        "ints": np.array([3, -7, 2**62]),
        "two_d": np.array([[1.5, -0.0], [5e-324, 1e16]]),
        "two_d_non_finite": np.array([[np.nan, 1.0], [np.inf, -np.inf]]),
        "float32": np.array([0.1, -0.0], dtype=np.float32),
        "empty": np.array([]),
        "nested": [{"z": np.array(edge)}, (np.float64(-0.0), np.int64(4))],
        "one": np.array([0.1]),
        "float16": np.array([0.1, 65504.0], dtype=np.float16),
        "bools": np.array([True, False]),
        "arrays_in_lists": [np.array(edge), [np.array([]), np.array([1.5])], []],
        "deep": {"b": {"a": [{"c": np.array(edge), "d": np.array([np.nan])}]}},
    }
    rc = parse_config("command: classify\n")
    got = cli._record_json(rc, result)
    monkeypatch.setattr(cli, "_sanitize", per_element_sanitize)
    assert got == cli._record_json(rc, result)
    assert '"inf"' in got and "null" in got and "5e-324" in got and "-0.0" in got


def assert_same_text(got, want):
    """``got == want`` for two str or two bytes, failing with the first
    line that differs: pytest's own diff of two records thousands of
    lines long takes minutes."""
    if got != want:
        a, b = got.splitlines(), want.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i + 1} differs: {a[i:i + 1]} != {b[i:i + 1]} "
                    f"({len(a)} vs {len(b)} lines)")


@pytest.mark.parametrize("n", [4095, 4096, 4097, 8193])
def test_record_arrays_are_written_across_blocks(n):
    # arrays are written 4096 values at a time, at the indent of their slot
    a = np.linspace(-1.0, 1.0, n)
    a[:3] = [-0.0, 5e-324, 1e16]
    result = {"a": a, "lists": [a, [{"b": a[::-1]}]]}
    rc = parse_config("command: classify\n")
    assert_same_text(cli._record_json(rc, result), whole_record_json(rc, result))


def test_a_record_string_that_reads_as_a_slot_stays_a_string():
    result = {"text": cli._SLOT, "finite": np.array([0.5, -0.0])}
    rc = parse_config("command: classify\n")
    got = cli._record_json(rc, result)
    assert_same_text(got, whole_record_json(rc, result))
    assert json.loads(got)["result"] == {"text": "\0array\0", "finite": [0.5, -0.0]}


def whole_record_json(rc, result):
    """Reference: the record as one json.dumps string, every array
    through the per-element rules."""
    record = {
        "tool": "driftlab",
        "version": driftlab.__version__,
        "command": rc.command,
        "seed": rc.seed,
        "config": rc.effective,
        "result": result,
    }
    return json.dumps(per_element_sanitize(record), indent=2, sort_keys=True) + "\n"


def whole_csv(header, row, blocks):
    """Reference: the header and every row of the concatenated blocks as
    one string."""
    blocks = list(blocks)
    if not blocks:
        return header
    cols = [np.concatenate(c).tolist() for c in zip(*blocks)]
    return header + "".join(itertools.starmap(row, zip(*cols)))


SIMULATE_LONG = """\
command: simulate
field: {family: power_law, rho: 0.1, alpha: -0.5, beta: 0.25}
jumps: {up: {family: gamma_mean1, k: 2.0}, down: {family: exponential_mean1}}
simulate: {horizon: 20000.0, z0: 0.5}
"""

# every streamed output: (config, format)
STREAMED = {
    "simulate-csv-empty": ("command: simulate\nsimulate: {horizon: 0.0}\n", "csv"),
    "simulate-json-empty": ("command: simulate\nsimulate: {horizon: 0.0}\n", "json"),
    "simulate-csv": (SIMULATE_LONG, "csv"),
    "simulate-json": (SIMULATE_LONG, "json"),
    "experiment-csv": (EXPERIMENT_SMALL, "csv"),
    "experiment-json": (EXPERIMENT_SMALL, "json"),
    "bd-oracle-csv": ("command: bd-oracle\nfield: {family: critical_lamperti, c: 3.0}\n"
                      "bd-oracle: {n_max: 5000, tail_extension: 20000}\n", "csv"),
    "bd-oracle-json": ("command: bd-oracle\nfield: {family: critical_lamperti, c: 3.0}\n"
                       "bd-oracle: {n_max: 5000, tail_extension: 20000}\n", "json"),
    "check-balance": ("command: check\nfield: {family: mean_reverting, kappa: 0.2}\n"
                      "check: {kind: balance, total_time: 10000.0}\n", "json"),
    "check-wald": ("command: check\ncheck: {kind: wald, n_paths: 200}\n", "json"),
    "check-martingale": ("command: check\ncheck: {kind: martingale, n_paths: 200}\n", "json"),
}


@pytest.mark.parametrize("seed", [7, 2**64 - 1])
@pytest.mark.parametrize("name", STREAMED)
def test_streamed_outputs_match_the_whole_string_renderers(tmp_path, monkeypatch, name, seed):
    text, fmt = STREAMED[name]
    out = tmp_path / f"out.{fmt}"  # records embed the path, so both runs share it
    argv = [write(tmp_path, text), "--seed", str(seed), "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    streamed = out.read_bytes()
    monkeypatch.setattr(cli, "_record_chunks", lambda rc, result: [whole_record_json(rc, result)])
    for module in (cli, experiments, simulator):
        monkeypatch.setattr(module, "_csv", lambda *args: [whole_csv(*args)])
    assert main(argv) == 0
    assert_same_text(out.read_bytes(), streamed)


def test_simulate_csv_without_an_output_path_renders_nothing(tmp_path, monkeypatch, capsys):
    cfg = write(tmp_path, SIMULATE_LONG)
    assert main([cfg, "--out", str(tmp_path / "walk.csv")]) == 0
    written = capsys.readouterr().out
    monkeypatch.setattr(cli, "_trajectory_csv", None)  # calling it would fail
    assert main([cfg]) == 0
    assert capsys.readouterr().out == written


def test_simulate_csv_memory_does_not_grow_with_the_horizon(tmp_path):
    # each block's rows are written as it is drawn; holding the path, its
    # text and the encoded text took about 115 bytes an event
    cfg = write(tmp_path, "command: simulate\nsimulate: {horizon: 100.0}\n")
    out = str(tmp_path / "walk.csv")
    assert main([cfg, "--out", out]) == 0  # one-time set-up, not measured
    peaks = []
    for horizon in (2e5, 8e5):
        tracemalloc.start()
        try:
            assert main([cfg, "--set", f"simulate.horizon={horizon}", "--out", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert os.path.getsize(out) > 20e6
    assert max(peaks) <= 4e6
    assert peaks[1] <= peaks[0] + 0.5e6


class _FullDisk:
    """A file whose second write fails as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(text)


class TestStreamedWriteFailures:
    """A failure part-way through a stream leaves the target as it was
    and no temp file behind."""

    def run(self, tmp_path, capsys):
        cfg = write(tmp_path, "command: simulate\nsimulate: {horizon: 10000.0}\n")
        out = tmp_path / "walk.csv"
        out.write_text("old\n")
        code = main([cfg, "--out", str(out)])
        assert out.read_text() == "old\n"
        assert [n for n in os.listdir(tmp_path) if n.startswith(".driftlab-")] == []
        return code, capsys.readouterr().err

    def test_value_error_after_the_first_block_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        event_blocks = cli._event_blocks

        def failing(*args, **kwargs):
            blocks = event_blocks(*args, **kwargs)
            yield next(blocks)
            assert any(n.startswith(".driftlab-") for n in os.listdir(tmp_path))
            raise ValueError("phi is not finite at z=3")

        monkeypatch.setattr(cli, "_event_blocks", failing)
        code, err = self.run(tmp_path, capsys)
        assert code == 2
        assert err == "driftlab: config error: simulate: phi is not finite at z=3\n"

    def test_os_error_while_writing_exits_3(self, tmp_path, monkeypatch, capsys):
        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda *a, **kw: _FullDisk(fdopen(*a, **kw)))
        code, err = self.run(tmp_path, capsys)
        assert code == 3
        assert "cannot write output" in err and os.strerror(errno.ENOSPC) in err


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_a_new_output_gets_the_umask_mode(tmp_path, umask):
    cfg = write(tmp_path, CLASSIFY_CL3)
    out = tmp_path / "rec.json"
    before = os.umask(umask)
    try:
        assert main([cfg, "--out", str(out)]) == 0
    finally:
        os.umask(before)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_an_overwritten_output_keeps_its_mode(tmp_path):
    cfg = write(tmp_path, SIMULATE_SMALL)
    out = tmp_path / "walk.csv"
    out.write_text("old\n")
    out.chmod(0o640)
    assert main([cfg, "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_text().startswith("tau,signed_jump,z_after\n")


# Run in a fresh interpreter, so that no other test's imports count: the
# serial experiment and the martingale check must not load the process
# pool's modules or numpy.polynomial.
IMPORT_PROBE = """\
import json, sys
from driftlab.cli import main
for cfg, out in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main([cfg, "--out", out]) == 0
print(json.dumps(sorted(
    m for m in ("concurrent.futures", "multiprocessing", "numpy.polynomial")
    if m in sys.modules
)))
"""


def test_a_serial_run_imports_no_pool_and_no_polynomial(tmp_path):
    argv = []
    for name in ("experiment", "check-martingale"):
        argv += [write(tmp_path, SEEDED_CONFIGS[name], f"{name}.yaml"),
                 str(tmp_path / f"{name}.json")]
    src = os.path.dirname(os.path.dirname(driftlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []


# Run in a fresh interpreter, after numpy when argv[1] says so: the
# OpenBLAS thread count that import driftlab.cli leaves, and the
# process's threads (None off Linux).
BLAS_PROBE = """\
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
import driftlab.cli
threads = None
if sys.platform.startswith("linux"):
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


@pytest.mark.parametrize(
    "order,caller,want",
    [("driftlab-first", None, "1"), ("driftlab-first", "3", "3"), ("numpy-first", None, None)],
    ids=["unset", "caller-set", "numpy-first"],
)
def test_driftlab_starts_openblas_single_threaded(order, caller, want):
    src = os.path.dirname(os.path.dirname(driftlab.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    done = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE, order],
        env=env, capture_output=True, text=True, check=True,
    )
    value, threads = json.loads(done.stdout.splitlines()[-1])
    assert value == want
    if want == "1" and threads is not None:
        assert threads == 1


def test_the_package_exports_each_modules_all():
    from driftlab import classifier, experiments, fields, simulator

    modules = (classifier, experiments, fields, simulator)
    names = ["__version__", "path_seed", *(n for m in modules for n in m.__all__)]
    assert len(set(names)) == len(names)
    assert sorted(driftlab.__all__) == sorted(names)
    star: dict = {}
    exec("from driftlab import *", star)  # raises if a name does not resolve
    assert set(star) - {"__builtins__"} == set(names)
    for m in modules:
        assert all(getattr(driftlab, n) is getattr(m, n) for n in m.__all__)


BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def test_the_package_makes_no_blas_call():
    # OpenBLAS runs single-threaded because driftlab never calls it (see
    # driftlab/__init__.py), so a BLAS call must be added on purpose: any
    # @ fails, and so does any of these names as an attribute (np.dot,
    # a.dot) or in an import, the only ways a bare name could be bound
    found = []
    for path in sorted(pathlib.Path(driftlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names = ["@"]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = node.name.split(".")
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {n}" for n in names
                      if n == "@" or n in BLAS_NAMES]
    assert found == []


def test_the_package_imports_only_numpy_yaml_and_the_stdlib():
    # scipy is a dev extra and a test oracle; the package must run without it
    allowed = {"numpy", "yaml", "driftlab", *sys.stdlib_module_names}
    found = []
    for path in sorted(pathlib.Path(driftlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import is the package's own
            found += [f"{path.name}:{node.lineno}: {n}" for n in names
                      if n.split(".")[0] not in allowed]
    assert found == []
