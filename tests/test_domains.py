"""Every parameter's declared domain, walked from the registry: values inside
it are accepted and read back unchanged, values just outside it, NaN, +-inf,
an empty list and an unknown choice are rejected by name, and the echoed
config and each --help default replay as the values they state."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowlab import experiments
from arrowlab.cli import GLOBAL_PARAMS, ConfigError, main, validate_config

# (experiment, param) for every parameter of the registry; the global
# parameters are the same on every experiment, so they are walked once
PARAMS = [(name, p) for name, e in experiments.EXPERIMENTS.items() for p in e.params]
PARAMS += [("decorrelate", p) for p in GLOBAL_PARAMS]
IDS = [f"{name}-{p.key}" for name, p in PARAMS]


def as_text(param, value) -> str:
    """A value as its flag or config line writes it."""
    if param.kind == "dims":
        return f"{value[0]}x{value[1]}"
    if param.kind == "float_list":
        return ",".join(map(repr, value))
    return repr(value) if param.kind == "float" else str(value)


def inside(param):
    """Strategy of the values inside a parameter's domain."""
    if param.kind == "choice":
        return st.sampled_from(param.domain)
    if param.kind == "str":
        return st.text()
    lo, hi = param.domain
    if param.kind in ("int", "dims"):
        ints = st.integers(lo, None if hi == math.inf else hi)
        return ints if param.kind == "int" else st.tuples(ints, ints)
    floats = st.floats(lo, hi)
    return floats if param.kind == "float" else st.lists(floats, min_size=1, max_size=4).map(tuple)


# lists with an empty entry, inside every list domain but for that entry
EMPTY_ENTRIES = ("0,,1", "1,", ",1")


def boundary_cases(param) -> list[tuple[str, bool]]:
    """(text, accepted) at the edges of a parameter's domain: each closed
    bound, the next value outside it, NaN, +-inf, an empty list, a list with
    an empty entry and an unknown choice."""
    if param.kind == "str":
        return []
    if param.kind == "choice":
        return [(c, True) for c in param.domain] + [("bogus", False), (param.domain[0].upper(), False)]
    lo, hi = param.domain
    if param.kind == "float" or param.kind == "float_list":
        edges = [(lo, True), (hi, True), (math.nextafter(lo, -math.inf), False), (math.nextafter(hi, math.inf), False)]
        edges += [(math.nan, False), (math.inf, False), (-math.inf, False)]
        if param.kind == "float":
            return [(repr(x), ok) for x, ok in edges]
        # a list is as good as its worst entry
        return [(f"{lo!r},{x!r}", ok) for x, ok in edges] + [(text, False) for text in ("", ",", *EMPTY_ENTRIES)]
    edges = [(lo, True), (lo - 1, False)] + ([(hi, True), (hi + 1, False)] if hi != math.inf else [])
    edges += [("nan", False), ("inf", False), ("-inf", False)]
    if param.kind == "int":
        return [(str(x), ok) for x, ok in edges]
    return [(f"{x}x{lo}", ok) for x, ok in edges] + [(f"{lo}x{x}", ok) for x, ok in edges]


@pytest.mark.parametrize(("name", "param"), PARAMS, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_values_inside_the_domain_are_accepted_unchanged(name, param, data):
    value = data.draw(inside(param))
    assert validate_config(name, overrides={param.key: as_text(param, value)})[param.key] == value


@pytest.mark.parametrize(("name", "param"), PARAMS, ids=IDS)
def test_boundary_values_are_accepted_or_rejected_with_the_domain_in_words(name, param, capsys):
    for text, accepted in boundary_cases(param):
        if accepted:
            validate_config(name, overrides={param.key: text})
            continue
        with pytest.raises(ConfigError) as exc:
            validate_config(name, overrides={param.key: text})
        assert exc.value.key == param.key, text
        # a text that does not parse as the param's kind is named as well
        assert str(exc.value) in (f"invalid value for {param.key!r}: {param.rule()}{tail}" for tail in ("", f", not {text!r}"))
        # through the CLI: exit 1 and that one line
        assert main([name, f"--{param.key}={text}"]) == 1, text
        assert capsys.readouterr().err == f"arrowlab: error: {exc.value}\n"


@pytest.mark.parametrize("text", [",", *EMPTY_ENTRIES])
def test_an_empty_list_entry_is_rejected_with_the_text(text, capsys):
    lists = [(name, p) for name, p in PARAMS if p.kind == "float_list"]
    assert lists
    for name, param in lists:
        assert main([name, f"--{param.key}={text}"]) == 1
        assert capsys.readouterr().err == f"arrowlab: error: invalid value for {param.key!r}: {param.rule()}, not {text!r}\n"


def test_rules_state_each_domain_in_words():
    rules = {(name, p.key): p.rule() for name, p in PARAMS if p.kind != "str"}
    assert rules[("crooks", "beta")] == "must be finite and > 0"
    assert rules[("collide", "theta")] == "must be finite"
    assert rules[("balance", "trials")] == "must be an integer >= 1"
    assert rules[("near-product", "epsilon")] == "must be in [0.0, 1.0]"
    assert rules[("search", "epsilon")] == "must be in [1e-05, 1.0]"
    assert rules[("collide", "collisions")] == "must be an integer in [1, 11]"
    assert rules[("balance", "dims")] == "must be AxB, each factor an integer in [2, 16]"
    assert rules[("sweep", "eps-values")] == "must be a non-empty list, each value in [0.0, 1.0]"
    assert rules[("decorrelate", "format")] == "must be one of csv, json"


# one non-default configuration per experiment: negative floats, lists,
# dims and choices, small enough to run in a moment
NON_DEFAULT = {
    "balance": {"trials": "3", "dims": "3x2", "seed": "7", "units": "bits"},
    "near-product": {"epsilon": "0.25", "out": "-"},
    "decorrelate": {"seed": "3", "units": "bits"},
    "search": {"trials": "1", "restarts": "2", "max-iter": "5", "min-mi": "0.05", "demo": "near-product", "epsilon": "0.3"},
    "schrodinger": {"trials": "2", "dims": "2x3"},
    "sweep": {"g-values": "-1.5,0,2.25", "eps-values": "0,1", "t-values": "0.5", "gap-s": "-0.75", "gap-r": "1e-3"},
    "collide": {"collisions": "3", "theta": "-0.4", "beta": "2.5", "mode": "reduced", "init": "random"},
    "crooks": {"trials": "2", "beta": "0.5", "dims": "3x2"},
    "jarzynski": {"trials": "2", "beta": "0.5", "dims": "2x3"},
    "heatflow": {"trials": "2", "seed": "18446744073709551615"},
    "damping": {"trials": "1", "beta": "0.3"},
}


@pytest.mark.parametrize("changed", [False, True], ids=["defaults", "changed"])
@pytest.mark.parametrize("name", list(experiments.EXPERIMENTS))
def test_config_echo_replays_as_a_config_file(capsys, name, changed):
    overrides = NON_DEFAULT[name] if changed else {}
    expected = validate_config(name, overrides=overrides).values
    if changed:
        assert all(expected[k] != validate_config(name)[k] for k in overrides if k != "out")
    # the = form passes a negative value such as --theta=-0.4 as the flag's value
    assert main([name, *(f"--{k}={v}" for k, v in overrides.items())]) == 0
    echo = "".join(line[len("# config.") :] + "\n" for line in capsys.readouterr().out.splitlines() if line.startswith("# config."))
    assert validate_config(name, echo).values == expected


@pytest.mark.parametrize("name", list(experiments.EXPERIMENTS))
def test_each_help_default_replays_as_its_flag(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "1000")  # one line per flag
    with pytest.raises(SystemExit):
        main([name, "--help"])
    lines = {line.split()[0][2:]: line for line in capsys.readouterr().out.splitlines() if line.startswith("  --")}
    for param in (*experiments.EXPERIMENTS[name].params, *GLOBAL_PARAMS):
        line = lines[param.key]
        assert line.endswith(")") and "(default " in line
        text = line[line.rindex("(default ") + len("(default ") : -1]
        assert validate_config(name, overrides={param.key: text})[param.key] == param.default
        if param.kind != "str":
            assert param.rule() in line
    if name == "balance":
        assert lines["dims"].endswith("(default 2x2)")


@pytest.mark.parametrize("argv", [["collide", "--collisions", "2", "--theta=-1e-3"], ["sweep", "--t-values", "1", "--gap-s=-1e8"]])
def test_negative_exponent_values_run_in_the_equals_form(capsys, argv):
    # argparse reads "--gap-s -1e8" as a flag without its value
    assert main(argv) == 0
    key, value = argv[-1][2:].split("=")
    assert f"# config.{key}={float(value)!r}" in capsys.readouterr().out
