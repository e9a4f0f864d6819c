"""``cli.main`` declares only the subcommand its argv names, and that parser
behaves as the full one: the same namespace on valid argv, the same help
text, and the same stderr and exit code on missing, bad and unknown
options."""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwlkit import cli
from pwlkit.network import ACTIVATION_KINDS

WORDS = st.text("abcxyz019._/", min_size=1, max_size=8)
INTS = st.integers(-5, 500).map(str)
FLOATS = st.floats(allow_nan=False, width=32).map(repr)
BOX = st.sampled_from(["0:1,0:1", "-1:1", "0:1,0:2,0:3"])

# Per subcommand: required options, optional ones, and valid values of each.
OPTIONS = {
    "fit": ({"--data": WORDS, "--kind": st.sampled_from(["hh", "ahh", "sbf", "dnn"]),
             "--out": WORDS},
            {"--trace": WORDS, "--config": WORDS,
             "--header": st.sampled_from(["1", "true", "YES", "0", "False", "no"]),
             "--max-terms": INTS, "--seed": INTS, "--ridge": FLOATS,
             "--validation-split": FLOATS, "--hidden": st.sampled_from(["16,16", "3", "2,4,8"]),
             "--activation": st.sampled_from([*ACTIVATION_KINDS, "linear"]),
             "--learning-rate": FLOATS, "--batch-size": INTS, "--epochs": INTS}),
    "eval": ({"--model": WORDS}, {"--out": WORDS}),
    "convert": ({"--model": WORDS, "--to": st.sampled_from(cli.CONVERSIONS), "--out": WORDS},
                {"--box": BOX, "--density": INTS, "--tolerance": FLOATS}),
    "validate": ({"--model": WORDS}, {}),
    "regions": ({"--model": WORDS},
                {"--box": BOX, "--out": WORDS,
                 "--method": st.sampled_from(["pattern-enumeration", "grid-probe"])}),
    "equiv": ({"--model-a": WORDS, "--model-b": WORDS, "--box": BOX},
              {"--density": INTS, "--tolerance": FLOATS}),
    "trace-export": ({"--trace": WORDS}, {"--out": WORDS}),
}
# Values the option's type or choices refuse.
BAD_VALUES = {"--kind": "svm", "--header": "maybe", "--max-terms": "1.5", "--seed": "x",
              "--ridge": "abc", "--validation-split": "1,2", "--hidden": "0,4",
              "--activation": "tanh", "--learning-rate": "fast", "--batch-size": "",
              "--epochs": "1e3", "--to": "spline", "--density": "33.0",
              "--tolerance": "tiny", "--method": "guess"}


@st.composite
def argv_lists(draw, command, defect=None):
    """A valid argv list for ``command``; with ``defect`` one required option
    dropped, one typed value made bad, or one unknown option added."""
    required, optional = OPTIONS[command]
    chosen = dict(required)
    chosen.update({k: v for k, v in optional.items() if draw(st.booleans())})
    if command == "eval":
        chosen[draw(st.sampled_from(["--points", "--grid"]))] = WORDS
    values = {k: draw(v) for k, v in chosen.items()}
    if defect == "missing":
        del values[draw(st.sampled_from(sorted(required)))]
    elif defect == "bad":
        typed = sorted({*values, *required, *optional} & set(BAD_VALUES))
        if not typed:
            return [command, "--bogus"]
        key = draw(st.sampled_from(typed))
        values[key] = BAD_VALUES[key]
    keys = draw(st.permutations(sorted(values)))
    argv = [command]
    for k in keys:
        # argparse takes "-1e3" for an option unless it is joined by "="
        joined = values[k].startswith("-") or draw(st.booleans())
        argv += [f"{k}={values[k]}"] if joined else [k, values[k]]
    if defect == "unknown":
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(
            ["--bogus", "-x", "extra", "--outfile", "--model-c=1"])))
    return argv


def full_parser(command=None, build=cli.build_parser):
    return build()


def run_main(argv, full=False):
    """Exit code, stdout and stderr of ``cli.main``, ``--help`` included;
    with ``full`` through a parser that declares every subcommand."""
    out, err = io.StringIO(), io.StringIO()
    build = cli.build_parser
    cli.build_parser = full_parser if full else build
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = ("exit", e.code)
    finally:
        cli.build_parser = build
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=40, deadline=None)
@pytest.mark.parametrize("command", sorted(OPTIONS))
@given(data=st.data())
def test_one_subcommand_parses_as_full_parser(command, data):
    argv = data.draw(argv_lists(command))
    assert cli.build_parser(command).parse_args(argv) == full_parser().parse_args(argv)


@settings(derandomize=True, max_examples=40, deadline=None)
@pytest.mark.parametrize("command", sorted(OPTIONS))
@pytest.mark.parametrize("defect", ["missing", "bad", "unknown"])
@given(data=st.data())
def test_usage_errors_match_full_parser(command, defect, data):
    argv = data.draw(argv_lists(command, defect))
    mine = run_main(argv)
    assert mine == run_main(argv, full=True)
    assert mine[0] == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [[c, "--help"] for c in OPTIONS] + [
    [c, "-h", "--bogus"] for c in OPTIONS] + [
    [], ["-h"], ["--help"], ["bogus"], ["Fit"], ["--data", "x"], ["-x", "fit"]])
def test_help_and_unknown_commands_match_full_parser(argv):
    assert run_main(argv) == run_main(argv, full=True)


def test_commands_are_the_full_parsers_subcommands():
    sub = next(a for a in full_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == cli.COMMANDS
    assert set(OPTIONS) == set(cli.COMMANDS)


@pytest.mark.parametrize("argv, declared", [
    *[([c, "--bogus"], 1) for c in cli.COMMANDS],
    ([], 7), (["bogus"], 7), (["-h"], 7)])
def test_main_declares_only_the_named_subcommand(argv, declared, monkeypatch):
    calls = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: calls.append(name) or add_parser(self, name, **kw))
    run_main(argv)
    assert len(calls) == declared
    if declared == 1:
        assert calls == argv[:1]


def test_activation_choices_are_the_network_kinds_and_linear():
    assert cli.ACTIVATIONS == (*ACTIVATION_KINDS, "linear")
