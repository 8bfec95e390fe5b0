"""The CLI's option table against the argparse parser it replaced
(``oracles._parser``), and the ``--out`` refusal made before any command
runs.

Both parsers see the same argv.  They agree when they return equal
namespaces, or exit with the same code: 2 for a usage error, 0 for
-h/--help and --version.  The corpus is the CLI fuzz strategy of
``test_render_cli`` and a list of malformed and edge forms.
"""

import contextlib
import io
import itertools
import time

import pytest
from hypothesis import given, settings

from sweyl import cli, verify
from sweyl.cli import main

from oracles import _parser
from test_render_cli import _argv


def _outcome(parse, argv):
    """Sorted (name, repr) pairs of the namespace, or the exit code; repr
    tells 2 from 2.0 and lets nan equal nan."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return sorted((k, repr(v)) for k, v in vars(parse(argv)).items())
        except SystemExit as exc:
            return exc.code


def _assert_same(argv):
    want = _outcome(_parser().parse_args, list(argv))
    assert _outcome(cli.parse_args, list(argv)) == want, argv


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_parse_args_matches_argparse_on_the_fuzz_corpus(argv):
    _assert_same(argv + ["--out", "out"])


SIGNED = ["-1", "-0.5", "-1e3", "-inf"]

FORMS = {
    "dropped value": [["purities", "--n"], ["purities", "--state"],
                      ["verify", "--quad-tol"], ["star", "--s", "--n", "2"],
                      ["purities", "--out"]],
    "unknown flag": [["purities", "--bogus"], ["purities", "--bogus", "x"],
                     ["--bogus", "purities"], ["phasespace", "--format",
                                               "json"],
                     ["purities", "--version"], ["purities", "-x"],
                     ["purities", "x"]],
    "bad value": [["purities", "--n", "x"], ["duality", "--samples", "1.5"],
                  ["purities", "--s", "one"], ["verify", "--quad-tol", "tiny"],
                  ["purities", "--seed", ""], ["purities", "--qrt", "qubit"],
                  ["purities", "--format", "xml"],
                  ["phasespace", "--projection", "mercator"]],
    "prefix": [["purities", "--sp", "3/2"], ["purities", "--st", "ghz"],
               ["purities", "--se", "3"], ["purities", "--f", "json"],
               ["phasespace", "--p", "robinson"], ["star", "--po", "3"],
               ["verify", "--qu", "1e-6"], ["verify", "--qr", "fermionic"],
               ["duality", "--sa", "5"], ["purities", "--s", "0.5"],
               ["verify", "--q", "spin"], ["verify", "--q=spin"],
               ["purities", "--he"], ["--vers"], ["--h"]],
    "= form": [["purities", "--n=3"], ["purities", "--state=m=1"],
               ["purities", "--st=hw", "--sp=1/2"], ["purities", "--state="],
               ["purities", "--s="], ["purities", "--s=-1e3"],
               ["purities", "--help=x"], ["--version=1"], ["purities", "-h=x"],
               ["purities", "--=x"], ["purities", "--bogus=1"]],
    "signed value": [["purities", flag, value] for flag, value
                     in itertools.product(["--s", "--seed"], SIGNED)]
                    + [["purities", f"{flag}={value}"] for flag, value
                       in itertools.product(["--s", "--seed"], SIGNED)]
                    + [["purities", "--s", "-.5"], ["purities", "--s", "-5."],
                       ["purities", "--state", "-x y"],
                       ["purities", "--state", "-"]],
    "command": [[], ["bogus"], ["--n", "2"], ["--n", "2", "purities"],
                ["-1"], ["--", "purities"]],
    "help and version": [["-h"], ["--help"], ["--version"], ["purities", "-h"],
                         ["verify", "--help"], ["-h", "bogus"],
                         ["bogus", "-h"], ["purities", "--bogus", "-h"],
                         ["purities", "--n", "x", "-h"], ["purities", "-hx"],
                         ["--version", "-h"], ["verify", "-h", "--q"],
                         ["purities", "-h", "--"], ["purities", "--", "-h"]],
    "given twice": [["purities", "--n", "1", "--n", "3"],
                    ["phasespace", "--grid", "2x4", "--grid=4x8"],
                    ["purities", "--format", "json", "--format", "csv"],
                    ["purities", "--state", "hw", "--st", "ghz", "--s", "1",
                     "--s=-1"]],
    "double dash": [["purities", "--"], ["purities", "--s", "--", "1"],
                    ["purities", "--s", "1", "--"]],
}


@pytest.mark.parametrize("argv", [a for forms in FORMS.values()
                                  for a in forms])
def test_parse_args_matches_argparse_on_malformed_forms(argv):
    _assert_same(argv)


def test_usage_errors_print_usage_and_one_error_line(capsys):
    for argv, phrase in [(["purities", "--bogus"], "unrecognized arguments"),
                         (["purities", "--qrt", "x"], "invalid choice"),
                         (["purities", "--n", "x"], "invalid int value"),
                         (["purities", "--n"], "expected one argument")]:
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(argv)
        assert exc.value.code == 2
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: sweyl")
        assert error.startswith("sweyl: error: ") and phrase in error


def test_help_and_version_print_to_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "0.1.0\n"
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["-h"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--flag=VALUE" in text
    assert all(f"\n{command}  " in text for command in cli._COMMANDS)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("out", ["blocker", "blocker/sub", ""],
                         ids=["file", "under-a-file", "empty"])
def test_out_that_is_not_a_directory_exits_2(tmp_path, capsys, monkeypatch,
                                              command, out):
    def no_model(*args, **kwargs):
        raise AssertionError("a model was built before --out was checked")

    monkeypatch.setattr(verify, "make_model", no_model)
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    start = time.perf_counter()
    code = main([command, "--out", out])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert "Traceback" not in err and "not a directory" in err
    assert blocker.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [blocker]


def test_out_under_missing_directories_is_made(tmp_path):
    out = tmp_path / "a" / "b"
    assert main(["purities", "--spin-S", "1", "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["purities.csv"]
