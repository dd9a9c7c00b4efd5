"""The README's "Command line" examples, run in process."""

import re
import shlex
from pathlib import Path

from branchalg.cli import main
from branchalg.finra import enumerate_integral, format_structure, make_proper_ra

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_lines():
    """The argv of every `branchalg ...` line of the Command line block."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("branchalg ")
    ]


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    # the files the examples name: a 1'abb~ class and the relations on 2 points
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_algebra.ra").write_text(format_structure(enumerate_integral("1'abb~")[0]))
    (tmp_path / "re2.ra").write_text(format_structure(make_proper_ra(2)))
    outputs = {}
    for argv in _command_lines():
        code = main(argv)
        outputs[tuple(argv)] = capsys.readouterr().out
        assert code == 0, argv
    # the outputs the block's comments state
    assert outputs["enumerate", "1'ab"] == "total=7\n"
    assert outputs["eval", "a;conv(a) & b;conv(b)"] == "{L.0=R.0; L.1=R.1}\n"
    profile = outputs["check-jlm", "1'abb~", "--tsv", "profile.tsv"].splitlines()[-1]
    assert re.findall(r"=(\d+)", profile) == "5 0 2 0 0 0 2 28".split()
    assert (tmp_path / "profile.tsv").read_text().splitlines()[1].split("\t")[2:] == (
        "5 0 2 0 0 0 2 28".split()
    )
