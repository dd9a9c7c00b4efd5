import contextlib
import gc
import hashlib
import io
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from test_terms import TERM_TEXT

from branchalg import cli, laws, model
from branchalg.cli import main
from branchalg.finra import (
    STRETCH_SIGNATURES,
    format_structure,
    make_proper_ra,
    normalize_signature,
)
from branchalg.terms import MAX_DEPTH


@pytest.fixture
def re2_file(tmp_path):
    path = tmp_path / "re2.ra"
    path.write_text(format_structure(make_proper_ra(2)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse(capsys):
    code, out, _ = run(capsys, ["parse", "conv(a) ; b & id"])
    assert code == 0
    assert out.strip() == "conv(a);b & id"


def test_parse_j_mode_error(capsys):
    code, _, err = run(capsys, ["parse", "x + y", "--signature", "J"])
    assert code == 2
    assert "error:" in err


def test_eval_branchrel(capsys):
    code, out, _ = run(capsys, ["eval", "conv(a);b"])
    assert code == 0
    assert out.strip() == "1"  # the universal relation
    code, out, _ = run(capsys, ["eval", "a;conv(a) & b;conv(b)"])
    assert code == 0
    assert out.strip() == "{L.0=R.0; L.1=R.1}"


@pytest.mark.parametrize(
    "text, missing", [("a + b", "join"), ("id & -(a)", "complement")]
)
def test_eval_of_an_operator_the_model_lacks(capsys, text, missing):
    code, out, err = run(capsys, ["eval", text])
    assert (code, out, err) == (2, "", f"error: model branchrel has no {missing}\n")


def test_eval_on_structure_file(capsys, re2_file):
    # names are not stored in the file format; the loader assigns defaults
    code, out, _ = run(capsys, ["eval", "id;1", "--model", re2_file])
    assert code == 0, out
    assert out.strip() == "e0+a+a~+e3"


@pytest.mark.parametrize(
    "header", ["atoms=3 identity=0 converse=0,2,1", "atoms=3 identity=2 converse=1,0,2"]
)
def test_eval_prints_the_identity_atom_by_its_name(capsys, tmp_path, header):
    path = tmp_path / "triple.ra"
    path.write_text(f"{header}\n")
    assert run(capsys, ["eval", "id", "--model", str(path)]) == (0, "1'\n", "")


def test_eval_names_nine_self_converse_diversity_atoms(capsys, tmp_path):
    # diversity letters run a to z, so any file of at most 12 atoms is named
    path = tmp_path / "ten.ra"
    path.write_text("atoms=10 identity=0 converse=" + ",".join(map(str, range(10))))
    code, out, err = run(capsys, ["eval", "1", "--model", str(path)])
    assert (code, out, err) == (0, "1'+a+b+c+d+e+f+g+h+i\n", "")


def test_check_law_pass_and_fail(capsys, re2_file):
    code, out, _ = run(capsys, ["check-law", "p7", "--seed", "0"])
    assert code == 0
    assert out.startswith("LAW p7 pass tested=200")
    code, out, _ = run(
        capsys, ["check-law", "p2", "--strategy", "exhaustive", "--model", re2_file]
    )
    assert code == 0
    code, _, err = run(capsys, ["check-law", "no-such-law"])
    assert code == 2


def test_suite_t(capsys, suite_runs):
    code, out, _ = run(capsys, ["suite", "T"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert sum(": pass" in ln for ln in lines) == 6
    assert lines[-1] == "SUITE T pass relations=6 failed=[]"


def test_suite_usage_error(capsys):
    code, _, _ = run(capsys, ["suite", "nope"])
    assert code == 2


# sha256 of the full stdout of the suites that bind sample values to
# quantified equations, recorded when each pair or draw was a substituted term
QUANTIFIED_SUITE_STDOUT = {
    ("M", 0): "ac38d4bf7b17138c0399a3327e076bbc2c2e9c127a378f41c9efe5c4c0c0e0ba",
    ("M", 1): "ac38d4bf7b17138c0399a3327e076bbc2c2e9c127a378f41c9efe5c4c0c0e0ba",
    ("fork", 0): "42fb2802302ce498c5b37b74d0d49fce938d62cb0d15257160634fb59339ea04",
    ("fork", 1): "1463e5b133401fd3d56a548252d8f57fc80d164f958177a0abf3ff058d406045",
    ("pairing", 0): "82a5cd59a754ec62c4b1049b7487b4f6112129be6a2571b14bcfb52e93b8552a",
    ("pairing", 1): "e3079c3cd54eb0b0c764a1ff0c4424d705e534685340cf582624d885ef8dfbe9",
}


@pytest.mark.parametrize("suite_id, seed", sorted(QUANTIFIED_SUITE_STDOUT))
def test_quantified_suite_stdout_is_pinned(capsys, suite_id, seed):
    code, out, err = run(capsys, ["suite", suite_id, "--seed", str(seed)])
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == QUANTIFIED_SUITE_STDOUT[suite_id, seed]


def test_enumerate(capsys):
    code, out, _ = run(capsys, ["enumerate", "1'ab"])
    assert code == 0
    assert out.strip() == "total=7"


def test_enumerate_writes_structures(capsys, tmp_path):
    out_path = tmp_path / "structures.txt"
    code, out, _ = run(capsys, ["enumerate", "1'a", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.count("atoms=2") == 2


STRETCH_GUARD = (
    'error: signature "1\'abcd" is a stretch target;'
    " pass --stretch (stretch=True from Python) to run it\n"
)


def test_enumerate_stretch_guard(capsys):
    assert run(capsys, ["enumerate", "1'abcd"]) == (2, "", STRETCH_GUARD)


def test_enumerate_six_atom_stretch_guard(capsys):
    guard = STRETCH_GUARD.replace("1'abcd", "1'abb~cc~")
    assert run(capsys, ["enumerate", "1'abb~cc~"]) == (2, "", guard)


@pytest.mark.parametrize("tsv", [False, True])
def test_check_jlm_stretch_guard(capsys, tmp_path, tsv):
    # a stretch row without --stretch is a usage error naming the flag; it
    # is never read as a structure file or refused as a non-signature
    tsv_path = tmp_path / "row.tsv"
    argv = ["check-jlm", "1'abcd"] + (["--tsv", str(tsv_path)] if tsv else [])
    assert run(capsys, argv) == (2, "", STRETCH_GUARD)
    assert not tsv_path.exists()


def test_check_jlm_signature(capsys):
    code, out, _ = run(capsys, ["check-jlm", "1'ab"])
    assert code == 0
    assert "total=7" in out and "fail:none=7" in out


def test_check_jlm_tsv(capsys, tmp_path):
    tsv = tmp_path / "row.tsv"
    code, out, _ = run(capsys, ["check-jlm", "1'ab", "--tsv", str(tsv)])
    assert code == 0
    lines = tsv.read_text().strip().splitlines()
    assert lines[0].startswith("signature\ttotal\tfail:JLM")
    assert lines[1] == "1'ab\t7\t0\t0\t0\t0\t0\t0\t0\t7"


def test_suite_emit_terms(capsys):
    code, out, _ = run(capsys, ["suite", "F", "--emit-terms"])
    assert code == 0
    assert "K = a" in out and "U = conv(a) & conv(b)" in out


def test_check_jlm_file(capsys, re2_file):
    code, out, _ = run(capsys, ["check-jlm", re2_file])
    assert code == 0
    assert "J=pass L=pass M=pass" in out


def test_check_jlm_elements_identity_not_a_table_identity(capsys, tmp_path):
    # a valid cycle-closed file whose identity atom is not the unit of its
    # composition table: element mode uses the declared identity, as atom
    # mode does
    path = tmp_path / "two.ra"
    path.write_text("atoms=2 identity=0 converse=0,1\ncycle 1 1 1\n")
    for argv in (["check-jlm", str(path)], ["check-jlm", str(path), "--elements"]):
        code, out, err = run(capsys, argv)
        mode = "elements" if "--elements" in argv else "atoms"
        assert (code, err) == (0, "")
        assert out == f"JLM {path} mode={mode} J=pass L=pass M=pass\n"


def test_represent(capsys, re2_file):
    code, out, _ = run(
        capsys,
        ["represent", re2_file, "--v", "0", "--w", "a", "--stages", "8", "--seed", "0"],
    )
    assert code == 0, out
    assert "stages=8 pass" in out


def test_represent_on_re3(capsys, tmp_path):
    path = tmp_path / "re3.ra"
    path.write_text(format_structure(make_proper_ra(3)))
    code, out, _ = run(
        capsys, ["represent", str(path), "--v", "0", "--w", "a", "--stages", "5"]
    )
    assert code == 0, out
    assert out.splitlines()[-1] == f"REPRESENT {path} v=0 w=a stages=5 pass"


# full stdout of represent: a different schedule or stage flag changes it,
# and so does a different first witness on the last two pairs, whose w has
# more than one witness ("{path}" stands for the structure file)
REPRESENT_PINS = {
    "re2-seed0": (2, ["--v", "0", "--w", "a", "--stages", "50", "--seed", "0"]),
    "re2-seed1": (2, ["--v", "0", "--w", "a", "--stages", "50", "--seed", "1"]),
    "re2-v-e0": (2, ["--v", "e0", "--w", "e0+a+e3", "--stages", "50"]),
    "re3": (3, ["--v", "0", "--w", "e0+b+c", "--stages", "20"]),
}


@pytest.mark.parametrize("case", sorted(REPRESENT_PINS))
def test_represent_output_is_pinned(capsys, tmp_path, case):
    points, args = REPRESENT_PINS[case]
    path = tmp_path / f"re{points}.ra"
    path.write_text(format_structure(make_proper_ra(points)))
    code, out, err = run(capsys, ["represent", str(path), *args])
    golden = Path(__file__).parent / "golden" / f"represent-{case}.txt"
    assert (code, out, err) == (0, golden.read_text().replace("{path}", str(path)), "")


def test_represent_output_on_every_re2_pair_is_pinned(capsys, tmp_path):
    # full stdout of every strict pair v < w of Re(2) at seed 0, hashed
    path = tmp_path / "re2.ra"
    path.write_text(format_structure(make_proper_ra(2)))
    s = cli._load_structure(str(path))
    outs = []
    for w in range(1, s.n_elements):
        for v in range(s.n_elements):
            if v != w and s.leq(v, w):
                argv = ["represent", str(path), "--v", s.format_element(v),
                        "--w", s.format_element(w), "--stages", "20", "--seed", "0"]
                code, out, err = run(capsys, argv)
                assert (code, err) == (0, ""), argv
                outs.append(out.replace(str(path), "{path}"))
    assert len(outs) == 65
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
        "971cfdf82d6544fedd7e9d6fc35a39aa6f6b0230cdc42a804de5f8291b7f96aa"
    )


def test_represent_not_tabular(capsys, tmp_path):
    # the two-atom structure whose diversity atom composes flexibly
    path = tmp_path / "flex.ra"
    path.write_text(
        "atoms=2 identity=0 converse=0,1\ncycle 0 0 0\ncycle 0 1 1\ncycle 1 1 1\n"
    )
    code, _, err = run(
        capsys, ["represent", str(path), "--v", "0", "--w", "a", "--stages", "5"]
    )
    assert code == 2
    assert "tabular" in err


NOT_RELATION_ALGEBRAS = {
    # 1' ; a is 0, not a
    "identity-broken": "atoms=2 identity=0 converse=0,1\ncycle 0 0 0\n",
    # a ; b is 0, so a ; (a ; b) is 0 but (a ; a) ; b is b
    "non-associative": (
        "atoms=3 identity=0 converse=0,1,2\ncycle 0 0 0\ncycle 0 1 1\ncycle 0 2 2\n"
    ),
}


@pytest.mark.parametrize("case", sorted(NOT_RELATION_ALGEBRAS))
def test_represent_rejects_a_non_relation_algebra(capsys, tmp_path, case):
    path = tmp_path / f"{case}.ra"
    path.write_text(NOT_RELATION_ALGEBRAS[case])
    code, out, err = run(
        capsys, ["represent", str(path), "--v", "0", "--w", "1'", "--stages", "3"]
    )
    assert code == 2
    assert out == "" and err.startswith("error:")
    assert "relation algebra axioms" in err


def test_dot(capsys):
    code, out, _ = run(capsys, ["dot", "a;b & id"])
    assert code == 0
    assert out.startswith("digraph term {")
    code, _, _ = run(capsys, ["dot", "a + b"])
    assert code == 2


def test_a_term_that_begins_with_a_dash_follows_a_double_dash(capsys, re2_file):
    # argparse reads "-(a)" as an option; after "--" it is the term
    code, out, err = run(capsys, ["parse", "-(a)"])
    assert (code, out) == (2, "") and "required: term" in err
    assert run(capsys, ["parse", "--", "-(a)"]) == (0, "-(a)\n", "")
    assert run(capsys, ["eval", "--model", re2_file, "--", "-(id)"]) == (0, "a+a~\n", "")
    # dot reads the term, and rejects a complement as it rejects any
    code, out, err = run(capsys, ["dot", "--", "-(a)"])
    assert (code, out) == (2, "") and "not available in the J signature" in err


def test_missing_file_is_engine_error(capsys):
    code, _, err = run(capsys, ["eval", "a", "--model", "/nonexistent.ra"])
    assert code == 2
    assert "cannot read" in err


def test_usage_exit_code(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def _run_full_parser(capsys, argv):
    """Exit code and output of argv on a parser built with every subcommand."""
    try:
        cli.build_parser(None).parse_args(argv)
        code = None  # the argv parses; main would go on to run it
    except SystemExit as exc:
        code = 2 if exc.code else 0
    out = capsys.readouterr()
    return code, out.out, out.err


# arguments each subcommand parses without error; nothing here is run
VALID_ARGUMENTS = {
    "parse": ["a"],
    "eval": ["a"],
    "check-law": ["p7"],
    "suite": ["T"],
    "enumerate": ["1'"],
    "check-jlm": ["1'"],
    "represent": ["re2.ra", "--v", "0", "--w", "a"],
    "dot": ["a"],
}


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_subcommand_help_and_usage_match_the_full_parser(capsys, name):
    # every subcommand has a positional argument, so the bare name is a
    # usage error; an unrecognized argument after valid ones is reported by
    # the top-level parser, whose usage line lists every choice
    cases = {
        "help": ([name, "-h"], 0),
        "missing-positional": ([name], 2),
        "unrecognized": ([name, *VALID_ARGUMENTS[name], "--no-such-option"], 2),
    }
    for case, (argv, expected) in cases.items():
        full = _run_full_parser(capsys, argv)
        assert full[0] == expected, case
        assert run(capsys, argv) == full, case


NAMES = "parse eval check-law suite enumerate check-jlm represent dot".split()
TOP_LEVEL = {
    "no-command": (
        [], 2, "branchalg: error: the following arguments are required: command"
    ),
    "help": (["-h"], 0, None),  # help text wraps to the terminal's width
    "unknown-command": (
        ["no-such-command"],
        2,
        "branchalg: error: argument command: invalid choice: 'no-such-command'"
        " (choose from " + ", ".join(f"'{name}'" for name in NAMES) + ")",
    ),
}


@pytest.mark.parametrize("case", sorted(TOP_LEVEL))
def test_top_level_usage_lists_every_subcommand(capsys, case):
    argv, expected, last_line = TOP_LEVEL[case]
    full = _run_full_parser(capsys, argv)
    assert full[0] == expected
    code, out, err = run(capsys, argv)
    assert (code, out, err) == full
    assert list(cli.COMMANDS) == NAMES
    assert "{" + ",".join(NAMES) + "}" in out + err
    if last_line is not None:
        assert err.splitlines()[-1] == last_line


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the [project.scripts] entry point calls main() with no argument
    monkeypatch.setattr("sys.argv", ["branchalg", "parse", "conv(a) ; b"])
    assert run(capsys, None) == (0, "conv(a);b\n", "")


MALFORMED = {
    "cycle-out-of-range": "atoms=2 identity=0 converse=0,1\ncycle 0 0 5\n",
    "short-converse": "atoms=3 identity=0 converse=0,1\n",
    "twenty-seven-letters": "atoms=28 identity=0 converse="
    + ",".join(map(str, range(28))),
    "unknown-header-field": "atoms=2 identity=0 converse=0,1 bogus=7\n",
    "repeated-header-field": "atoms=2 identity=0 converse=0,1 identity=1\n",
    "repeated-identity-index": "atoms=2 identity=0,0 converse=0,1\n",
    "signed-index": "atoms=2 identity=+0 converse=0,+1\n",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("command", [["check-jlm"], ["check-law", "p2", "--model"]])
def test_malformed_structure_file_is_usage_error(capsys, tmp_path, case, command):
    path = tmp_path / f"{case}.ra"
    path.write_text(MALFORMED[case])
    code, out, err = run(capsys, [*command, str(path)])
    assert code == 2
    assert out == "" and err.startswith("error:")


DEEP = {
    "parentheses": "(" * 3000 + "a" + ")" * 3000,
    "converses": "conv(" * 3000 + "a" + ")" * 3000,
    "product-chain": ";".join(["a"] * 3000),
    "meet-chain": "&".join(["a"] * 3000),
}


@pytest.mark.parametrize("case", sorted(DEEP))
@pytest.mark.parametrize("command", ["parse", "eval", "dot"])
def test_deep_term_is_usage_error(capsys, command, case):
    code, out, err = run(capsys, [command, DEEP[case]])
    assert code == 2
    assert out == "" and err.startswith("error:") and "deeper than" in err


def test_term_depth_limit_is_exact(capsys):
    code, out, _ = run(capsys, ["eval", ";".join(["a"] * MAX_DEPTH)])
    assert code == 0
    assert out.strip() == "{R.^=L." + "0" * MAX_DEPTH + "}"
    code, _, err = run(capsys, ["eval", ";".join(["a"] * (MAX_DEPTH + 1))])
    assert code == 2 and "deeper than" in err


def test_second_check_law_parses_no_terms(capsys, monkeypatch):
    argv = ["check-law", "p7", "--strategy", "sample=3"]
    assert main(argv) == 0
    calls = []
    parse_term = laws.parse_term

    def counting(*args, **kwargs):
        calls.append(args)
        return parse_term(*args, **kwargs)

    monkeypatch.setattr(laws, "parse_term", counting)
    assert main(argv) == 0
    assert calls == []


BAD_ARGUMENTS = {
    "unknown-strategy": ["check-law", "p7", "--strategy", "bogus"],
    "zero-samples": ["check-law", "p7", "--strategy", "sample=0"],
    "negative-samples": ["check-law", "p7", "--strategy", "sample=-3"],
    # the tree has no element iterator: StrategyUnavailableError
    "exhaustive-on-tree": ["check-law", "p7", "--strategy", "exhaustive"],
    # seeded sampling of the formulas is check-law's; check-jlm has no such options
    "jlm-sample": ["check-jlm", "1'abb~", "--sample", "5"],
    "jlm-seed": ["check-jlm", "1'abb~", "--seed", "1"],
    "unwritable-out": ["enumerate", "1'a", "--out", "{missing}/structures.txt"],
    "unwritable-tsv": ["check-jlm", "1'a", "--tsv", "{missing}/row.tsv"],
    "zero-stages": ["represent", "{re2}", "--v", "0", "--w", "a", "--stages", "0"],
    "v-not-below-w": ["represent", "{re2}", "--v", "a", "--w", "a"],
    "superscript-element": ["represent", "{re2}", "--v", "0", "--w", "\u00b2"],
    "nul-in-structure-path": ["check-jlm", "bad\x00.ra"],
    "nul-in-out-path": ["enumerate", "1'a", "--out", "bad\x00.txt"],
    "tsv-of-structure-file": ["check-jlm", "{re2}", "--tsv", "{tmp}/row.tsv"],
    "thirteen-atoms": ["check-jlm", "{thirteen}", "--elements"],
    # an identity atom whose converse is a diversity atom: AtomStructureError
    "swapped-identity-law": [
        "check-law", "p5", "--model", "{swapped}", "--strategy", "exhaustive"
    ],
    "swapped-identity-jlm": ["check-jlm", "{swapped}"],
}

# thirteen identity atoms: a legal structure one atom past the dense tables
THIRTEEN_ATOMS = (
    "atoms=13 identity=" + ",".join(map(str, range(13)))
    + " converse=" + ",".join(map(str, range(13))) + "\n"
    + "".join(f"cycle {i} {i} {i}\n" for i in range(13))
)


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_arguments_are_usage_errors(capsys, tmp_path, re2_file, case):
    thirteen = tmp_path / "thirteen.ra"
    thirteen.write_text(THIRTEEN_ATOMS)
    swapped = tmp_path / "swapped.ra"
    swapped.write_text("atoms=2 identity=0 converse=1,0\n")
    paths = {
        "missing": tmp_path / "missing",
        "re2": re2_file,
        "swapped": swapped,
        "thirteen": thirteen,
        "tmp": tmp_path,
    }
    argv = [arg.format(**paths) for arg in BAD_ARGUMENTS[case]]
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before  # no output file written


def test_thirteen_atoms_evaluate_until_a_composition(capsys, tmp_path):
    # the dense tables are built on the first composition or converse
    path = tmp_path / "thirteen.ra"
    path.write_text(THIRTEEN_ATOMS)
    assert run(capsys, ["eval", "1 & id", "--model", str(path)])[0] == 0
    code, out, err = run(capsys, ["eval", "conv(1)", "--model", str(path)])
    assert (code, out) == (2, "") and "13 atoms is too many" in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(args):
        raise KeyError("not a usage error")

    help_text, _, arguments = cli.COMMANDS["parse"]
    monkeypatch.setitem(cli.COMMANDS, "parse", (help_text, broken, arguments))
    code, out, err = run(capsys, ["parse", "a"])
    assert code == 3
    assert err.startswith("internal error: KeyError")
    assert "Traceback" in err


# (argv, exit code) of a command of each subcommand; RE2 names a .ra file
PAUSED_COMMANDS = {
    "parse": (["parse", "conv(a);b & id"], 0),
    "dot": (["dot", "a;conv(b) & (id;x & a)"], 0),
    "eval": (["eval", "a;conv(a) & b;conv(b)"], 0),
    "suite": (["suite", "fork"], 0),
    "check-law tree": (["check-law", "p7", "--seed", "1"], 0),
    "check-law file": (["check-law", "p7", "--model", "RE2"], 0),
    "check-jlm": (["check-jlm", "1'aa~"], 0),
    "check-jlm elements": (["check-jlm", "RE2", "--elements"], 0),
    "enumerate": (["enumerate", "1'abb~"], 0),
    "represent": (["represent", "RE2", "--v", "0", "--w", "a", "--stages", "8"], 0),
    "unknown law": (["check-law", "nope"], 2),
}


@pytest.mark.parametrize("case", sorted(PAUSED_COMMANDS))
def test_commands_leave_no_cyclic_garbage(capsys, re2_file, case):
    # run_command pauses the cyclic collector: what a command leaves behind
    # must be freed by reference counting alone
    argv, want = PAUSED_COMMANDS[case]
    args = cli.build_parser(argv[0]).parse_args(
        [re2_file if a == "RE2" else a for a in argv]
    )
    gc.collect()
    gc.disable()
    try:
        code = cli.run_command(args)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert (code, garbage) == (want, 0), capsys.readouterr()


def test_main_pauses_the_collector_and_restores_it(capsys, monkeypatch):
    seen = []

    def broken(args):
        seen.append(gc.isenabled())
        raise KeyError("not a usage error")

    runs = [(["parse", "a;b"], 0), (["frobnicate"], 2), (["parse", "a;;"], 2)]
    for argv, code in runs:
        assert run(capsys, argv)[0] == code
        assert gc.isenabled(), argv
    help_text, _, arguments = cli.COMMANDS["parse"]
    monkeypatch.setitem(cli.COMMANDS, "parse", (help_text, broken, arguments))
    assert run(capsys, ["parse", "a"])[0] == 3
    assert gc.isenabled() and seen == [False]
    # a caller that paused the collector itself finds it paused after main
    gc.disable()
    try:
        assert run(capsys, ["parse", "a"])[0] == 3
        monkeypatch.undo()
        for argv, code in runs:
            assert run(capsys, argv)[0] == code
            assert not gc.isenabled(), argv
    finally:
        gc.enable()
    assert seen == [False, False]


def test_a_counterexample_that_does_not_refail_exits_3(
    capsys, monkeypatch, enumerated, tmp_path
):
    # J fails on this structure, in sampling and on elements; with every
    # variable read back as the zero element the reported assignment
    # satisfies J, and must not be printed
    s = next(s for s in enumerated("1'abc") if s.label == "1'abc#17")
    path = tmp_path / "fails-j.ra"
    path.write_text(format_structure(s))
    argvs = [
        ["check-law", "J", "--model", str(path), "--strategy", "sample=2000"],
        ["check-jlm", str(path), "--elements"],
    ]
    assert [run(capsys, argv)[0] for argv in argvs] == [1, 1]
    monkeypatch.setattr(model, "_entry", lambda v, shape, i: 0)
    for argv in argvs:
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err.startswith("internal error: UnconfirmedCounterexample")


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["parse", "eval", "dot"]), TERM_TEXT)
def test_main_on_arbitrary_terms(command, text):
    assert _quiet_main([command, text]) in (0, 1, 2)


@pytest.fixture(scope="module")
def ra_files(tmp_path_factory):
    """Structure files for the property tests, which cannot use tmp_path."""
    out = {}
    for name, points in (("one-atom", 1), ("re2", 2)):
        path = tmp_path_factory.mktemp("ra") / f"{name}.ra"
        path.write_text(format_structure(make_proper_ra(points)))
        out[name] = str(path)
    return out


# at most three characters after "sample=", so at most 999 samples
STRATEGY_TEXT = st.one_of(
    st.text(),
    st.text(max_size=3).map("sample=".__add__),
    st.sampled_from(["exhaustive", "sample", "sample=1", "sample=0"]),
)


@settings(max_examples=200, deadline=None)
@given(STRATEGY_TEXT)
def test_main_on_arbitrary_strategies(ra_files, strategy):
    argv = ["check-law", "p7", "--model", ra_files["one-atom"], f"--strategy={strategy}"]
    assert _quiet_main(argv) in (0, 1, 2)


ELEMENT_TEXT = st.one_of(
    st.text(max_size=6), st.sampled_from(["0", "a", "a+a~", "1,2", "15", "99"])
)


@settings(max_examples=200, deadline=None)
@given(ELEMENT_TEXT, ELEMENT_TEXT)
def test_main_on_arbitrary_elements(ra_files, v, w):
    argv = ["represent", ra_files["re2"], "--v", v, "--w", w, "--stages", "3"]
    assert _quiet_main(argv) in (0, 1, 2)


# valid rows only up to 1'ab keep each run short; the stretch rows are drawn
# but never with --stretch, so they end in a usage error
SIGNATURE_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["1'", "1'a", "1'aa~", "1'ab", "1' a", "1'aā", "1'abcc~", "1'abcd"]),
)


def _signature_argv(command, signature, stretch, extra=()):
    assume(not (stretch and normalize_signature(signature) in STRETCH_SIGNATURES))
    return [command, *extra] + (["--stretch"] if stretch else []) + ["--", signature]


@settings(max_examples=100, deadline=None)
@given(SIGNATURE_TEXT, st.booleans())
def test_main_on_arbitrary_enumerate_arguments(signature, stretch):
    assert _quiet_main(_signature_argv("enumerate", signature, stretch)) in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(SIGNATURE_TEXT, st.booleans(), st.booleans())
def test_main_on_arbitrary_check_jlm_arguments(signature, stretch, elements):
    extra = ["--elements"] if elements else []
    argv = _signature_argv("check-jlm", signature, stretch, extra)
    assert _quiet_main(argv) in (0, 1, 2)
