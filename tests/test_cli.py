import contextlib
import io

import pytest
from hypothesis import assume, given, settings, strategies as st
from test_terms import TERM_TEXT

from branchalg import cli, laws
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


def test_eval_on_structure_file(capsys, re2_file):
    # names are not stored in the file format; the loader assigns defaults
    code, out, _ = run(capsys, ["eval", "id;1", "--model", re2_file])
    assert code == 0, out
    assert out.strip() == "e0+a+a~+e3"


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


def test_enumerate_stretch_guard(capsys):
    code, _, err = run(capsys, ["enumerate", "1'abcd"])
    assert code == 2
    assert "stretch" in err


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


def test_missing_file_is_engine_error(capsys):
    code, _, err = run(capsys, ["eval", "a", "--model", "/nonexistent.ra"])
    assert code == 2
    assert "cannot read" in err


def test_usage_exit_code(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


MALFORMED = {
    "cycle-out-of-range": "atoms=2 identity=0 converse=0,1\ncycle 0 0 5\n",
    "short-converse": "atoms=3 identity=0 converse=0,1\n",
    "nine-letters": "atoms=10 identity=0 converse=" + ",".join(map(str, range(10))),
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
    "negative-jlm-sample": ["check-jlm", "1'abb~", "--sample", "-5"],
    "unwritable-out": ["enumerate", "1'a", "--out", "{missing}/structures.txt"],
    "unwritable-tsv": ["check-jlm", "1'a", "--tsv", "{missing}/row.tsv"],
    "zero-stages": ["represent", "{re2}", "--v", "0", "--w", "a", "--stages", "0"],
    "v-not-below-w": ["represent", "{re2}", "--v", "a", "--w", "a"],
    "superscript-element": ["represent", "{re2}", "--v", "0", "--w", "\u00b2"],
    "nul-in-structure-path": ["check-jlm", "bad\x00.ra"],
    "nul-in-out-path": ["enumerate", "1'a", "--out", "bad\x00.txt"],
    "tsv-of-structure-file": ["check-jlm", "{re2}", "--tsv", "{tmp}/row.tsv"],
    "thirteen-atoms": ["check-jlm", "{thirteen}", "--elements"],
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
    paths = {
        "missing": tmp_path / "missing",
        "re2": re2_file,
        "thirteen": thirteen,
        "tmp": tmp_path,
    }
    argv = [arg.format(**paths) for arg in BAD_ARGUMENTS[case]]
    before = sorted(tmp_path.iterdir())
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before  # no output file written


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(args):
        raise KeyError("not a usage error")

    monkeypatch.setattr(cli, "cmd_parse", broken)
    code, out, err = run(capsys, ["parse", "a"])
    assert code == 3
    assert err.startswith("internal error: KeyError")
    assert "Traceback" in err


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
NUMBER_TEXT = st.one_of(st.integers(-3, 300).map(str), st.text(max_size=3))


def _signature_argv(command, signature, stretch, extra=()):
    assume(not (stretch and normalize_signature(signature) in STRETCH_SIGNATURES))
    return [command, *extra] + (["--stretch"] if stretch else []) + ["--", signature]


@settings(max_examples=100, deadline=None)
@given(SIGNATURE_TEXT, st.booleans())
def test_main_on_arbitrary_enumerate_arguments(signature, stretch):
    assert _quiet_main(_signature_argv("enumerate", signature, stretch)) in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(
    SIGNATURE_TEXT,
    st.booleans(),
    st.booleans(),
    st.none() | NUMBER_TEXT,
    st.none() | NUMBER_TEXT,
)
def test_main_on_arbitrary_check_jlm_arguments(signature, stretch, elements, sample, seed):
    extra = ["--elements"] if elements else []
    extra += [] if sample is None else [f"--sample={sample}"]
    extra += [] if seed is None else [f"--seed={seed}"]
    argv = _signature_argv("check-jlm", signature, stretch, extra)
    assert _quiet_main(argv) in (0, 1, 2)
