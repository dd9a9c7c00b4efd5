"""Command-line front end.

Each subcommand is declared once, in the table ``COMMANDS``: its name, its
help text, its handler and its arguments.  ``build_parser(command)`` reads
it and builds, on every call, the parser of the invoked subcommand alone;
with no subcommand, -h or an unknown name it builds all of them, so the
choices are listed in full.

Exit codes: 0 when everything checked passes, 1 when a relation or law fails
or a counterexample is found, 2 for usage or engine errors, 3 for an internal
error (a bug; the traceback is printed).
"""

from __future__ import annotations

import argparse
import gc
import sys

# model before laws: model imports numpy, and numpy imported two imports
# deeper, from inside laws -> thompson -> model, loaded about 20 ms slower
# under CPython 3.11 (its typing modules, `python -X importtime`), an effect
# of the stack depth at which it runs, not of any work
from . import UsageError, branchrel, model, laws, terms, thompson
from .finra import (
    SIGNATURES,
    STRETCH_SIGNATURES,
    NotTabular,
    build_stage_rep,
    check_jlm,
    enumerate_integral,
    is_tabular,
    normalize_signature,
    verify_axioms,
)
from .finra import atoms as finra_atoms
from .finra import jlm as finra_jlm


class EngineError(UsageError):
    pass


def _load_model(spec: str):
    if spec == "branchrel":
        return branchrel.model_handle()
    return _load_structure(spec).handle()


def _load_structure(spec: str) -> finra_atoms.AtomStructure:
    try:
        with open(spec) as fh:
            return finra_atoms.parse_structure(fh.read(), label=spec)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise EngineError(f"cannot read structure file {spec!r}: {exc}") from None


def _write_file(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise EngineError(f"cannot write {path!r}: {exc}") from None


def _at_least(least: int):
    """An argparse type: an integer of at least `least`."""

    def parse(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        msg = f"expected an integer >= {least}, got {text!r}"
        raise argparse.ArgumentTypeError(msg)

    return parse


def _strategy(text: str) -> int | None:
    """--strategy: None for "exhaustive", else the sample size of "sample"
    (200) or "sample=N"."""
    if text == "exhaustive":
        return None
    name, eq, n = text.partition("=")
    if name != "sample":
        raise argparse.ArgumentTypeError(
            f"expected exhaustive, sample or sample=N, got {text!r}"
        )
    return _at_least(1)(n) if eq else 200


def cmd_parse(args) -> int:
    t = terms.parse_term(args.term, signature=args.signature)
    print(terms.format_term(t))
    return 0


def cmd_eval(args) -> int:
    t = terms.parse_term(args.term)
    m = _load_model(args.model)
    value = model.eval_term(m, t, {})
    print(m.format_element(value))
    return 0


def cmd_check_law(args) -> int:
    law = laws.law_by_id(args.id)
    m = _load_model(args.model)
    if args.strategy is None:
        strategy = model.Exhaustive()
    else:
        strategy = model.Sample(n=args.strategy, seed=args.seed)
    report = model.check_law(m, law, strategy)
    print(report.line())
    return 0 if report.passed else 1


def cmd_suite(args) -> int:
    if args.emit_terms:
        for name, t in thompson.GENERATORS.items():
            print(f"{name} = {terms.format_term(t)}")
    report = thompson.run_suite(args.id, seed=args.seed)
    for name, ok in report.results:
        print(f"  {name}: {'pass' if ok else 'fail'}")
    print(report.line())
    return 0 if report.passed else 1


def cmd_enumerate(args) -> int:
    structures = enumerate_integral(args.signature, stretch=args.stretch)
    if args.out:
        text = "".join(
            f"# {s.label}\n{finra_atoms.format_structure(s)}\n" for s in structures
        )
        _write_file(args.out, text)
    print(f"total={len(structures)}")
    return 0


def cmd_check_jlm(args) -> int:
    mode = "elements" if args.elements else "atoms"
    # a registered row is a signature, even a stretch row given without
    # --stretch (enumerate_integral raises the usage error); all else is a file
    key = normalize_signature(args.target)
    if key in SIGNATURES or key in STRETCH_SIGNATURES:
        structures = enumerate_integral(args.target, stretch=args.stretch)
        profile = finra_jlm.count_profile(check_jlm(s, mode=mode) for s in structures)
        if args.tsv:
            _write_file(args.tsv, finra_jlm.profile_tsv(args.target, len(structures), profile))
        print(f"total={len(structures)}")
        print(finra_jlm.profile_line(profile))
        return 0
    if args.tsv:
        raise EngineError(f"--tsv needs a signature; {args.target!r} is not one")
    s = _load_structure(args.target)
    rec = check_jlm(s, mode=mode)
    print(rec.line())
    return 0 if not rec.failed else 1


def cmd_represent(args) -> int:
    s = _load_structure(args.ra_file)
    if not verify_axioms(s):
        raise EngineError("structure fails the relation algebra axioms")
    if not is_tabular(s):
        raise NotTabular("structure is not tabular")
    v = s.parse_element(args.v)
    w = s.parse_element(args.w)
    if not (s.leq(v, w) and v != w):
        raise EngineError(f"--v {args.v} must lie strictly below --w {args.w}")
    report = build_stage_rep(s, v, w, stages=args.stages, seed=args.seed)
    # every flag and the verdict always hold: build_stage_rep checks stage 0,
    # and represent._assert_common_post every later extension
    for k, (step, rep) in enumerate(zip(report.steps, report.reps)):
        print(f"  stage {k} {step} len={len(rep)} separated=True zero_kept=True monotone=True")
    print(report.line())
    return 0


def cmd_dot(args) -> int:
    t = terms.parse_term(args.term)
    print(terms.emit_dot(t))
    return 0


def _arg(*flags, **options):
    """One argument of a subcommand: add_argument's arguments."""
    return flags, options


_SEED = _arg("--seed", type=int, default=0)

# Every subcommand, declared once: name -> (help, handler, arguments).  The
# order is the order of the choices in the usage line and in -h.
COMMANDS = {
    "parse": (
        "parse a term and print its normal form",
        cmd_parse,
        (_arg("term"), _arg("--signature", choices=("RA", "J"), default="RA")),
    ),
    "eval": (
        "evaluate a closed term in a model",
        cmd_eval,
        (_arg("term"), _arg("--model", default="branchrel")),
    ),
    "check-law": (
        "check a catalog law",
        cmd_check_law,
        (
            _arg("id"),
            _arg(
                "--strategy",
                type=_strategy,
                default="sample=200",
                help="exhaustive, sample or sample=N (default sample=200)",
            ),
            _SEED,
            _arg("--model", default="branchrel"),
        ),
    ),
    "suite": (
        "run a relation suite",
        cmd_suite,
        (
            _arg("id", choices=thompson.SUITE_IDS),
            _SEED,
            _arg(
                "--emit-terms",
                action="store_true",
                help="print each named generator in the term grammar first",
            ),
        ),
    ),
    "enumerate": (
        "enumerate integral structures",
        cmd_enumerate,
        (_arg("signature"), _arg("--stretch", action="store_true"), _arg("--out")),
    ),
    "check-jlm": (
        "product-formula failures",
        cmd_check_jlm,
        (
            _arg("target", help="signature or structure file"),
            _arg("--elements", action="store_true"),
            _arg("--stretch", action="store_true"),
            _arg("--tsv", metavar="FILE", help="also write the profile row as TSV"),
        ),
    ),
    "represent": (
        "staged partial representation",
        cmd_represent,
        (
            _arg("ra_file"),
            _arg("--v", required=True),
            _arg("--w", required=True),
            _arg("--stages", type=_at_least(1), default=50),
            _SEED,
        ),
    ),
    "dot": ("series-parallel diagram of a term", cmd_dot, (_arg("term"),)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command` alone when it names a subcommand, else the
    parser of every subcommand (no command, -h, an unknown name, an option).

    A one-subcommand parser answers every argv that starts with its name as
    the full parser would: only the top-level usage line, printed with an
    "unrecognized arguments" error, lists the choices, and the metavar
    spells it as the full parser does.  The full parser leaves the metavar
    unset, so its own errors name the argument "command".
    """
    one = command in COMMANDS
    ap = argparse.ArgumentParser(prog="branchalg")
    sub = ap.add_subparsers(
        dest="command",
        required=True,
        metavar="{" + ",".join(COMMANDS) + "}" if one else None,
    )
    for name in [command] if one else COMMANDS:
        help_text, fn, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser(argv[0] if argv else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    return run_command(args)


def run_command(args) -> int:
    """Run a parsed command and return its exit code.

    The command runs with the cyclic garbage collector paused, and the
    caller's collector state is restored after it.  The values a command
    builds form no reference cycles (the tests check every subcommand), so
    reference counting frees them all, and a collection would only walk
    the live ones: a seed-1 tree workload pass ran 340 collections, and 12
    with the pause, all outside the commands.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # only here: it costs every run start-up time

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
