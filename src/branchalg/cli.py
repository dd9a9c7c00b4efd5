"""Command-line front end.

Exit codes: 0 when everything checked passes, 1 when a relation or law fails
or a counterexample is found, 2 for usage or engine errors, 3 for an internal
error (a bug; the traceback is printed).
"""

from __future__ import annotations

import argparse
import sys

from . import branchrel, laws, model, terms, thompson
from .finra import (
    STRETCH_SIGNATURES,
    NotTabular,
    UnsupportedSignatureError,
    build_stage_rep,
    check_jlm,
    enumerate_integral,
    is_tabular,
    normalize_signature,
    verify_axioms,
)
from .finra import atoms as finra_atoms
from .finra import jlm as finra_jlm


class EngineError(Exception):
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
    print(f"total={len(structures)}")
    if args.out:
        text = "".join(
            f"# {s.label}\n{finra_atoms.format_structure(s)}\n" for s in structures
        )
        _write_file(args.out, text)
    return 0


def cmd_check_jlm(args) -> int:
    if args.sample:
        mode = "sample"
    elif args.elements:
        mode = "elements"
    else:
        mode = "atoms"
    kw = {"samples": args.sample, "seed": args.seed} if args.sample else {}
    try:
        structures = enumerate_integral(args.target, stretch=args.stretch)
    except UnsupportedSignatureError:
        # a stretch row without --stretch is a usage error, not a file path
        if normalize_signature(args.target) in STRETCH_SIGNATURES:
            raise
        structures = None
    if structures is not None:
        profile = finra_jlm.count_profile(
            check_jlm(s, mode=mode, **kw) for s in structures
        )
        print(f"total={len(structures)}")
        print(finra_jlm.profile_line(profile))
        if args.tsv:
            row = {args.target: (len(structures), profile)}
            _write_file(args.tsv, finra_jlm.profile_tsv(row))
        return 0
    if args.tsv:
        raise EngineError(f"--tsv needs a signature; {args.target!r} is not one")
    s = _load_structure(args.target)
    rec = check_jlm(s, mode=mode, **kw)
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
    for st in report.stages:
        print(
            f"  stage {st.index} {st.step} len={st.length}"
            f" separated={st.separated} zero_kept={st.zero_kept}"
            f" monotone={st.monotone}"
        )
    print(report.line())
    ok = report.all_conditions_hold and report.separates
    return 0 if ok else 1


def cmd_dot(args) -> int:
    t = terms.parse_term(args.term)
    print(terms.emit_dot(t))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="branchalg")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a term and print its normal form")
    p.add_argument("term")
    p.add_argument("--signature", choices=("RA", "J"), default="RA")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a closed term in a model")
    p.add_argument("term")
    p.add_argument("--model", default="branchrel")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check-law", help="check a catalog law")
    p.add_argument("id")
    p.add_argument(
        "--strategy",
        type=_strategy,
        default="sample=200",
        help="exhaustive, sample or sample=N (default sample=200)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default="branchrel")
    p.set_defaults(fn=cmd_check_law)

    p = sub.add_parser("suite", help="run a relation suite")
    p.add_argument("id", choices=thompson.SUITE_IDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--emit-terms",
        action="store_true",
        help="print each named generator in the term grammar first",
    )
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("enumerate", help="enumerate integral structures")
    p.add_argument("signature")
    p.add_argument("--stretch", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("check-jlm", help="product-formula failures")
    p.add_argument("target", help="signature or structure file")
    p.add_argument("--elements", action="store_true")
    p.add_argument("--sample", type=_at_least(0), default=0, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stretch", action="store_true")
    p.add_argument("--tsv", metavar="FILE", help="also write the profile row as TSV")
    p.set_defaults(fn=cmd_check_jlm)

    p = sub.add_parser("represent", help="staged partial representation")
    p.add_argument("ra_file")
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--stages", type=_at_least(1), default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_represent)

    p = sub.add_parser("dot", help="series-parallel diagram of a term")
    p.add_argument("term")
    p.set_defaults(fn=cmd_dot)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args)
    except (
        terms.TermError,
        model.ModelError,
        EngineError,
        NotTabular,
        UnsupportedSignatureError,
        finra_atoms.AtomStructureError,
        laws.UnknownLaw,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback  # only here: it costs every run start-up time

        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
