"""Command-line front end.

Exit codes: 0 = success / claim verified, 1 = a mathematical claim failed
verification, 2 = usage or input error.  Any unreadable, malformed, too
deeply nested or out-of-range input file, and a closed stdout (also fd 1
closed at start, but for ``catalog emit -o``), exits 2 with one ``error:``
line on stderr; ``main`` is the one place that prints it.
Output is deterministic for a given input; JSON mode never includes
timestamps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Callable, List, Optional

from . import __version__, catalog
from .analysis import _certify, annihilator, check_spinc_pure, commutant
from .errors import SpinorForgeError
from .forms import eta, eta_hat, etas
from .linalg import check_special_orthogonal, random_so_matrix
from .report import report_all
from .serialize import (
    render_ambient,
    render_two_form,
    scaled_spinor_from_json,
    scaled_spinor_to_json,
    spinor_from_json,
    subalgebra_to_json,
    two_form_to_json,
)


class UsageError(Exception):
    """Raised for exit-code-2 conditions."""


def _load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"malformed JSON in {path}: {exc}") from None
    except ValueError as exc:  # non-UTF-8 bytes, integers past the digit limit
        raise UsageError(str(exc)) from None


def _spinor_arg(args: argparse.Namespace):
    """Resolve (--catalog NAME | --in FILE) to a twisted spinor."""
    if args.catalog:
        return catalog.build(args.catalog, m=args.m, n=args.n).spinor
    if args.infile:
        return scaled_spinor_from_json(_load(args.infile))
    raise UsageError("need --catalog NAME or --in FILE")


def _emit(args: argparse.Namespace, payload: Callable[[], Any], text: Callable[[], str]) -> None:
    """The one writer of every verb with a text and a JSON form: it builds
    only the rendering asked for (``--format json`` or ``--json``)."""
    if getattr(args, "format", "text") == "json" or getattr(args, "json", False):
        print(json.dumps(payload(), indent=2))
    else:
        print(text())


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.catalog_verb == "list":
        for name, (_, dim) in catalog.ENTRIES.items():
            print(name + (f"  (requires --{dim})" if dim else ""))
        return 0
    ent = catalog.build(args.catalog, m=args.m, n=args.n)
    out = json.dumps(scaled_spinor_to_json(ent.spinor), indent=2)
    if args.outfile:
        try:
            with open(args.outfile, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.outfile}: {exc}") from None
    else:
        print(out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "spinc":
        if args.catalog:
            raise UsageError(
                "catalog entries are twisted; spinc verification needs an "
                "untwisted spinor JSON via --in")
        if not args.infile:
            raise UsageError("verify spinc needs --in FILE")
        verdict = check_spinc_pure(spinor_from_json(_load(args.infile)))
        _emit(args, lambda: {"kind": "spinc", "verified": verdict},
              lambda: f"spinc pure: {str(verdict).lower()}")
        return 0 if verdict else 1
    [(verdict, per)] = _certify(_spinor_arg(args), kind)
    _emit(args, lambda: {"kind": kind, "verified": verdict, "pairs": {
        # each pair's norm and its kind's one flag, square_ok or eta_nonzero
        f"{k},{l}": {"defect_norm2": str(v.defect_norm2),
                     **{f: x for f, x in vars(v).items() if type(x) is bool}}
        for (k, l), v in sorted(per.items())}},
          lambda: f"{kind}: {str(verdict).lower()}")
    return 0 if verdict else 1


def cmd_eta(args: argparse.Namespace) -> int:
    phi = _spinor_arg(args)
    if args.pair:
        try:
            k, l = (int(x) for x in args.pair.split(","))
        except ValueError:
            raise UsageError(f"bad --pair {args.pair!r}; expected k,l") from None
        form = eta(phi, k, l)
        _emit(args, lambda: two_form_to_json(form), lambda: render_two_form(form))
    else:
        forms = etas(phi)
        _emit(args, lambda: {f"{k},{l}": two_form_to_json(f) for (k, l), f in forms.items()},
              lambda: "\n".join(f"eta[{k},{l}] = {render_two_form(f)}"
                                for (k, l), f in forms.items()))
    return 0


def cmd_annihilator(args: argparse.Namespace) -> int:
    if not args.infiles:
        raise UsageError("need at least one --in FILE")
    alg = annihilator([scaled_spinor_from_json(_load(p)) for p in args.infiles])
    _emit(args, lambda: subalgebra_to_json(alg),
          lambda: "\n".join([f"dim = {alg.dim}", f"closed = {str(alg.closed).lower()}",
                             *map(render_ambient, alg.basis)]))
    return 0


def cmd_commutant(args: argparse.Namespace) -> int:
    phi = _spinor_arg(args)
    fam = [eta_hat(form) for form in etas(phi).values()]
    dim, basis = commutant(fam, restrict_skew=args.skew)
    _emit(args, lambda: {"dim": dim,
                         "basis": [[[str(x) for x in row] for row in b.mat] for b in basis]},
          lambda: f"dim = {dim}")
    return 0


# The most frame-test trials: every exact frame is drawn before the first
# is certified, so the count is refused before anything is drawn.
MAX_TRIALS = 1000


def cmd_frame_test(args: argparse.Namespace) -> int:
    import random

    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise UsageError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    ent = catalog.build(args.catalog, m=args.m, n=args.n)
    rng = random.Random(args.seed)
    frames = [check_special_orthogonal(random_so_matrix(ent.spinor.r, rng, bound=2))
              for _ in range(args.trials)]
    (base, _), *rotated = _certify(ent.spinor, ent.kind, [None, *frames])
    ok = True
    for t, (verdict, _) in enumerate(rotated):
        good = verdict == base
        print(f"trial {t + 1}: {'ok' if good else 'FAIL'}")
        ok = ok and good
    print("all invariant" if ok else "verdict changed under rotation")
    return 0 if ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    rows = report_all()

    def text() -> str:
        width = max(len(r.name) for r in rows)
        return "\n".join([*([] if args.plain else [f"spinor-forge {__version__}"]),
                          *(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.computed}"
                            for r in rows),
                          f"{sum(r.passed for r in rows)}/{len(rows)} criteria passed"])

    _emit(args, lambda: [{"name": r.name, "expected": r.expected, "computed": r.computed,
                          "pass": r.passed} for r in rows], text)
    return 0 if all(r.passed for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="spinor-forge",
        description="Exact twisted-spinor certificates: induced 2-forms, "
                    "purity and reducing checks, annihilator algebras.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    p_cat = sub.add_parser("catalog", help="list or emit reference spinors")
    cat_sub = p_cat.add_subparsers(dest="catalog_verb", required=True)
    cat_sub.add_parser("list", help="list catalog names")
    # the catalog dimensions [--m M] [--n N], shared by every verb that builds an entry
    dims = argparse.ArgumentParser(add_help=False)
    dims.add_argument("--m", type=int)
    dims.add_argument("--n", type=int)
    p_emit = cat_sub.add_parser("emit", parents=[dims], help="write a catalog spinor as JSON")
    p_emit.add_argument("--name", dest="catalog", required=True)
    p_emit.add_argument("-o", "--out", dest="outfile")
    p_cat.set_defaults(func=cmd_catalog)

    # --catalog NAME [--m M] [--n N] | --in FILE, shared by the one-spinor verbs
    spinor_source = argparse.ArgumentParser(add_help=False, parents=[dims])
    spinor_source.add_argument("--catalog")
    spinor_source.add_argument("--in", dest="infile")

    p_verify = sub.add_parser("verify", parents=[spinor_source],
                              help="certify pure / reducing / spinc")
    p_verify.add_argument("kind", choices=("pure", "reducing", "spinc"))
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_eta = sub.add_parser("eta", parents=[spinor_source], help="emit induced 2-forms")
    p_eta.add_argument("--pair", help="k,l (default: all pairs)")
    p_eta.add_argument("--format", choices=("text", "json"), default="text")
    p_eta.set_defaults(func=cmd_eta)

    p_ann = sub.add_parser("annihilator", help="common annihilator subalgebra")
    p_ann.add_argument("--in", dest="infiles", action="append", default=[])
    p_ann.add_argument("--json", action="store_true")
    p_ann.set_defaults(func=cmd_annihilator)

    p_comm = sub.add_parser("commutant", parents=[spinor_source],
                            help="commutant of the induced family")
    p_comm.add_argument("--skew", action="store_true")
    p_comm.add_argument("--json", action="store_true")
    p_comm.set_defaults(func=cmd_commutant)

    p_frame = sub.add_parser("frame-test", parents=[dims], help="random exact frame rotations")
    p_frame.add_argument("--catalog", required=True)
    p_frame.add_argument("--seed", type=int, default=0)
    p_frame.add_argument("--trials", type=int, default=5)
    p_frame.set_defaults(func=cmd_frame_test)

    p_rep = sub.add_parser("report", help="run the full regression report")
    p_rep.add_argument("--json", action="store_true")
    p_rep.add_argument("--plain", action="store_true")
    p_rep.set_defaults(func=cmd_report)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        if sys.stdout is None and not getattr(args, "outfile", None):  # fd 1 closed at start
            raise UsageError("cannot write to stdout: it is closed")
        code = args.func(args)
        if sys.stdout is not None:  # None for catalog emit -o FILE with fd 1 closed
            sys.stdout.flush()  # the last write may fail here, inside the boundary
        return code
    except (UsageError, SpinorForgeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:  # fd 1 goes to devnull, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
