"""Command line surface: decompose, reconstruct, verify, roundtrip.

Everything is configured by flags (no environment variables), reports are
JSON on stdout plus a human summary on stderr, and files are written
atomically.  Exit codes are the API: 0 all checks passed, 1 a verification
failed, 2 bad input or usage, 3 numerical breakdown (a float solve failed on
valid input; the exact backend or a smaller N may succeed).
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from . import linalg
from ._util import atomic_write_text, parse_float
from .errors import AdjointInconsistencyError, FavardError, FileFormatError
from .errors import NumericalBreakdownError
from .fock import _assemble_fock, build_fock, roundtrip_report, vacuum_moments
from .jacobi import analyze, jacobi_file_text, load_jacobi_file, verify_favard_conditions
from .moments import (
    CATALOG_MEASURES,
    MomentFunctional,
    from_catalog,
    from_file,
    from_samples,
    moment_file_text,
)

__all__ = ["main", "cmd_decompose", "cmd_reconstruct", "cmd_verify", "cmd_roundtrip"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BREAKDOWN = 3


def _parser():
    p = argparse.ArgumentParser(
        prog="favard",
        description="Jacobi sequences of moment functionals and their Fock reconstruction",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, need_n=True, jacobi_input=False):
        src = sp.add_argument_group("input")
        src.add_argument("--measure", choices=CATALOG_MEASURES, help="catalog measure name")
        src.add_argument("--atoms", help="JSON list of [point, weight] pairs for --measure atoms")
        src.add_argument("--moments", help="moment file (JSON)")
        src.add_argument("--samples", help="sample file (JSON with points and optional weights)")
        if jacobi_input:
            src.add_argument("--jacobi", help="Jacobi file (JSON)")
        sp.add_argument("--d", type=int, help="dimension (required with --measure)")
        sp.add_argument("--N", type=int, required=need_n, help="maximum gradation level")
        sp.add_argument("--backend", choices=("exact", "float"), default="exact")
        sp.add_argument("--tol", type=float, default=linalg.DEFAULT_TOL)
        sp.add_argument("--out", help="output path")

    sp = sub.add_parser("decompose", help="measure -> Jacobi file")
    add_common(sp)

    sp = sub.add_parser("reconstruct", help="Jacobi file -> moment file")
    sp.add_argument("--jacobi", required=True, help="Jacobi file (JSON)")
    sp.add_argument("--tol", type=float, default=linalg.DEFAULT_TOL)
    sp.add_argument("--out", help="output path for the moment file")

    sp = sub.add_parser("verify", help="run every verification suite")
    add_common(sp, need_n=False, jacobi_input=True)

    sp = sub.add_parser("roundtrip", help="decompose, rebuild, compare moments")
    add_common(sp)
    return p


def _parse_atom_scalar(v):
    if isinstance(v, float):
        v = str(v)
    if isinstance(v, (str, int)) and not isinstance(v, bool):
        try:
            return Fraction(v)
        except ZeroDivisionError:  # "1/0"
            pass
    raise ValueError(f"bad scalar {v!r}")


def _load_samples_file(path, max_degree, backend):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not set(doc) <= {"points", "weights"} or "points" not in doc:
        raise ValueError("sample file must be an object with 'points' and optional 'weights'")
    points, weights = doc["points"], doc.get("weights")
    if not isinstance(points, list) or not all(isinstance(p, list) for p in points):
        raise FileFormatError("sample file: 'points' must be a list of coordinate lists")
    if not isinstance(weights, (list, type(None))):
        raise FileFormatError("sample file: 'weights' must be a list")
    parse = _parse_atom_scalar if linalg.scalars(backend) is linalg.EXACT else parse_float
    points = [[parse(x) for x in p] for p in points]
    weights = None if weights is None else [parse(w) for w in weights]
    return from_samples(points, max_degree, weights=weights, backend=backend)


def _functional(args) -> MomentFunctional:
    """The moment functional the input flags name, with moments to degree 2N+1 or 2N.

    Catalog sources can always supply the one extra degree the top-level
    preservation block needs; file sources use whatever they have.
    """
    max_degree = 2 * args.N + 1 if args.measure else 2 * args.N
    chosen = [x for x in (args.measure, args.moments, args.samples) if x]
    if len(chosen) != 1:
        raise ValueError("choose exactly one of --measure, --moments, --samples")
    if args.measure:
        if args.d is None:
            raise ValueError("--measure needs --d")
        atoms = None
        if args.measure == "atoms":
            if not args.atoms:
                raise ValueError("--measure atoms needs --atoms")
            parsed = json.loads(args.atoms)
            if not isinstance(parsed, list) or not all(
                    isinstance(a, list) and len(a) == 2 and isinstance(a[0], list) for a in parsed):
                raise ValueError("--atoms must be a JSON list of [point-list, weight] pairs")
            atoms = [
                ([_parse_atom_scalar(x) for x in point], _parse_atom_scalar(weight))
                for point, weight in parsed
            ]
        return from_catalog(
            args.measure, args.d, max_degree, atoms=atoms, backend=args.backend
        )
    if args.moments:
        phi = from_file(args.moments)
        if args.d is not None and phi.d != args.d:
            raise ValueError(f"--d {args.d} does not match the file dimension {phi.d}")
        if args.backend != phi.backend:
            raise ValueError(
                f"--backend {args.backend} does not match the file scalar family"
            )
        return phi
    return _load_samples_file(args.samples, max_degree, args.backend)


def _emit(args, payload, summary_lines):
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out and args.command in ("verify", "roundtrip"):
        atomic_write_text(args.out, text)
    for line in summary_lines:
        print(line, file=sys.stderr)


def cmd_decompose(args) -> int:
    phi = _functional(args)
    if phi.max_degree < 2 * args.N:
        raise ValueError(
            f"decomposition to level {args.N} needs moments to degree {2 * args.N}, "
            f"file provides {phi.max_degree}"
        )
    if args.out is None:
        raise ValueError("decompose needs --out for the Jacobi file")
    ma = analyze(phi, args.N, args.tol, with_roundtrip=False)
    atomic_write_text(args.out, jacobi_file_text(ma.jacobi))
    payload = ma.to_dict()
    payload["jacobi_file"] = args.out
    summary = [
        f"decomposed {ma.source} to level {ma.N} [{ma.backend}]",
        f"level ranks: {ma.ranks} (termination: {ma.termination})",
        f"wrote {args.out}",
    ] + [r.summary() for r in ma.reports.values() if not r.ok]
    _emit(args, payload, summary)
    return EXIT_OK if ma.ok else EXIT_CHECK_FAILED


def _vacuum_state(js, ops, source) -> MomentFunctional:
    """The vacuum moments of ops as a state; FavardError when they form none."""
    top = js.max_word_length()
    values = vacuum_moments(ops, top)
    try:
        return MomentFunctional(d=js.d, max_degree=top, values=values, backend=js.backend,
                                source=source)
    except ValueError as exc:
        raise FavardError(f"reconstructed moments do not form a state: {exc}") from exc


def cmd_reconstruct(args) -> int:
    js = load_jacobi_file(args.jacobi)
    if args.out is None:
        raise ValueError("reconstruct needs --out for the moment file")
    phi = _vacuum_state(js, build_fock(js, args.tol), f"reconstructed:{args.jacobi}")
    top = phi.max_degree
    atomic_write_text(args.out, moment_file_text(phi))
    payload = {
        "source": args.jacobi,
        "d": js.d,
        "N": js.N,
        "max_degree": top,
        "backend": js.backend,
        "moment_file": args.out,
    }
    _emit(args, payload, [f"reconstructed moments to degree {top}; wrote {args.out}"])
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.jacobi:
        js = load_jacobi_file(args.jacobi)
        report = verify_favard_conditions(js, args.tol)
        note = {}  # the reconstruct refusals the conditions report does not cover
        if report.ok:
            try:
                _vacuum_state(js, _assemble_fock(js, args.tol), args.jacobi)
            except AdjointInconsistencyError as exc:
                note["adjoint_error"] = str(exc)
            except FavardError as exc:
                note["moment_error"] = str(exc)
        payload = report.to_dict()
        if note:
            payload.update(ok=False, **note)
        _emit(args, payload, [report.summary()])
        if not payload["ok"]:
            bad = report.first_failure()
            name = bad.label if bad else next(iter(note.values()))
            print(f"verification failed: {name}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        return EXIT_OK
    if args.N is None:
        raise ValueError("verify needs --N with a measure input")
    phi = _functional(args)
    ma = analyze(phi, args.N, args.tol, with_roundtrip=True)
    _emit(args, ma.to_dict(), [r.summary() for r in ma.reports.values()])
    if not ma.ok:
        for r in ma.reports.values():
            bad = r.first_failure()
            if bad is not None:
                print(f"verification failed: {r.name}: {bad.label}", file=sys.stderr)
                return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    phi = _functional(args)
    report = roundtrip_report(phi, args.N, args.tol)
    _emit(args, report.to_dict(), [report.summary()])
    if not report.ok:
        bad = report.first_failure()
        print(f"roundtrip failed: {bad.label}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_COMMANDS = {
    "decompose": cmd_decompose,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "roundtrip": cmd_roundtrip,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if not 0 < args.tol < math.inf:  # also refuses nan
            raise ValueError("tol must be positive and finite")
        if getattr(args, "N", None) is not None and args.N < 0:
            raise ValueError("N must be >= 0")
        return _COMMANDS[args.command](args)
    except (FavardError, ValueError, OSError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN if isinstance(exc, NumericalBreakdownError) else EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
