"""Command-line front end: analyze / classify single states, run sample batches.

analyze and classify format the record of sampling.cross_validate and run no
analysis themselves.
State files are single JSON documents with keys "a", "b" and exactly one of
"t_diag" (3 values) or "t_full" (9 values, row-major), plus an optional
"normalize" flag.  Floats are emitted with shortest round-trip precision so
reports re-parse bit for bit.

Exit codes of analyze: 0 separable, 1 entangled, 2 not a state or usage
error, 3 non-generic (verdict from the partial-transpose test only).  classify
exits 0 for every classification and 2 on a non-state or usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .boost import BETA_LIMIT
from .errors import InvalidStateError, QubitSepError
from .hs import PSD_TOL, ZERO_TOL, HSParams
from .pt import SEPARABLE, VERDICT_TOL, Verdict, mds_criterion
from .sampling import FAMILIES, SampleSpec, batch_stats, cross_validate

# Not called here; perfbench/tracing.py wraps these names on this module.
from .hs import eigenvalues_hermitian, rho_from_hs  # noqa: F401
from .hs import tdiag_via_local_rotations, tdiag_via_symmetric_rotation  # noqa: F401
from .normal_form import separability_verdict, solve_normal_form  # noqa: F401
from .pt import partial_transpose_matrix, peres_horodecki  # noqa: F401

EXIT_SEPARABLE = 0
EXIT_ENTANGLED = 1
EXIT_ERROR = 2
EXIT_NON_GENERIC = 3


def _kind_label(kind: str) -> str:
    """A classification kind in CamelCase: "non-generic-a" -> "NonGenericA"."""
    return "".join(word.capitalize() for word in kind.split("-"))


class StateFileError(QubitSepError):
    """A state file is unreadable or malformed; message names the field."""


def _parse_reals(doc, key: str, length: int) -> list[float]:
    if key not in doc:
        raise StateFileError(f"missing field '{key}'")
    value = doc[key]
    if not isinstance(value, list) or len(value) != length:
        raise StateFileError(f"field '{key}' must be a list of {length} numbers")
    out = []
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise StateFileError(f"field '{key}' must contain only numbers")
        x = float(entry)
        if not np.isfinite(x):
            raise StateFileError(f"field '{key}' must be finite")
        out.append(x)
    return out


def load_state_file(path: str) -> HSParams:
    """Parse a state file into HSParams; the normalize flag is validated only."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise StateFileError(f"cannot read state file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"state file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFileError("state file must be a JSON object")
    a = _parse_reals(doc, "a", 3)
    b = _parse_reals(doc, "b", 3)
    has_diag = "t_diag" in doc
    has_full = "t_full" in doc
    if has_diag == has_full:
        raise StateFileError("exactly one of 't_diag' or 't_full' must be present")
    if has_diag:
        params = HSParams.diagonal(a, b, _parse_reals(doc, "t_diag", 3))
    else:
        t = np.array(_parse_reals(doc, "t_full", 9)).reshape(3, 3)
        params = HSParams(a, b, t)
    # Pauli-parameterized input always has unit trace; the flag is accepted
    # for interface stability and has no numeric effect.
    if not isinstance(doc.get("normalize", False), bool):
        raise StateFileError("field 'normalize' must be a boolean")
    return params


def _floats(values) -> list[float]:
    return np.asarray(values, dtype=float).ravel().tolist()


def _verdict(verdict: Verdict) -> dict:
    return {
        "kind": verdict.kind,
        "witness": verdict.witness,
        "criterion": verdict.criterion,
        "boundary": verdict.boundary,
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
        return
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")


def _cmd_analyze(args) -> int:
    params = load_state_file(args.state_file)
    report: dict = {
        "input": {
            "a": _floats(params.a),
            "b": _floats(params.b),
            "t": params.t.tolist(),
        },
    }
    try:
        rec = cross_validate(params, args.tol_verdict, args.beta_limit, args.tol_psd)
    except InvalidStateError as exc:
        report.update(psd=False, eigenvalues_4l=_floats(exc.spectrum), error=str(exc))
        _emit(report, args.format)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report.update(
        psd=True,
        eigenvalues_4l=_floats(rec.spectrum),
        pt_eigenvalues_4l=_floats(rec.pt_spectrum),
        ppt_verdict=_verdict(rec.ppt),
    )
    notes = [] if rec.note is None else [rec.note]
    work = rec.reduced
    # solve_normal_form has already checked that the reduced t is diagonal
    tdiag = np.diag(work.t)
    if float(np.abs(work.a).max()) <= ZERO_TOL and float(np.abs(work.b).max()) <= ZERO_TOL:
        notes.append(
            "maximally disordered subsystems: sum|t_i| <= 1 is necessary "
            f"and sufficient (sum = {float(np.abs(tdiag).sum()):.6g})"
        )
    elif not mds_criterion(tdiag):
        notes.append("necessary screen failed: sum|t_i| > 1 already implies entangled")
    solve = rec.report
    report["classification"] = {
        "kind": _kind_label(solve.classification.kind),
        "detail": solve.classification.detail,
    }
    if solve.classification.is_generic:
        report["betas"] = _floats(solve.betas)
        report["boost_kind"] = solve.boost_kind
        if solve.axis is not None:
            report["boost_axis"] = solve.axis
        report.update(
            sigma={"s0": solve.sigma.s0, "s": _floats(solve.sigma.s)},
            tprime=_floats(solve.sigma.tprime),
            lorentz_sum=solve.sigma.tprime_sum,
            lorentz_verdict=_verdict(rec.lorentz),
            residuals={
                "polynomial": solve.polynomial_residual,
                "offdiag": solve.offdiag_residual,
            },
        )
    report["criteria_notes"] = notes
    _emit(report, args.format)
    if not solve.classification.is_generic:
        return EXIT_NON_GENERIC
    return EXIT_SEPARABLE if rec.ppt.kind == SEPARABLE else EXIT_ENTANGLED


def _cmd_classify(args) -> int:
    # a non-state raises InvalidStateError, reported by main with exit code 2
    classification = cross_validate(load_state_file(args.state_file)).classification
    label = _kind_label(classification.kind)
    if classification.detail:
        print(f"{label}: {classification.detail}")
    else:
        print(label)
    return 0


def _cmd_sample(args) -> int:
    spec = SampleSpec(family=args.family, count=args.count, seed=args.seed, axis=args.axis)
    report = batch_stats(spec)
    _emit(dataclasses.asdict(report), args.format)
    return 0 if report.disagree_count == 0 else 1


def _number_below(limit: float):
    """argparse type: a float in [0, limit); nan and infinities are usage errors."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not 0.0 <= value < limit:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a finite number in [0, {limit:g})"
            )
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qubitsep parser, built on first use and shared by every main() call.

    Parsing leaves the parser unchanged, so one object serves all requests of
    a process; callers must not add arguments to it.
    """
    parser = argparse.ArgumentParser(
        prog="qubitsep",
        description=(
            "Decide separability of two-qubit density matrices via the "
            "partial-transpose test and the boost normal form of the "
            "correlation matrix."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full analysis of one state file")
    p_analyze.add_argument("state_file")
    tolerance = _number_below(math.inf)
    p_analyze.add_argument("--tol-psd", type=tolerance, default=PSD_TOL, dest="tol_psd")
    p_analyze.add_argument(
        "--tol-verdict", type=tolerance, default=VERDICT_TOL, dest="tol_verdict"
    )
    p_analyze.add_argument(
        "--beta-limit", type=_number_below(1.0), default=BETA_LIMIT, dest="beta_limit"
    )
    p_analyze.add_argument("--format", choices=("json", "text"), default="json")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_classify = sub.add_parser(
        "classify", help="print the generic / non-generic classification"
    )
    p_classify.add_argument("state_file")
    p_classify.set_defaults(func=_cmd_classify)

    p_sample = sub.add_parser(
        "sample", help="batch cross-validation over a random state family"
    )
    p_sample.add_argument("--family", required=True, choices=FAMILIES)
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--axis", type=int, default=1, choices=(1, 2, 3))
    p_sample.add_argument("--format", choices=("json", "text"), default="json")
    p_sample.set_defaults(func=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, which matches our error code
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except QubitSepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
