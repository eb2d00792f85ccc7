"""Command-line front end: analyze / classify single states, run sample batches.

analyze and classify format the record of sampling.cross_validate and run no
analysis themselves; each analyze knob is parsed by the gate cross_validate
puts it through (named as there), so a value it refuses is a usage error.
State files are single JSON documents with keys "a", "b" and exactly one of
"t_diag" (3 values) or "t_full" (9 values, row-major), plus an optional
"normalize" flag.  A file is read as bytes and decoded once, with the
newlines of a text-mode read; one shared decoder parses them all, each number
is checked once as it is parsed, and R is laid out from those floats
unchecked.

A request takes one of two routes.  A one-file request, exactly [analyze or
classify, token] with a token that does not start with the subparser's prefix
characters, runs no argparse pass: argparse can read such a token only as
state_file, so the request gets a new Namespace copied from the one the
subparser gave a placeholder when the parsers were built.  Any other request
goes through the full parse, so help, options and usage errors read as
argparse writes them.

A JSON report is exactly json.dumps(report, indent=2).  _json walks the report
once for its leaves and its shape (the keys of each dict, the length of each
list and the place of each leaf) and fills the leaves into the layout of that
shape: a float or an int by repr (NaN and the infinities as json writes
them), a string through json's C string encoder, a bool as true or false.
_layout writes a shape's layout, the structure json writes with a %s slot per
leaf, the first time the shape is seen.  Any other leaf, and any key that is
not a str, is a TypeError.  Floats are written with shortest round-trip
precision, so reports re-parse bit for bit.

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
from json.encoder import encode_basestring_ascii

import numpy as np

from .boost import BETA_LIMIT
from .errors import InvalidStateError, QubitSepError
from .hs import PSD_TOL, ZERO_TOL, HSParams
from .normal_form import _beta_limit
from .pt import MDS_SUM_TOL, SEPARABLE, VERDICT_TOL, _verdict_tol
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


@functools.cache  # one entry per classification kind, six in all
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
        # load_state_file reads every JSON number as a float
        if not isinstance(entry, float):
            raise StateFileError(f"field '{key}' must contain only numbers")
        if not math.isfinite(entry):
            raise StateFileError(f"field '{key}' must be finite")
        out.append(entry)
    return out


# one decoder for every state file; an integer literal past the float range
# becomes inf, not an OverflowError
_DECODER = json.JSONDecoder(parse_int=float)


def load_state_file(path: str) -> HSParams:
    """Parse a state file into HSParams; the normalize flag is validated only."""
    try:
        with open(path, "rb", buffering=0) as handle:  # one unbuffered readall
            text = handle.read().decode("utf-8")
        if "\r" in text:  # the newlines a text-mode read would give
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):  # json.loads' own check and message
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except OSError as exc:
        raise StateFileError(f"cannot read state file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # undecodable, malformed or too deep
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
        t1, t2, t3 = _parse_reals(doc, "t_diag", 3)
        t = [t1, 0.0, 0.0, 0.0, t2, 0.0, 0.0, 0.0, t3]
    else:
        t = _parse_reals(doc, "t_full", 9)
    # R = [[1, a], [b, t^T]] from the checked floats; t is row-major
    r = [[1.0, *a]] + [[b[m], t[m], t[3 + m], t[6 + m]] for m in range(3)]
    params = HSParams._of_checked_r(np.array(r))
    # Pauli-parameterized input always has unit trace; the flag is accepted
    # for interface stability and has no numeric effect.
    if not isinstance(doc.get("normalize", False), bool):
        raise StateFileError("field 'normalize' must be a boolean")
    return params


def _json(report: dict) -> str:
    """json.dumps(report, indent=2): the report's leaves filled into the layout
    of its shape."""
    leaves: list = []
    shape: list = []
    _leaves(report, leaves, shape)
    key = tuple(shape)
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = _layout(report)
    return layout % tuple(leaves)


# the layout of each report shape, made by _layout
_LAYOUTS: dict[tuple, str] = {}


def _leaves(value, leaves: list, shape: list) -> None:
    # the leaves of a dict or list, each as its slot takes it, and its shape:
    # the keys of each dict, the length of each list and None for each leaf,
    # in the order json writes them.  TypeError for any other leaf
    if type(value) is dict:
        shape.append(tuple(value))
        value = value.values()
    else:
        shape.append(len(value))
    for item in value:
        kind = type(item)
        # a slot writes repr for a float or an int, which is what json writes
        if kind is float and math.isfinite(item) or kind is int:
            leaves.append(item)
        elif kind is dict or kind is list:
            _leaves(item, leaves, shape)
            continue
        elif kind is str:
            leaves.append(encode_basestring_ascii(item))
        elif kind is bool:
            leaves.append("true" if item else "false")
        elif kind is float:
            leaves.append(json.dumps(item))  # NaN, Infinity or -Infinity
        else:
            raise TypeError(f"no slot for a {kind.__name__}")
        shape.append(None)


def _layout(value, newline: str = "\n") -> str:
    # json.dumps(value, indent=2) nested behind `newline`, with a %s slot for
    # each leaf _leaves took; TypeError for a key that is not a str
    inner = newline + "  "
    if type(value) is dict:
        items = [
            encode_basestring_ascii(key).replace("%", "%%") + ": " + _layout(item, inner)
            for key, item in value.items()
        ]
        brackets = "{}"
    elif type(value) is list:
        items = [_layout(item, inner) for item in value]
        brackets = "[]"
    else:
        return "%s"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json(report))
        return
    for key, value in report.items():
        print(f"{key}: {json.dumps(value)}")


def _cmd_analyze(args) -> int:
    params = load_state_file(args.state_file)
    a, b, t = params.a.tolist(), params.b.tolist(), params.t.tolist()
    report: dict = {"input": {"a": a, "b": b, "t": t}}
    try:
        rec = cross_validate(params, args.tol_verdict, args.beta_limit, args.tol_psd)
    except InvalidStateError as exc:
        report.update(psd=False, eigenvalues_4l=exc.spectrum.tolist(), error=str(exc))
        _emit(report, args.format)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    report.update(
        psd=True,
        eigenvalues_4l=rec.spectrum.tolist(),
        pt_eigenvalues_4l=rec.pt_spectrum.tolist(),
        ppt_verdict=vars(rec.ppt).copy(),
    )
    solve = rec.report
    notes = [] if solve.note is None else [solve.note]
    # the reduced t is exactly diagonal; the float sum left to right is
    # numpy's sum of the three, as in mds_criterion
    t1, t2, t3 = solve.reduced.t.diagonal().tolist()
    total = abs(t1) + abs(t2) + abs(t3)
    if max(map(abs, solve.reduced.a.tolist() + solve.reduced.b.tolist())) <= ZERO_TOL:
        notes.append(
            "maximally disordered subsystems: sum|t_i| <= 1 is necessary "
            f"and sufficient (sum = {total:.6g})"
        )
    elif not total <= 1.0 + MDS_SUM_TOL:
        notes.append("necessary screen failed: sum|t_i| > 1 already implies entangled")
    report["classification"] = {
        "kind": _kind_label(solve.classification.kind),
        "detail": solve.classification.detail,
    }
    if solve.classification.is_generic:
        report["betas"] = list(solve.betas)
        report["boost_kind"] = solve.boost_kind
        if solve.axis is not None:
            report["boost_axis"] = solve.axis
        # SigmaForm.tprime and tprime_sum on floats: the same divisions, and
        # the same sum left to right
        s0, s = solve.sigma.s0, solve.sigma.s.tolist()
        tprime = [value / s0 for value in s]
        x, y, z = tprime
        report.update(
            sigma={"s0": s0, "s": s},
            tprime=tprime,
            lorentz_sum=abs(x) + abs(y) + abs(z),
            lorentz_verdict=vars(rec.lorentz).copy(),
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


def _gated(gate, *name):
    """argparse type: the float the library's own gate for a knob takes; a
    value it refuses is a usage error with the gate's message."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = text  # the gate refuses text with its own message
        try:
            return gate(value, *name)
        except QubitSepError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The qubitsep parser, built on first use and shared by every main() call.

    Parsing leaves the parser unchanged, so one object serves all requests of
    a process; callers must not add arguments to it.
    """
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, tuple[tuple[str, ...], dict]]]:
    # the top-level parser and, for each subcommand whose one positional is
    # state_file, the subparser's prefix characters and the attributes
    # argparse gives a request [name, STATE] (the subparser's own pass over a
    # placeholder)
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
    p_analyze.add_argument("--tol-psd", type=_gated(_verdict_tol, "tol_psd"), default=PSD_TOL)
    p_analyze.add_argument("--tol-verdict", type=_gated(_verdict_tol, "tol"), default=VERDICT_TOL)
    p_analyze.add_argument("--beta-limit", type=_gated(_beta_limit), default=BETA_LIMIT)
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

    one_file = {}
    for name, command in (("analyze", p_analyze), ("classify", p_classify)):
        template, _ = command.parse_known_args(["STATE"], argparse.Namespace(command=name))
        one_file[name] = (tuple(command.prefix_chars), vars(template))
    return parser, one_file


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, one_file = _parsers()
    args = None
    if len(argv) == 2 and argv[0] in one_file:
        prefixes, template = one_file[argv[0]]
        token = argv[1]
        if isinstance(token, str) and not token.startswith(prefixes):
            # argparse reads such a token as the state_file positional and
            # nothing else, so the request gets what its pass would give
            args = argparse.Namespace(**template)
            args.state_file = token
    if args is None:
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
