"""JSON input parsing and report serialization.

Rationals are written as strings "p/q" (or plain integers); matrices are
row-major nested arrays.  See README for the full schema.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import IO

from . import liealg
from .exactlin import QMatrix, Subspace, sparse_rows
from .pipeline import AbelianizationReport, InputError, OrbitModel
from .symmetry import (
    DEFAULT_GROUP_CAP,
    ConnectedLieAction,
    FiniteMatrixAction,
    TorusAction,
)


def _rational(x, where: str, i: int, j: int) -> Fraction:
    """The entry x at where[i][j], not an int: a 'p/q' string, read as
    `Fraction` reads it."""
    if isinstance(x, bool):
        raise InputError("%s[%d][%d]: expected a rational, got a boolean" % (where, i, j))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(
                "%s[%d][%d]: bad rational %r (%s)" % (where, i, j, x, exc)
            ) from exc
    raise InputError(
        "%s[%d][%d]: expected int or 'p/q' string, got %r" % (where, i, j, x)
    )


_INT = {int}


def _int_rows(rows, where: str) -> tuple[int, list[list[int]]]:
    """(den, the rows of den * M) for the rectangular nested array M of
    rationals, den the lcm of their denominators, in one pass: an array of
    ints, told by one type check, is returned as it is; otherwise each
    other entry is read once, and den scales the rows."""
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], list):
        raise InputError("%s: expected a rectangular nested array" % where)
    width = len(rows[0])
    for r in rows:
        if not isinstance(r, list) or len(r) != width:
            raise InputError("%s: expected a rectangular nested array" % where)
    if set(map(type, chain.from_iterable(rows))) <= _INT:
        return 1, rows
    read = [
        [x if type(x) is int else _rational(x, where, i, j) for j, x in enumerate(r)]
        for i, r in enumerate(rows)
    ]
    den = lcm(*[x.denominator for x in chain.from_iterable(read) if type(x) is not int])
    return den, [
        [x * den if type(x) is int else x.numerator * (den // x.denominator) for x in r]
        for r in read
    ]


def _arrays(doc: dict, key: str, where: str) -> list:
    """The array of nested arrays under `key`; none when the key is absent."""
    arrays = doc.get(key, [])
    if not isinstance(arrays, list):
        raise InputError("%s.%s: expected an array" % (where, key))
    return arrays


def _matrices(doc: dict, key: str, where: str) -> tuple[QMatrix, ...]:
    """The matrices under `key`, each in its canonical integer form."""
    out = []
    for i, m in enumerate(_arrays(doc, key, where)):
        den, rows = _int_rows(m, "%s.%s[%d]" % (where, key, i))
        out.append(QMatrix(den, sparse_rows(rows), len(rows[0])))
    return tuple(out)


def _known_keys(doc: dict, keys: tuple[str, ...], where: str) -> None:
    """Reject the first key of doc outside `keys`, located under `where`.  The
    key is shown as a JSON string shows it, without the quotes: control and
    non-ASCII characters are escaped, so the message stays one line."""
    for key in doc:
        if key not in keys:
            shown = json.dumps(key)[1:-1]
            path = "%s.%s" % (where, shown) if where else shown
            raise InputError("%s: unknown key (expected one of %s)" % (path, ", ".join(keys)))


def _parse_action(doc: dict, where: str, cap: int):
    kind = doc.get("kind")
    try:
        if kind == "torus":
            _known_keys(doc, ("kind", "weights"), where)
            weights = doc.get("weights")
            if not isinstance(weights, list) or not weights:
                raise InputError("%s: torus action needs a 'weights' matrix" % where)
            for i, row in enumerate(weights):
                if not isinstance(row, list) or not set(map(type, row)) <= _INT:
                    raise InputError(
                        "%s.weights[%d]: weights must be integers" % (where, i)
                    )
            return TorusAction(tuple(map(tuple, weights)))
        if kind in ("finite", "connected_lie"):
            _known_keys(doc, ("kind", "dim", "generators"), where)
            dim = doc.get("dim")
            if type(dim) is not int or dim < 1:
                raise InputError("%s: %s action needs 'dim' >= 1" % (where, kind))
            gens = _matrices(doc, "generators", where)
            if kind == "finite":
                return FiniteMatrixAction(dim, gens, cap=cap)
            return ConnectedLieAction(dim, gens)
    except InputError:
        raise
    except ValueError as exc:
        raise InputError("%s: %s" % (where, exc)) from exc
    raise InputError(
        "%s: unknown action kind %r (expected finite/torus/connected_lie)"
        % (where, kind)
    )


def _parse_isotropy(doc, where: str) -> liealg.IsotropyData:
    if not isinstance(doc, dict):
        raise InputError("%s: expected an object, got %r" % (where, doc))
    _known_keys(
        doc, ("dim", "structure_constants", "h_basis", "automorphisms", "derivations"), where
    )
    dim = doc.get("dim")
    if type(dim) is not int:
        raise InputError("%s: isotropy data needs integer 'dim'" % where)
    if doc.get("structure_constants") is None:
        raise InputError("%s: missing 'structure_constants'" % where)
    read = [
        _int_rows(p, "%s.structure_constants[%d]" % (where, i))
        for i, p in enumerate(_arrays(doc, "structure_constants", where))
    ]
    h_rows = doc.get("h_basis", [])
    # den * h spans what h does
    h = _int_rows(h_rows, where + ".h_basis")[1] if h_rows != [] else ()
    if h and len(h[0]) != dim:
        raise InputError("%s: h_basis rows have %d entries, not %d" % (where, len(h[0]), dim))
    autos = _matrices(doc, "automorphisms", where)
    ders = _matrices(doc, "derivations", where)
    try:
        # the planes' integer rows at one denominator, the lcm of theirs
        den = lcm(*(d for d, _ in read))
        planes = [rows if d == den else [[x * (den // d) for x in r] for r in rows]
                  for d, rows in read]
        algebra = liealg.LieAlgebraSC.from_planes(dim, den, planes)
        return liealg.IsotropyData(algebra, Subspace.from_vectors(dim, h), autos, ders)
    except ValueError as exc:
        raise InputError("%s: %s" % (where, exc)) from exc


def _option(flags: Mapping, options: dict, key: str, least: int) -> int | None:
    """The flag or document value of option `key`; None when neither is set."""
    value = flags.get(key)
    if value is None:
        value = options.get(key)
    if value is None or (
        not isinstance(value, bool) and isinstance(value, int) and value >= least
    ):
        return value
    raise InputError(
        "options.%s: expected an integer >= %d, got %r" % (key, least, value)
    )


def _run_options(options, flags: Mapping) -> tuple[int | None, int]:
    """(degree bound or None, group cap), each resolved once: the
    command-line flag wins, then the document's "options" object, then the
    default.  "seed" is still validated for older documents and callers, but
    nothing reads it."""
    if options is None:
        options = {}
    if not isinstance(options, dict):
        raise InputError("options: expected an object, got %r" % (options,))
    _known_keys(options, ("seed", "degree_bound", "group_cap"), "options")
    _option(flags, options, "seed", 0)
    return (
        _option(flags, options, "degree_bound", 1),
        _option(flags, options, "group_cap", 1) or DEFAULT_GROUP_CAP,
    )


def parse_input(source: str | IO[str] | dict, flags: Mapping) -> list[OrbitModel]:
    """Parse an input document into orbit models, each carrying the run's
    degree bound; the values in `flags` under the option names ("seed",
    "degree_bound", "group_cap") override the document's, unless None."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(source) if isinstance(source, str) else json.load(source)
        except ValueError as exc:
            raise InputError("input is not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict) or "orbits" not in doc:
        raise InputError("top level must be an object with an 'orbits' array")
    if not isinstance(doc["orbits"], list):
        raise InputError("orbits: expected an array, got %r" % (doc["orbits"],))
    _known_keys(doc, ("orbits", "options"), "")
    degree_bound, cap = _run_options(doc.get("options"), flags)
    models = []
    for i, rec in enumerate(doc["orbits"]):
        where = "orbits[%d]" % i
        if not isinstance(rec, dict):
            raise InputError("%s: expected an object" % where)
        _known_keys(rec, ("label", "slice_action", "isotropy_lie", "quotient"), where)
        label = rec.get("label", "orbit-%d" % i)
        if not isinstance(label, str):
            raise InputError("%s.label: expected a string, got %r" % (where, label))
        action_doc = rec.get("slice_action")
        if not isinstance(action_doc, dict):
            raise InputError("%s: missing 'slice_action'" % where)
        action = _parse_action(action_doc, where + ".slice_action", cap)
        iso = None
        if rec.get("isotropy_lie") is not None:
            iso = _parse_isotropy(rec["isotropy_lie"], where + ".isotropy_lie")
        quotient = rec.get("quotient", False)
        if not isinstance(quotient, bool):
            raise InputError("%s.quotient: expected true or false, got %r" % (where, quotient))
        models.append(
            OrbitModel(
                label=label,
                slice_action=action,
                isotropy_lie=iso,
                quotient_requested=quotient,
                degree_bound=degree_bound,
            )
        )
    return models


def serialize_report(report: AbelianizationReport) -> str:
    return json.dumps(report.to_dict(), indent=2)


def parse_report(text: str) -> AbelianizationReport:
    return AbelianizationReport.from_dict(json.loads(text))


def format_report(report: AbelianizationReport) -> str:
    lines = []
    for o in report.orbits:
        lines.append("orbit %s:" % o.label)
        lines.append(
            "  commutant dim %d, (m, l) = (%d, %d), center dim %d, "
            "abelianization dim %d" % (o.commutant_dim, o.m, o.l, o.center_dim,
                                       o.abelianization_dim)
        )
        lines.append(
            "  center-splits check: %s"
            % ("pass" if o.center_split_passed else "FAIL")
        )
        if o.lie_summand_dim is not None:
            lines.append("  Lie summand dim %d" % o.lie_summand_dim)
        if o.quotient is not None:
            q = o.quotient
            lines.append(
                "  quotient: R^%d + C^%d (k = %d, %s)"
                % (q.real_rank, q.complex_rank, q.k, q.exactness)
            )
    lines.append(
        "totals: R^%d + C^%d%s"
        % (
            report.real_rank,
            report.complex_rank,
            " + Lie summands of dims %s" % (list(report.lie_dims),)
            if report.lie_dims
            else "",
        )
    )
    if report.quotient_real_rank is not None:
        lines.append(
            "quotient totals: R^%d + C^%d"
            % (report.quotient_real_rank, report.quotient_complex_rank)
        )
    return "\n".join(lines)
