"""Command-line front end.

Every subcommand prints a single machine-readable document (JSON by default)
with canonical ordering, so output is byte-stable for fixed inputs.  Errors
are reported as a JSON error object with exit code 2 (validation) and
verification mismatches exit with code 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import goldens
from .bijections import (
    TabPair,
    phi_b1,
    phi_b3,
    phi_nilpotent,
    psi_b1,
    psi_b3,
    psi_nilpotent,
    trace_phi_b1,
    trace_phi_b3,
    trace_phi_nilpotent,
)
from .cohomology import (
    BasisSet,
    XYElement,
    XYMonomial,
    basis_B1,
    basis_B2,
    basis_B3,
    basis_nilpotent,
    basis_transpose,
    transition_blocks,
)
from .errors import GuardrailExceeded, HesscombError, UnsupportedFormat, checked_int
from .gkm import (
    build_gkm_graph,
    check_gkm_condition,
    class_t,
    class_x,
    class_y,
    class_y_one_row,
    class_y_transpose,
    verify_relations,
)
from .hessenberg import HessenbergFunction, inc_graph, new_hessenberg
from .poincare import reconcile
from .symfunc import DEGREE_BOUND, change_basis, csf_by_coloring, is_positive, omega
from .tableaux import Partition, PTableau, p_tableaux_with_inversions, syt_with_bottom_pair

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3

DEFAULT_MAX_N = 7


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise HesscombError(f"could not parse {what} {text!r} as comma-separated integers")
    return tuple(map(int, parts))


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _json(data) -> str:
    return json.dumps(data, sort_keys=True)


def _terms_data(f) -> list[dict]:
    return json.loads(f.to_json())["terms"]


def _element_data(e: XYElement) -> dict:
    return json.loads(e.to_json())


def _require_format(fmt: str, allowed: tuple[str, ...]) -> None:
    if fmt not in allowed:
        raise UnsupportedFormat(f"format {fmt!r} not available here (choose from {', '.join(allowed)})")


def _guard(h: HessenbergFunction, max_n: int) -> None:
    if h.n > max_n:
        raise GuardrailExceeded(
            f"n = {h.n} exceeds the --max-n guardrail of {max_n}; "
            "pass a larger --max-n to run this size explicitly"
        )


def _cmd_csf(args) -> tuple[str, int]:
    h = args.h
    f = csf_by_coloring(inc_graph(h))
    schur = change_basis(f, "schur")
    if args.fmt == "latex":
        return schur.pretty(), EXIT_OK
    _require_format(args.fmt, ("json", "latex"))
    at_one = change_basis(f.at_q(1), "elementary")
    omega_h = change_basis(omega(schur), "homogeneous")
    data = {
        "h": list(h.values),
        "monomial": _terms_data(f),
        "schur": _terms_data(schur),
        "elementary_at_q1": _terms_data(at_one),
        "schur_positive": is_positive(schur, "schur")[0],
        "e_positive_at_q1": is_positive(at_one, "elementary")[0],
        "omega_h_positive": is_positive(omega_h, "homogeneous")[0],
    }
    return _json(data), EXIT_OK


def _cmd_poincare(args) -> tuple[str, int]:
    report = reconcile(args.h)
    if args.fmt == "latex":
        return report.polynomial().latex(), EXIT_OK
    _require_format(args.fmt, ("json", "latex"))
    code = EXIT_OK if report.agree else EXIT_VERIFICATION
    return report.to_json(), code


def _cmd_tableaux(args) -> tuple[str, int]:
    _require_format(args.fmt, ("json",))
    h = args.h
    if args.shape.size != h.n:
        raise HesscombError(f"shape {args.shape} has size {args.shape.size}, expected {h.n}")
    tabs = p_tableaux_with_inversions(h, args.shape)
    data = {
        "h": list(h.values),
        "shape": list(args.shape.parts),
        "count": len(tabs),
        "tableaux": [
            {"rows": [list(r) for r in t.rows], "inversions": inv} for t, inv in tabs
        ],
    }
    return _json(data), EXIT_OK


def _parse_class_name(h: HessenbergFunction, name: str, variant: str):
    kind, index = name[0], name[1:]
    if kind not in ("x", "y", "t") or not (index.isascii() and index.isdigit()):
        raise HesscombError(f"unknown class name {name!r}; use e.g. x2, y2, t1")
    k = int(index)
    if kind == "t":
        return class_t(h.n, k)
    if kind == "x":
        return class_x(h.n, k)
    if variant == "one-row":
        return class_y_one_row(h, k)
    if variant == "transpose":
        return class_y_transpose(h, k)
    return class_y(h, k)


def _cmd_gkm(args) -> tuple[str, int]:
    h = args.h
    if args.dump_class:
        _require_format(args.fmt, ("json",))
        c = _parse_class_name(h, args.dump_class, args.variant)
        holds, bad = check_gkm_condition(build_gkm_graph(h), c)
        data = {
            "h": list(h.values),
            "class": args.dump_class,
            "values": goldens._class_values(c),
            "gkm_condition": holds,
        }
        if bad is not None:
            data["failing_edge"] = {
                "u": "".join(str(v) for v in bad.w),
                "v": "".join(str(v) for v in bad.v),
                "label": bad.label_str(),
            }
        return _json(data), EXIT_OK
    if args.relations:
        _require_format(args.fmt, ("json",))
        rel = verify_relations(h)
        data = {"h": list(h.values), "relations": rel, "all_hold": all(rel.values())}
        return _json(data), EXIT_OK if data["all_hold"] else EXIT_VERIFICATION
    g = build_gkm_graph(h)
    if args.fmt == "dot":
        return g.to_dot(), EXIT_OK
    _require_format(args.fmt, ("json", "dot"))
    return g.to_json(), EXIT_OK


def _basis_payload(b: BasisSet) -> dict:
    return {
        "label": b.label,
        "count": len(b.elements),
        "degrees": b.degrees(),
        "elements": [_element_data(e) for e in b.elements],
    }


def _cmd_basis(args) -> tuple[str, int]:
    h = args.h
    if args.blocks:
        blocks = transition_blocks(h)
        if args.fmt == "csv":
            return "\n".join(b.to_csv() for b in blocks), EXIT_OK
        _require_format(args.fmt, ("json", "csv"))
        dets = [b.determinant() for b in blocks]
        data = {
            "h": list(h.values),
            "blocks": [
                {
                    "degree": b.degree,
                    "size": b.size,
                    "determinant": det,
                    "unimodular": abs(det) == 1,
                    "matrix": [list(row) for row in b.matrix],
                }
                for b, det in zip(blocks, dets)
            ],
        }
        return _json(data), EXIT_OK
    _require_format(args.fmt, ("json",))
    which = args.which
    if which == "transpose":
        sets = basis_transpose(h)
        data = {"h": list(h.values), "bases": [_basis_payload(b) for b in sets]}
        return _json(data), EXIT_OK
    builder = {
        "B1": basis_B1,
        "B2": basis_B2,
        "B3": basis_B3,
        "Nh": basis_nilpotent,
    }[which]
    payload = _basis_payload(builder(h))
    payload["h"] = list(h.values)
    return _json(payload), EXIT_OK


def _parse_tableau_rows(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        rows = json.loads(text)
        return tuple(tuple(checked_int(v, "a tableau entry") for v in row) for row in rows)
    except HesscombError:
        raise
    except (ValueError, TypeError) as exc:
        raise HesscombError(f"could not parse tableau rows from {text!r}") from exc


def _bijection_forward(args) -> tuple[str, int]:
    h = args.h
    exps = _parse_int_list(args.monomial, "--monomial")
    if args.map == "b3":
        if args.k is None:
            raise HesscombError("map b3 needs --k for the y index")
        e = XYElement(h.n, {XYMonomial(exps, args.k): 1, XYMonomial(exps, 1): -1})
        data = trace_phi_b3(h, e)
    elif args.map == "b1":
        data = trace_phi_b1(h, XYMonomial(exps))
    else:
        data = trace_phi_nilpotent(h, XYMonomial(exps))
    if not args.trace:
        data = {key: data[key] for key in ("map", "h", "input", "output")}
    return _json(data), EXIT_OK


def _bijection_inverse(args) -> tuple[str, int]:
    h = args.h
    rows = _parse_tableau_rows(args.tableau)
    shape = Partition(tuple(len(r) for r in rows))
    t = PTableau(shape, rows)
    if args.map == "b3":
        if args.k is None:
            raise HesscombError("map b3 needs --k to pin the standard tableau")
        pair = TabPair(syt_with_bottom_pair(h.n, args.k), t)
        e = psi_b3(h, pair)
        data = {
            "map": "b3",
            "h": list(h.values),
            "input": json.loads(pair.to_json()),
            "output": _element_data(e),
        }
        return _json(data), EXIT_OK
    reader = psi_nilpotent if args.map == "nilpotent" else psi_b1
    m = reader(h, t)
    data = {
        "map": args.map,
        "h": list(h.values),
        "input": json.loads(t.to_json()),
        "output": {"x": list(m.xexp)},
    }
    return _json(data), EXIT_OK


def _bijection_round_trip(args) -> tuple[str, int]:
    h = args.h
    # Built per call: a module-level table would keep the functions bound at
    # import time even if this module's attributes are replaced later.
    basis, phi, psi = {
        "nilpotent": (basis_nilpotent, phi_nilpotent, psi_nilpotent),
        "b1": (basis_B1, phi_b1, psi_b1),
        "b3": (basis_B3, phi_b3, psi_b3),
    }[args.map]
    elements = basis(h).elements
    # The monomial maps act on the single monomial of each basis element.
    items = elements if args.map == "b3" else [m for el in elements for m in el.terms]
    ok = all(psi(h, phi(h, x)) == x for x in items)
    data = {"map": args.map, "h": list(h.values), "count": len(items), "all_ok": ok}
    return _json(data), EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_bijection(args) -> tuple[str, int]:
    _require_format(args.fmt, ("json",))
    if args.round_trip:
        return _bijection_round_trip(args)
    if args.monomial is not None:
        return _bijection_forward(args)
    if args.tableau is not None:
        return _bijection_inverse(args)
    raise HesscombError("bijection needs --monomial, --tableau, or --round-trip")


def _cmd_verify_goldens(args) -> tuple[str, int]:
    _require_format(args.fmt, ("json",))
    results = goldens.verify_all()
    items = []
    for r in results:
        item = {"key": r.key, "ok": r.ok}
        if not r.ok:
            item["detail"] = r.detail
        items.append(item)
    all_ok = all(r.ok for r in results)
    data = {"results": items, "all_ok": all_ok}
    return _json(data), EXIT_OK if all_ok else EXIT_VERIFICATION


def _add_command(sub, name: str, run, *, needs_h: bool = True, max_n: int = DEFAULT_MAX_N, **kwargs):
    """A subcommand that runs `run` on the parsed arguments.  Every subcommand
    takes --format; one that reads an h takes --h and its --max-n guardrail."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(run=run)
    p.add_argument("--format", dest="fmt", default="json", choices=("json", "csv", "latex", "dot"))
    if needs_h:
        p.add_argument("--h", dest="h_values", required=True, help="Hessenberg function as a comma list, e.g. 2,3,3")
        p.add_argument("--max-n", dest="max_n", type=int, default=max_n)
    return p


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a HesscombError, so it reaches the JSON
    error path instead of printing usage to stderr, and takes option names only
    in full, so that --h never reads as --help; subparsers inherit both."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise HesscombError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args fills a fresh
    namespace on every call, so nothing carries over between calls."""
    parser = _Parser(
        prog="hesscomb",
        description="Exact combinatorial models of Hessenberg cohomology rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # csf sums colorings by a subset DP (3^n steps), so it runs up to the
    # basis changes' DEGREE_BOUND rather than the n! walks' DEFAULT_MAX_N.
    _add_command(sub, "csf", _cmd_csf, max_n=DEGREE_BOUND, help="chromatic quasisymmetric function report")
    _add_command(sub, "poincare", _cmd_poincare, help="Poincare polynomial reconciliation")
    tab = _add_command(sub, "tableaux", _cmd_tableaux, help="enumerate P-tableaux with inversions")
    tab.add_argument("--shape", required=True, help="partition as a comma list, e.g. 2,1,1,1")

    gkm = _add_command(sub, "gkm", _cmd_gkm, help="GKM graph, classes, relations")
    gkm.add_argument("--dump-class", help="class name such as x2, y2, t1")
    gkm.add_argument("--variant", choices=("auto", "one-row", "transpose"), default="auto")
    gkm.add_argument("--relations", action="store_true", help="verify the product relations")

    basis = _add_command(sub, "basis", _cmd_basis, help="monomial bases and transition blocks")
    basis.add_argument("--which", choices=("B1", "B2", "B3", "Nh", "transpose"), default="B1")
    basis.add_argument("--blocks", action="store_true", help="emit per-degree transition blocks")

    bij = _add_command(sub, "bijection", _cmd_bijection, help="apply, trace, or round-trip the tableau maps")
    bij.add_argument("--map", choices=("nilpotent", "b1", "b3"), required=True)
    bij.add_argument("--monomial", help="x-exponents as a comma list")
    bij.add_argument("--k", type=int, help="y index for map b3")
    bij.add_argument("--tableau", help="tableau rows, bottom-up, as JSON")
    bij.add_argument("--trace", action="store_true", help="emit every insertion step")
    bij.add_argument("--round-trip", dest="round_trip", action="store_true")

    _add_command(
        sub,
        "verify-goldens",
        _cmd_verify_goldens,
        needs_h=False,
        aliases=["verify-paper"],
        help="recompute all embedded reference examples and diff",
    )
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The parsed namespace with h (from --h, guarded by --max-n) and shape
    resolved to their objects, for the subcommands that take them."""
    args = build_parser().parse_args(argv)
    if "h_values" in args:
        args.h = new_hessenberg(_parse_int_list(args.h_values, "--h"))
        _guard(args.h, args.max_n)
    if "shape" in args:
        args.shape = Partition(_parse_int_list(args.shape, "--shape"))
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
        out, code = args.run(args)
    except HesscombError as exc:
        _emit(_json({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return EXIT_VALIDATION
    _emit(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
