"""Command-line surface: compute groups, evaluate maps, run verifications.

This module is a thin shell over the library; it does no mathematics itself.
Exit codes: 0 success, 1 failed verification claim, 2 budget exceeded,
3 invalid name, 4 element parse error, 5 schema validation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import abelian, lie, quadratic, treegroups, trees
from .eta import (ALL_CLAIMS, eta as eta_map, eta_infinity, eta_prime,
                  eta_tilde, verify, verify_all)

EXIT_FAILED_CLAIM = 1
EXIT_BUDGET = 2
EXIT_BAD_NAME = 3
EXIT_PARSE = 4
EXIT_SCHEMA = 5

GROUP_NAMES = ("L", "Lq", "D", "Dq", "Dtilde", "Dinf",
               "T", "Ttilde", "Tinf", "Z2L", "Z2Lq")
MAP_NAMES = ("etaP", "eta", "etaTilde", "etaInf", "delta",
             "sq", "sl", "p", "bracket")


@dataclass
class Config:
    max_order: int = 4
    max_labels: int = 2
    fmt: str = "json"
    seed: int = 0

    def allows(self, tree_order, labels):
        if tree_order < 0 or labels < 1:
            return False
        if tree_order <= self.max_order and labels <= self.max_labels:
            return True
        # default allowance: three labels up to order two, unless the label
        # cap was lowered below the default
        return labels == 3 and tree_order <= 2 and self.max_labels >= 2


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _tree_order(name, order):
    if name in ("L", "Lq", "Z2L", "Z2Lq"):
        return order - 1
    if name in ("D", "Dq", "Dtilde", "Dinf"):
        return order + 1
    return order


def _build_group(name, order, labels):
    if name == "L":
        return lie.lie_group(order, labels, lie.LIE).group
    if name == "Lq":
        return lie.lie_group(order, labels, lie.QUASI).group
    if name == "Z2L":
        return abelian.tensor_Z2(lie.lie_group(order, labels, lie.LIE).group)
    if name == "Z2Lq":
        return abelian.tensor_Z2(lie.lie_group(order, labels, lie.QUASI).group)
    if name == "D":
        return lie.d_group(order, labels, lie.LIE).group
    if name == "Dq":
        return lie.d_group(order, labels, lie.QUASI).group
    if name == "Dtilde":
        return lie.d_tilde(order, labels)[0]
    if name == "Dinf":
        return lie.d_infinity(order, labels).group
    if name == "T":
        return treegroups.t_group(order, labels).group
    if name == "Ttilde":
        return treegroups.t_tilde(order, labels).group
    if name == "Tinf":
        return treegroups.t_infinity(order, labels).group
    raise CliError(EXIT_BAD_NAME, f"unknown group name: {name}")


def render_key(key):
    if isinstance(key, trees.UnrootedTree):
        return key.key
    if isinstance(key, trees.RootedTree):
        return key.key
    if isinstance(key, tuple):
        if len(key) == 2 and key[0] == "inf":
            return f"inf:{key[1].key}"
        if len(key) == 2 and isinstance(key[0], int) \
                and isinstance(key[1], trees.RootedTree):
            t = key[1]
            right = f"X{t.label}" if t.is_leaf else t.key
            return f"X{key[0]}⊗{right}"
        if len(key) == 2 and key[0] in ("ker", "im", "pb"):
            return f"{key[0]}:{key[1]}"
        return ":".join(render_key(k) for k in key)
    return str(key)


def render_element(group, coeffs, via=None):
    """Pretty-print a coefficient vector over a group's generators.

    `via` composes with an inclusion first (used to show kernel elements in
    ambient tensor coordinates).
    """
    if via is not None:
        coeffs = via.apply_vector(list(coeffs))
        group = via.target
    terms = []
    for key, c in zip(group.generators, coeffs):
        if not c:
            continue
        name = render_key(key)
        if c == 1:
            terms.append(f"+ {name}")
        elif c == -1:
            terms.append(f"- {name}")
        elif c > 0:
            terms.append(f"+ {c}*{name}")
        else:
            terms.append(f"- {-c}*{name}")
    if not terms:
        return "0"
    out = " ".join(terms)
    return out[2:] if out.startswith("+ ") else ("-" + out[2:])


def _emit(obj, cfg, stream=None):
    stream = stream or sys.stdout
    if cfg.fmt == "json":
        stream.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    elif cfg.fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        if isinstance(obj, dict):
            w.writerow(obj.keys())
            w.writerow([json.dumps(v) if isinstance(v, (list, dict)) else v
                        for v in obj.values()])
        else:
            for row in obj:
                w.writerow(row)
        stream.write(buf.getvalue())
    else:
        stream.write(_textual(obj) + "\n")


def _textual(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        return "\n".join(f"{pad}{k}: " + (("\n" + _textual(v, indent + 1))
                                          if isinstance(v, (dict, list))
                                          else str(v))
                         for k, v in obj.items())
    if isinstance(obj, list):
        return "\n".join(f"{pad}- " + (("\n" + _textual(v, indent + 1))
                                       if isinstance(v, (dict, list))
                                       else str(v))
                         for v in obj)
    return pad + str(obj)


def cmd_group(args, cfg):
    name, order, labels = args.name, args.order, args.labels
    if name not in GROUP_NAMES:
        raise CliError(EXIT_BAD_NAME, f"unknown group name: {name}")
    if not cfg.allows(_tree_order(name, order), labels):
        raise CliError(EXIT_BUDGET,
                       f"budget exceeded for {name} order={order} "
                       f"labels={labels} (raise --max-order/--max-labels)")
    try:
        g = _build_group(name, order, labels)
    except ValueError as e:
        raise CliError(EXIT_BAD_NAME, str(e))
    out = {"group": name, "order": order, "labels": labels,
           "free_rank": g.free_rank, "torsion": g.torsion}
    if args.generators:
        out["generators"] = [render_key(k) for k in g.generators]
    _emit(out, cfg)
    return 0


def _build_map(name, order, labels):
    if name == "etaP":
        return eta_prime(order, labels)
    if name == "eta":
        return eta_map(order, labels)
    if name == "etaTilde":
        return eta_tilde(order, labels)
    if name == "etaInf":
        return eta_infinity(order, labels)
    if name == "delta":
        if order % 2 != 1:
            raise CliError(EXIT_BAD_NAME, "delta lives in odd orders")
        return treegroups.delta((order + 1) // 2, labels)
    if name == "sq":
        return lie.sq(order, labels)
    if name == "sl":
        return lie.sl(order, labels)
    if name == "p":
        return lie.proj_p(order, labels)
    if name == "bracket":
        return lie.bracket_hom(order, labels)
    raise CliError(EXIT_BAD_NAME, f"unknown map name: {name}")


def _map_tree_order(name, order):
    if name in ("etaP", "eta", "etaTilde", "etaInf", "delta"):
        return order + 1
    if name == "sq":
        return 2 * order - 1
    if name in ("sl", "bracket"):
        return order + 1
    if name == "p":
        return order - 1
    return order


def _parse_element(h, text):
    """Parse a single source generator token for a map's domain."""
    text = text.strip()
    src = h.source
    try:
        if text.startswith("inf:"):
            t = trees.parse_tree(text[4:])
            key = ("inf", trees.canonical_rooted(t).tree)
            return src.element({key: 1})
        if text.startswith("<"):
            lab, t = trees.parse_unrooted(text)
            c = trees.canonical_unrooted(lab, t)
            return src.element({c.tree: c.sign})
        if text.startswith("ker:"):
            return src.element({("ker", int(text[4:])): 1})
        if ":" in text:
            lab, rest = text.split(":", 1)
            t = trees.parse_tree(rest)
            c = trees.canonical_rooted(t)
            return src.element({(int(lab), c.tree): c.sign})
        t = trees.parse_tree(text)
        c = trees.canonical_rooted(t)
        return src.element({c.tree: c.sign})
    except (ValueError, KeyError) as e:
        raise CliError(EXIT_PARSE, f"cannot parse element {text!r} in the "
                                   f"domain of this map: {e}")
    except RecursionError:
        # the tree parser and canonical forms recurse once per nesting level
        raise CliError(EXIT_PARSE, "cannot parse element: the tree is nested "
                                   "too deeply")


def cmd_map(args, cfg):
    name, order, labels = args.name, args.order, args.labels
    if name not in MAP_NAMES:
        raise CliError(EXIT_BAD_NAME, f"unknown map name: {name}")
    if not cfg.allows(_map_tree_order(name, order), labels):
        raise CliError(EXIT_BUDGET, "budget exceeded (raise --max-order)")
    try:
        h = _build_map(name, order, labels)
    except CliError:
        raise
    except ValueError as e:
        raise CliError(EXIT_BAD_NAME, str(e))
    via = None
    if name in ("eta", "etaP", "etaTilde"):
        # kernel-presented targets read best in ambient tensor coordinates
        variant = lie.LIE if name == "eta" else lie.QUASI
        D = lie.d_group(order, labels, variant)
        if name in ("eta", "etaP"):
            via = D.inclusion
    if args.element is not None:
        el = _parse_element(h, args.element)
        img = h(el)
        print(render_element(img.group, img.coeffs, via=via))
        return 0
    a = abelian.hom_analysis(h)
    out = {"map": name, "order": order, "labels": labels,
           "matrix": [list(r) for r in h.matrix.data],
           "source": h.source.describe(), "target": h.target.describe(),
           "kernel": a.kernel.describe(), "cokernel": a.cokernel.describe(),
           "injective": a.injective, "surjective": a.surjective,
           "isomorphism": a.isomorphism}
    _emit(out, cfg)
    return 0


def cmd_verify(args, cfg):
    max_order = (args.order if args.order is not None
                 else args.verify_max_order)
    if not cfg.allows(max_order, args.labels):
        raise CliError(EXIT_BUDGET,
                       f"budget exceeded for verify order={max_order} "
                       f"labels={args.labels} (raise the global "
                       f"--max-order/--max-labels)")
    if args.claim == "all":
        reports = verify_all(max_order, args.labels, cfg.seed)
    else:
        if args.claim not in ALL_CLAIMS:
            raise CliError(EXIT_BAD_NAME, f"unknown claim: {args.claim} "
                           f"(choose from {', '.join(ALL_CLAIMS)})")
        reports = [verify(args.claim, max_order, args.labels, cfg.seed)]
    payload = json.dumps([r.to_dict() for r in reports],
                         sort_keys=True, indent=2) + "\n"
    sys.stdout.write(payload)
    if args.report:
        with open(args.report, "w") as f:
            f.write(payload)
    return EXIT_FAILED_CLAIM if any(r.status == "failed" for r in reports) \
        else 0


def _hom_table(h, label):
    return {label: [list(r) for r in h.matrix.data]}


def cmd_quadratic(args, cfg):
    sub = args.subcommand
    if sub == "bridge":
        if args.order is None or args.order % 2 != 0:
            raise CliError(EXIT_BAD_NAME, "bridge needs an even --order (2n)")
        n = args.order // 2
        if not cfg.allows(args.order, args.labels):
            raise CliError(EXIT_BUDGET, "budget exceeded")
        br = quadratic.bridge_T_infinity(n, args.labels)
        out = {"isomorphic": br.isomorphic,
               "checks": br.checks,
               "universal_side": br.refinement.target.e.describe(),
               "twisted_side": br.twisted.group.describe()}
        _emit(out, cfg)
        return 0
    if args.input is None:
        raise CliError(EXIT_SCHEMA, f"{sub} needs --input FORM.json")
    try:
        with open(args.input) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(EXIT_SCHEMA, f"cannot read form input: {e}")
    try:
        form = quadratic.form_from_json(data)
        if sub == "universal":
            F = quadratic.universal_refinement(form)
            Q = F.target
            out = {"model": "extension",
                   "M_ee": form.M.describe(),
                   "A": form.A.describe(),
                   "commutative_on_generators":
                       Q.is_commutative_on_generators(),
                   "axioms": quadratic.check_axioms(Q).to_dict(),
                   "mu": {render_key(g): repr(Q.mu(form.A.gen(g)))
                          for g in form.A.generators}}
        elif sub == "commutative":
            F = quadratic.universal_commutative(form)
            out = _presented_output(F)
        elif sub == "symmetric":
            F = quadratic.universal_symmetric(form)
            out = _presented_output(F)
            out["p_injective"] = abelian.hom_analysis(F.target.p).injective
        else:
            raise CliError(EXIT_BAD_NAME, f"unknown subcommand: {sub}")
    except (quadratic.SchemaError, quadratic.NotAMorphism) as e:
        raise CliError(EXIT_SCHEMA, str(e))
    _emit(out, cfg)
    return 0


def _presented_output(F):
    Q = F.target
    out = {"model": "presented",
           "M_c_e": Q.e.describe(),
           "M_ee": Q.ee.describe(),
           "axioms": quadratic.check_axioms(Q).to_dict()}
    out.update(_hom_table(Q.h, "h"))
    out.update(_hom_table(Q.p, "p"))
    out["mu"] = {render_key(g): list(F.mu(F.A.gen(g)).coeffs)
                 for g in F.A.generators}
    return out


def cmd_table(args, cfg):
    names = args.names.split(",") if args.names else ["L", "Lq", "T",
                                                      "Ttilde", "Tinf"]
    rows = [("name", "n", "m", "free_rank", "torsion")]
    skipped = set()
    for name in names:
        if name not in GROUP_NAMES:
            raise CliError(EXIT_BAD_NAME, f"unknown group name: {name}")
        start = 1 if name in ("L", "Lq", "Z2L", "Z2Lq") else 0
        for m in range(1, args.labels + 1):
            for n in range(start, args.max_order + 1):
                if name == "Dtilde" and n % 2 != 1:
                    continue
                if name == "Dinf" and n % 4 != 2:
                    continue
                if not cfg.allows(_tree_order(name, n), m):
                    skipped.add(n)
                    continue
                try:
                    g = _build_group(name, n, m)
                except ValueError:
                    continue
                rows.append((name, n, m, g.free_rank,
                             ";".join(str(t) for t in g.torsion)))
    w = csv.writer(sys.stdout)
    for r in rows:
        w.writerow(r)
    if skipped:
        print("note: over the budget, skipped orders "
              + ",".join(map(str, sorted(skipped)))
              + " (raise the global --max-order/--max-labels)",
              file=sys.stderr)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="quasilie",
        description="Tree groups, quasi-Lie bracket kernels, and universal "
                    "quadratic refinements over Z.")
    ap.add_argument("--max-order", type=int, default=4,
                    help="tree-order budget cap (default 4)")
    ap.add_argument("--max-labels", type=int, default=2,
                    help="label budget cap (default 2; 3 labels are allowed "
                         "up to order 2 regardless)")
    ap.add_argument("--format", choices=("json", "csv", "text"),
                    default="json")
    ap.add_argument("--jobs", type=int, default=1,
                    help="accepted and ignored: verify runs its claims "
                         "serially")
    ap.add_argument("--seed", type=int, default=0,
                    help="reserved: echoed in verify reports, read by no "
                         "claim")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="compute a group's structure")
    g.add_argument("name", help="|".join(GROUP_NAMES))
    g.add_argument("--order", type=int, required=True)
    g.add_argument("--labels", type=int, required=True)
    g.add_argument("--generators", action="store_true",
                   help="also list the canonical generators")
    g.set_defaults(func=cmd_group)

    mp = sub.add_parser("map", help="evaluate or analyze a homomorphism")
    mp.add_argument("name", help="|".join(MAP_NAMES))
    mp.add_argument("--order", type=int, required=True)
    mp.add_argument("--labels", type=int, required=True)
    mp.add_argument("--element", help="tree-grammar string: <i,T>, inf:T, "
                                      "T, i:T or ker:IDX")
    mp.set_defaults(func=cmd_map)

    v = sub.add_parser("verify", help="run verification claims")
    v.add_argument("claim", help="claim id or 'all'")
    v.add_argument("--max-order", dest="verify_max_order", type=int,
                   default=2, help="highest order to check (default 2; "
                                   "within the global budget)")
    v.add_argument("--order", type=int, default=None,
                   help="exact order (overrides --max-order)")
    v.add_argument("--labels", type=int, default=2)
    v.add_argument("--report", help="also write the JSON report here")
    v.set_defaults(func=cmd_verify)

    q = sub.add_parser("quadratic", help="universal quadratic refinements")
    q.add_argument("subcommand",
                   choices=("universal", "commutative", "symmetric", "bridge"))
    q.add_argument("--input", help="hermitian form JSON file")
    q.add_argument("--order", type=int, help="bridge: the order 2n")
    q.add_argument("--labels", type=int, default=2)
    q.set_defaults(func=cmd_quadratic)

    t = sub.add_parser("table", help="CSV of structures over a grid")
    t.add_argument("--names", help="comma-separated group names")
    t.add_argument("--max-order", dest="table_max_order", type=int,
                   default=None)
    t.add_argument("--labels", type=int, default=2)
    t.set_defaults(func=cmd_table)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    cfg = Config(max_order=args.max_order, max_labels=args.max_labels,
                 fmt=args.format, seed=args.seed)
    if args.command == "table" and args.table_max_order is not None:
        args.max_order = args.table_max_order
    try:
        return args.func(args, cfg)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
