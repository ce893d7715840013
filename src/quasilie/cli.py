"""Command-line surface: compute groups, evaluate maps, run verifications.

This module is a thin shell over the library; it does no mathematics itself.
Exit codes: 0 success, 1 failed verification claim, 2 budget exceeded,
3 invalid name or order, 4 element parse error, 5 schema validation error,
6 usage error (a bad command line, or an unwritable verify --report), 7 a
library consistency error (a map or lift failed a check of its construction).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass

from . import abelian, lie, quadratic, treegroups, trees
from .eta import (ALL_CLAIMS, d_tilde, eta as eta_map, eta_infinity,
                  eta_prime, eta_tilde, verify, verify_all)

EXIT_FAILED_CLAIM = 1
EXIT_BUDGET = 2
EXIT_BAD_NAME = 3
EXIT_PARSE = 4
EXIT_SCHEMA = 5
EXIT_USAGE = 6
EXIT_CONSISTENCY = 7


def _allows(args, tree_order, labels):
    """Whether the global --max-order/--max-labels budget allows a job."""
    if tree_order < 0 or labels < 1:
        return False
    if tree_order <= args.max_order and labels <= args.max_labels:
        return True
    # default allowance: three labels up to order two, unless the label cap
    # was lowered below the default
    return labels == 3 and tree_order <= 2 and args.max_labels >= 2


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Entry:
    """How to build one group or map, and where it is defined.

    The name is defined in the orders first, first + step, ... with at least
    one label; the budget is checked on tree_order(order).  For the eta maps
    into a bracket kernel, `ambient` names the variant whose inclusion
    renders --element images in tensor coordinates.  L, Lq and T build a
    lie.BlockSum, read one label-multidegree block at a time.
    """
    build: Callable[[int, int], object]
    tree_order: Callable[[int], int]
    first: int = 0
    step: int = 1
    ambient: str | None = None

    def defined(self, order, labels):
        return (labels >= 1 and order >= self.first
                and (order - self.first) % self.step == 0)


def _grade(n):        # a Lie grade of degree n has trees of order n - 1
    return n - 1


def _kernel(n):       # D_n and the maps into it: trees of order n + 1
    return n + 1


def _same(n):
    return n


# Every group and map of `group`, `map` and `table`.  Builders look their
# library functions up when called, so they always call the current ones.
REGISTRY = {
    "group": {
        "L": Entry(lambda n, m: lie.lie_blocks(n, m, lie.LIE), _grade, 1),
        "Lq": Entry(lambda n, m: lie.lie_blocks(n, m, lie.QUASI), _grade, 1),
        "D": Entry(lambda n, m: lie.d_group(n, m, lie.LIE).group, _kernel),
        "Dq": Entry(lambda n, m: lie.d_group(n, m, lie.QUASI).group,
                    _kernel),
        "Dtilde": Entry(lambda n, m: d_tilde(n, m), _kernel, 1, 2),
        "Dinf": Entry(lambda n, m: lie.d_infinity(n, m).group, _kernel, 2, 4),
        "T": Entry(lambda n, m: treegroups.t_blocks(n, m), _same),
        "Ttilde": Entry(lambda n, m: treegroups.t_tilde(n, m), _same),
        "Tinf": Entry(lambda n, m: treegroups.t_infinity(n, m).group, _same),
        "Z2L": Entry(lambda n, m: abelian.tensor_Z2(
            lie.lie_group(n, m, lie.LIE)), _grade, 1),
        "Z2Lq": Entry(lambda n, m: abelian.tensor_Z2(
            lie.lie_group(n, m, lie.QUASI)), _grade, 1),
    },
    "map": {
        "etaP": Entry(lambda n, m: eta_prime(n, m), _kernel,
                      ambient=lie.QUASI),
        "eta": Entry(lambda n, m: eta_map(n, m), _kernel, ambient=lie.LIE),
        "etaTilde": Entry(lambda n, m: eta_tilde(n, m), _kernel, 1, 2),
        "etaInf": Entry(lambda n, m: eta_infinity(n, m), _kernel, 2, 4),
        "delta": Entry(lambda n, m: treegroups.delta((n + 1) // 2, m),
                       _kernel, 1, 2),
        "sq": Entry(lambda n, m: lie.sq(n, m), lambda n: 2 * n - 1, 1),
        "sl": Entry(lambda n, m: lie.sl(n, m), _kernel, 0, 2),
        "p": Entry(lambda n, m: lie.proj_p(n, m), _grade, 1),
        "bracket": Entry(lambda n, m: lie.bracket_hom(n, m), _kernel),
    },
}
GROUP_NAMES = tuple(REGISTRY["group"])
MAP_NAMES = tuple(REGISTRY["map"])


def _entry(kind, name, order, labels, args):
    """The registry entry of a request that is in its domain and budget."""
    entry = REGISTRY[kind].get(name)
    if entry is None:
        raise CliError(EXIT_BAD_NAME, f"unknown {kind} name: {name}")
    if not entry.defined(order, labels):
        raise CliError(EXIT_BAD_NAME,
                       f"{name} is defined in orders {entry.first}, "
                       f"{entry.first + entry.step}, ... with labels >= 1")
    if not _allows(args, entry.tree_order(order), labels):
        raise CliError(EXIT_BUDGET,
                       f"budget exceeded for {name} order={order} "
                       f"labels={labels} (raise --max-order/--max-labels)")
    return entry


def render_key(key):
    if isinstance(key, (trees.UnrootedTree, trees.RootedTree)):
        return key.key
    if isinstance(key, tuple):
        if len(key) == 2 and key[0] == "inf":
            return f"inf:{key[1].key}"
        if len(key) == 2 and isinstance(key[0], int) \
                and isinstance(key[1], trees.RootedTree):
            t = key[1]
            right = f"X{t.label}" if t.is_leaf else t.key
            return f"X{key[0]}⊗{right}"
        if len(key) == 2 and key[0] in ("ker", "im"):
            return f"{key[0]}:{key[1]}"
        return ":".join(render_key(k) for k in key)
    return str(key)


def render_element(element):
    """Pretty-print a group element over its group's generators."""
    terms = []
    for j, c in element.vector.items():
        name = render_key(element.group.generators[j])
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


def _emit(obj, args):
    if args.format == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(obj.keys())
        w.writerow([json.dumps(v) if isinstance(v, (list, dict, bool))
                    else v for v in obj.values()])
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write(_textual(obj) + "\n")


def _textual(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        return "\n".join(f"{pad}{k}:" + _nested(v, indent)
                         for k, v in obj.items())
    if isinstance(obj, list):
        return "\n".join(f"{pad}-" + _nested(v, indent) for v in obj)
    return pad + str(obj)


def _nested(value, indent):
    """What follows a key or a list dash: a nonempty list or dict on the
    lines below, anything else after one space on the same line."""
    if isinstance(value, (dict, list)) and value:
        return "\n" + _textual(value, indent + 1)
    return " " + str(value)


def cmd_group(args):
    name, order, labels = args.name, args.order, args.labels
    g = _entry("group", name, order, labels, args).build(order, labels)
    out = {"group": name, "order": order, "labels": labels,
           "free_rank": g.free_rank, "torsion": g.torsion}
    if args.generators:
        out["generators"] = [render_key(k) for k in g.generators]
    _emit(out, args)
    return 0


def _parse_key(text):
    """The generator key that one element token names, with its sign."""
    if text.startswith("inf:"):
        c = trees.canonical_rooted(trees.parse_tree(text[4:]))
        return ("inf", c.tree), 1
    if text.startswith("<"):
        c = trees.canonical_unrooted(*trees.parse_unrooted(text))
        return c.tree, c.sign
    if text.startswith("ker:"):
        i = text[4:]
        if not (i.isascii() and i.isdigit()):
            raise ValueError(f"a kernel generator index is a decimal "
                             f"integer >= 0 in ASCII digits, not {i!r}")
        return ("ker", int(i)), 1
    if ":" in text:
        lab, rest = text.split(":", 1)
        c = trees.canonical_rooted(trees.parse_tree(rest))
        return (trees.parse_label(lab), c.tree), c.sign
    c = trees.canonical_rooted(trees.parse_tree(text))
    return c.tree, c.sign


def _kind(key):
    """The kind of generator a key names, the tree in it (None for a
    kernel generator) and its other labels."""
    if isinstance(key, trees.UnrootedTree):
        return "unrooted trees <i,T>", key.tree, (key.label,)
    if isinstance(key, trees.RootedTree):
        return "rooted trees", key, ()
    tag, rest = key
    if not isinstance(rest, trees.RootedTree):
        return f"generators {tag}:i", None, ()
    if tag == "inf":
        return "infinity trees inf:T", rest, ()
    return "tensors i:T", rest, (tag,)


def _tree_labels(t):
    out, stack = set(), [t]
    while stack:
        t = stack.pop()
        if t.is_leaf:
            out.add(t.label)
        else:
            stack += (t.left, t.right)
    return out


def _not_in_domain(src, key, labels):
    """Why a well-formed generator key is not a generator of src: a kind
    the domain lacks, a label outside 1..labels, or a tree of another
    order."""
    kind, tree, extra = _kind(key)
    same = [g for g in src.generators if _kind(g)[0] == kind]
    if not same:
        have = sorted({_kind(g)[0] for g in src.generators})
        return (f"the domain has no {kind}"
                + (f", only {' and '.join(have)}" if have else ""))
    if tree is None:
        tag = key[0]
        return (f"there is no generator {render_key(key)}; the domain has "
                f"{tag}:0 to {tag}:{len(same) - 1}")
    bad = sorted(i for i in _tree_labels(tree).union(extra)
                 if not 1 <= i <= labels)
    if bad:
        return f"label {bad[-1]} is outside 1..{labels} (--labels {labels})"
    orders = sorted({_kind(g)[1].order for g in same})
    if tree.order not in orders:
        return (f"the tree has order {tree.order}, but the domain's {kind} "
                f"have order {', '.join(map(str, orders))}")
    return f"{render_key(key)} is not a generator of the domain"


def _parse_element(h, text, labels):
    """Parse a single source generator token for a map's domain."""
    text = text.strip()
    src = h.source
    try:
        key, sign = _parse_key(text)
    except ValueError as e:
        reason = e
    except RecursionError:
        # the tree parser and canonical forms recurse once per nesting level
        raise CliError(EXIT_PARSE, "cannot parse element: the tree is nested "
                                   "too deeply")
    else:
        if key in src.index:
            return src.element({key: sign})
        reason = _not_in_domain(src, key, labels)
    raise CliError(EXIT_PARSE, f"cannot parse element {text!r} in the "
                               f"domain of this map: {reason}")


def cmd_map(args):
    name, order, labels = args.name, args.order, args.labels
    entry = _entry("map", name, order, labels, args)
    h = entry.build(order, labels)
    if args.element is not None:
        img = h(_parse_element(h, args.element, labels))
        # kernel-presented targets read best in ambient tensor coordinates
        if entry.ambient is not None:
            img = lie.d_group(order, labels, entry.ambient).inclusion(img)
        print(render_element(img))
        return 0
    out = {"map": name, "order": order, "labels": labels,
           "matrix": [list(r) for r in h.matrix.data],
           "source": h.source.describe(), "target": h.target.describe(),
           "kernel": h.kernel.describe(), "cokernel": h.cokernel.describe(),
           "injective": h.injective, "surjective": h.surjective,
           "isomorphism": h.isomorphism}
    _emit(out, args)
    return 0


def cmd_verify(args):
    if args.claim != "all" and args.claim not in ALL_CLAIMS:
        raise CliError(EXIT_BAD_NAME, f"unknown claim: {args.claim} "
                       f"(choose from {', '.join(ALL_CLAIMS)})")
    max_order = args.verify_max_order
    if max_order < 0 or args.labels < 1:
        raise CliError(EXIT_BAD_NAME,
                       "verify needs an order >= 0 and labels >= 1")
    if not _allows(args, max_order, args.labels):
        raise CliError(EXIT_BUDGET,
                       f"budget exceeded for verify order={max_order} "
                       f"labels={args.labels} (raise the global "
                       f"--max-order/--max-labels)")
    try:                # before any claim runs
        report = args.report and open(args.report, "w")
    except OSError as e:
        raise CliError(EXIT_USAGE, f"cannot write --report {args.report}: "
                       f"{e.strerror}") from e
    if args.claim == "all":
        reports = verify_all(max_order, args.labels, args.seed)
    else:
        reports = [verify(args.claim, max_order, args.labels, args.seed)]
    payload = json.dumps([r.to_dict() for r in reports],
                         sort_keys=True, indent=2) + "\n"
    sys.stdout.write(payload)
    if report:
        with report:
            report.write(payload)
    return EXIT_FAILED_CLAIM if any(r.status == "failed" for r in reports) \
        else 0


def cmd_quadratic(args):
    sub = args.subcommand
    if sub == "bridge":
        if (args.order is None or args.order < 0 or args.order % 2 != 0
                or args.labels < 1):
            raise CliError(EXIT_BAD_NAME, "bridge needs an even --order "
                                          "(2n >= 0) and labels >= 1")
        n = args.order // 2
        if not _allows(args, args.order, args.labels):
            raise CliError(EXIT_BUDGET,
                           f"budget exceeded for bridge order={args.order} "
                           f"labels={args.labels} (raise the global "
                           f"--max-order/--max-labels)")
        br = quadratic.bridge_T_infinity(n, args.labels)
        out = {"isomorphic": br.isomorphic,
               "checks": br.checks,
               "universal_side": br.refinement.target.e.describe(),
               "twisted_side": br.twisted.group.describe()}
        _emit(out, args)
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
            out = {"model": Q.model,
                   "M_ee": form.M.describe(),
                   "A": form.A.describe(),
                   "commutative_on_generators":
                       Q.is_commutative_on_generators(),
                   "axioms": quadratic.check_axioms(Q).to_dict(),
                   "mu": {render_key(g): repr(F.mu(form.A.gen(g)))
                          for g in form.A.generators}}
        elif sub == "commutative":
            out = _presented_output(quadratic.universal_commutative(form))
        else:
            F = quadratic.universal_symmetric(form)
            out = _presented_output(F)
            out["p_injective"] = F.target.p.injective
    except (quadratic.SchemaError, quadratic.NotAMorphism) as e:
        raise CliError(EXIT_SCHEMA, str(e))
    _emit(out, args)
    return 0


def _presented_output(F):
    Q = F.target
    return {"model": Q.model,
            "M_c_e": Q.e.describe(),
            "M_ee": Q.ee.describe(),
            "axioms": quadratic.check_axioms(Q).to_dict(),
            "h": [list(r) for r in Q.h.matrix.data],
            "p": [list(r) for r in Q.p.matrix.data],
            "mu": {render_key(g): list(F.mu(F.A.gen(g)).coeffs)
                   for g in F.A.generators}}


def cmd_table(args):
    names = (["L", "Lq", "T", "Ttilde", "Tinf"] if args.names is None
             else args.names.split(","))
    unknown = [name for name in names if name not in REGISTRY["group"]]
    if unknown:
        raise CliError(EXIT_BAD_NAME, f"unknown group name: {unknown[0]}")
    # the grid runs to table's own --max-order, else to the global one
    top = args.max_order if args.table_max_order is None \
        else args.table_max_order
    if top < 0 or args.labels < 1:
        raise CliError(EXIT_BAD_NAME,
                       "table needs a --max-order >= 0 and labels >= 1")
    rows = [("name", "n", "m", "free_rank", "torsion")]
    skipped = set()
    for name in names:
        entry = REGISTRY["group"][name]
        for m in range(1, args.labels + 1):
            for n in range(entry.first, top + 1, entry.step):
                if not _allows(args, entry.tree_order(n), m):
                    skipped.add(n)
                    continue
                g = entry.build(n, m)
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


class ArgumentParser(argparse.ArgumentParser):
    """argparse with its own exit code for usage errors, which argparse would
    report with 2, the code of a budget refusal.  Subcommand parsers share
    the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _ScanParser(argparse.ArgumentParser):
    """Raises on a usage error instead of printing it and exiting."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _global_options(ap):
    ap.add_argument("--max-order", type=int, default=4,
                    help="tree-order budget cap (default 4)")
    ap.add_argument("--max-labels", type=int, default=2,
                    help="label budget cap (default 2; 3 labels are allowed "
                         "up to order 2 regardless)")
    ap.add_argument("--format", choices=("json", "csv", "text"),
                    default="json",
                    help="output of group, map and quadratic (default "
                         "json); verify always writes JSON, table CSV")
    ap.add_argument("--seed", type=int, default=0,
                    help="reserved: echoed in verify reports, read by no "
                         "claim")


def _stray_options(argv, commands):
    """The unknown options given before a token that is no command.

    argparse passes over such an option, takes the value after it for the
    command and names that value in its error, not the option."""
    scan = _ScanParser(add_help=False)
    _global_options(scan)
    scan.add_argument("-h", "--help", action="store_true")
    scan.add_argument("rest", nargs=argparse.REMAINDER)
    try:
        ns, extras = scan.parse_known_args(argv)
    except argparse.ArgumentError:
        return []           # the parser proper reports this error
    if ns.help or not ns.rest or ns.rest[0] in commands:
        return []
    return extras


def build_parser():
    ap = ArgumentParser(
        prog="quasilie",
        description="Tree groups, quasi-Lie bracket kernels, and universal "
                    "quadratic refinements over Z.")
    _global_options(ap)
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
    ap.commands = tuple(sub.choices)
    return ap


def main(argv=None):
    ap = build_parser()
    stray = _stray_options(argv, ap.commands)
    if stray:
        ap.error("unrecognized arguments: " + " ".join(stray))
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except lie.ConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
