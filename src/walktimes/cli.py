"""Command-line interface.

Subcommands: info, strip, hitting, access, alpha-sweep, return-times,
simulate, validate. Exit codes: 0 success, 1 usage, 2 malformed or
unsuitable input data, 3 violated numerical invariant.

The solver modules (chains, pullback, firstorder, secondorder,
montecarlo) are imported inside the commands that use them, and scipy
only by the routes that need it (see ``chains``): ``info``, ``strip``,
usage errors and the built-in walks on undirected graphs start without
scipy.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import TOL, fmt
from .errors import (
    ChainError,
    ConvergenceError,
    GraphFormatError,
    GraphStructureError,
    InvariantViolation,
    QueryError,
    SizeCapError,
    WalkTimesError,
)
from .graph import diameter, read_graph, strip_leaves
from .io import csv_text, json_text, load_transition_file, write_csv

WALK_HELP = "walk kind: uniform | nb | dw:<alpha> | tensor:<path>"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _at_least_one(text: str) -> int:
    n = _int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _seed(text: str) -> int:
    # the Philox key of the Monte Carlo streams is a 128-bit integer
    n = _int(text)
    if not 0 <= n < 2**128:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**128), got {n}")
    return n


def _add_input_args(p: argparse.ArgumentParser, strip: bool = True):
    p.add_argument("--input", required=True, help="graph file")
    p.add_argument("--format", choices=["edge-list", "matrix-market"],
                   default="edge-list")
    p.add_argument("--undirected", action="store_true",
                   help="treat edges as undirected")
    if strip:
        p.add_argument("--strip", action="store_true",
                       help="iteratively drop degree<=1 nodes first (undirected only)")


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")


def _load(args):
    g = read_graph(args.input, fmt=args.format, undirected=args.undirected)
    if args.strip:
        g = strip_leaves(g).graph
    return g


def _make_walk(g, spec: str):
    from .chains import (
        downweighted_edge_chain,
        edge_chain_from_tensor,
        nonbacktracking_edge_chain,
        uniform_edge_chain,
    )

    if spec == "uniform":
        return uniform_edge_chain(g)
    if spec == "nb":
        return nonbacktracking_edge_chain(g)
    if spec.startswith("dw:"):
        try:
            alpha = float(spec[3:])
        except ValueError:
            raise GraphFormatError(f"bad mixing weight in {spec!r}")
        return downweighted_edge_chain(g, alpha)
    if spec.startswith("tensor:"):
        path = spec[len("tensor:"):]
        with open(path, "r", encoding="utf-8") as fh:
            probs = load_transition_file(fh, g)
        return edge_chain_from_tensor(g, probs)
    raise GraphFormatError(f"unknown walk kind {spec!r}")


def _walk(args):
    from .pullback import equilibrium_pullback

    g = _load(args)
    return g, equilibrium_pullback(_make_walk(g, args.walk))


def _emit(args, text: str) -> int:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _table(args, header, rows, **doc) -> int:
    """Rows as CSV, or as JSON next to the fields of ``doc``."""
    if args.json:
        return _emit(args, json_text({**doc, "columns": header, "rows": rows}))
    return _emit(args, csv_text(header, rows))


def _note(args, line: str) -> None:
    """A summary line beside CSV output: stdout when the table goes to a file."""
    if not args.json:
        (sys.stdout if args.out else sys.stderr).write(line + "\n")


def cmd_info(args) -> int:
    g = read_graph(args.input, fmt=args.format, undirected=args.undirected)

    def block(h):
        edges = h.undirected_edge_count() if h.undirected else h.m
        return {"nodes": h.n, "edges": edges, "diameter": diameter(h)}

    left = block(g)
    right = block(strip_leaves(g).graph) if g.undirected else None
    if args.json:
        return _emit(args, json_text({"input": left, "stripped": right}))
    line = f"{left['nodes']} {left['edges']} {left['diameter']}"
    if right is not None:
        line += f" | {right['nodes']} {right['edges']} {right['diameter']}"
    return _emit(args, line + "\n")


def cmd_strip(args) -> int:
    g = read_graph(args.input, fmt=args.format, undirected=args.undirected)
    res = strip_leaves(g)
    h = res.graph
    seen = set()
    lines = []
    for i, j in h.edges:
        if (j, i) not in seen:
            seen.add((i, j))
            lines.append(f"{h.labels[i]} {h.labels[j]}")
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.json:
        return _emit(args, json_text({
            "removed": [g.labels[i] for i in res.removed],
            "kept_nodes": h.n,
            "kept_edges": h.undirected_edge_count(),
        }))
    code = _emit(args, text)
    if args.out:
        _note(args, f"removed {len(res.removed)} nodes; kept {h.n} nodes, "
                    f"{h.undirected_edge_count()} edges")
    return code


def cmd_hitting(args) -> int:
    from . import firstorder as fo
    from . import secondorder as so
    from .chains import uniform_node_chain

    g, pdata = _walk(args)
    nodes = range(g.n) if args.target is None else [g.label_id(args.target)]
    if args.target is None or args.full:
        walk_T = so.hitting_matrix(pdata)
        mw = walk_T.mean(axis=0)
    else:
        # one column, summed in row order as T.mean(axis=0) sums it
        mw = {j: np.cumsum(so.node_hitting_times(pdata, j))[-1] / g.n for j in nodes}
    classical_T = fo.hitting_matrix(uniform_node_chain(g)).matrix
    mc = classical_T.mean(axis=0)
    rows = []
    for j in nodes:
        rows.append([
            g.labels[j], float(mc[j]), float(mw[j]),
            float(mw[j] / mc[j]), float(mc[j] / mw[j]),
        ])
    header = ["node", "classical_mean", "walk_mean",
              "ratio_walk_classical", "ratio_classical_walk"]
    if args.full:
        lab = [g.labels[j] for j in range(g.n)]
        for name, T in (("classical", classical_T), ("walk", walk_T)):
            body = [[lab[i]] + [float(v) for v in T[i]] for i in range(g.n)]
            write_csv(f"{args.full}.{name}.csv", ["source"] + lab, body)
    return _table(args, header, rows, walk=pdata.chain.kind)


def cmd_access(args) -> int:
    from . import secondorder as so

    g, pdata = _walk(args)
    rt = so.random_target(pdata)
    rows = [[g.labels[i], float(rt.access[i])] for i in range(g.n)]
    code = _table(args, ["node", "access_time"], rows, walk=pdata.chain.kind,
                  kappa=rt.kappa, spread=rt.spread,
                  condition_holds=rt.condition_holds)
    _note(args, f"kappa {fmt(rt.kappa)} spread {fmt(rt.spread)} "
                f"condition_holds {str(rt.condition_holds).lower()}")
    return code


def cmd_alpha_sweep(args) -> int:
    from . import secondorder as so
    from .chains import downweighted_edge_chain
    from .pullback import equilibrium_pullback

    g = _load(args)
    try:
        grid = [float(x) for x in args.alpha_grid.split(",") if x.strip() != ""]
    except ValueError:
        raise GraphFormatError(f"bad alpha grid {args.alpha_grid!r}")
    if not grid:
        raise GraphFormatError("alpha grid is empty")

    def column_means(alpha: float) -> np.ndarray:
        pdata = equilibrium_pullback(downweighted_edge_chain(g, alpha))
        T = so.hitting_matrix(pdata)
        return T.sum(axis=0) / g.n

    means = {}
    for alpha in grid:
        means[alpha] = column_means(alpha)
    base = means[1.0] if 1.0 in means else column_means(1.0)

    rows = []
    summary = []
    for alpha in grid:
        ratio = means[alpha] / base
        for j in range(g.n):
            rows.append([
                float(alpha), g.labels[j], float(means[alpha][j]),
                float(ratio[j]),
            ])
        summary.append({
            "alpha": float(alpha),
            "ratio_min": float(ratio.min()),
            "ratio_mean": float(ratio.mean()),
            "ratio_max": float(ratio.max()),
        })
    header = ["alpha", "node", "hitting_mean", "ratio_to_uniform"]
    code = _table(args, header, rows, summary=summary)
    for s in summary:
        _note(args, f"alpha {fmt(s['alpha'])} ratio_min {fmt(s['ratio_min'])} "
                    f"ratio_mean {fmt(s['ratio_mean'])} "
                    f"ratio_max {fmt(s['ratio_max'])}")
    return code


def cmd_return_times(args) -> int:
    from . import secondorder as so

    g, pdata = _walk(args)
    if args.set is not None:
        nodes = [g.label_id(s) for s in args.set.split(",")]
        res = so.return_times(pdata, nodes)
        rows = [[g.labels[k], float(res.per_state[k])] for k in sorted(set(nodes))]
        rows.append(["set", float(res.set_mean)])
    else:
        res = so.return_times(pdata, range(g.n))
        rows = [[g.labels[k], float(res.per_state[k])] for k in range(g.n)]
    return _table(args, ["node", "return_time"], rows, walk=pdata.chain.kind)


def cmd_simulate(args) -> int:
    from . import firstorder as fo
    from . import secondorder as so
    from .chains import uniform_node_chain
    from .montecarlo import simulate_fo_hitting, simulate_so_hitting, simulate_so_return
    from .pullback import equilibrium_pullback

    g = _load(args)
    source = g.label_id(args.source)
    if args.kind == "hitting" and args.target is None:
        raise GraphFormatError("hitting simulation needs --target")
    if args.order == 1:
        if args.kind != "hitting":
            raise GraphFormatError("first-order simulation supports hitting only")
        if args.walk != "uniform":
            raise GraphFormatError("first-order simulation uses the uniform walk")
        chain = uniform_node_chain(g)
        target = g.label_id(args.target)
        stats = simulate_fo_hitting(chain, source, [target], args.trials,
                                    seed=args.seed, cap=args.cap)
        analytic = float(fo.mean_hitting_times(chain, [target]).time[source])
        name = f"hitting {args.source}->{args.target}"
    else:
        pdata = equilibrium_pullback(_make_walk(g, args.walk))
        if args.kind == "hitting":
            target = g.label_id(args.target)
            stats = simulate_so_hitting(pdata, source, target,
                                        args.trials, seed=args.seed, cap=args.cap)
            analytic = float(so.node_hitting_times(pdata, target)[source])
            name = f"hitting {args.source}->{args.target}"
        else:
            stats = simulate_so_return(pdata, source, args.trials,
                                       seed=args.seed, cap=args.cap)
            analytic = float(so.return_times(pdata, [source]).per_state[source])
            name = f"return {args.source}"
    z = ""
    if stats.stderr > 0 and np.isfinite(analytic):
        z = float((stats.mean - analytic) / stats.stderr)
    row = [name, stats.mean, stats.stderr, stats.trials, stats.censored,
           analytic, z]
    header = ["quantity", "mean", "stderr", "trials", "censored",
              "analytic", "z"]
    if args.json:
        doc = dict(zip(header, row))
        doc["z"] = z if z != "" else None
        return _emit(args, json_text(doc))
    return _emit(args, csv_text(header, [row]))


def _max_diff_with_inf(a: np.ndarray, b: np.ndarray) -> float:
    inf = np.isinf(a)
    if (inf != np.isinf(b)).any():
        return float("inf")
    d = np.abs(a[~inf] - b[~inf])
    return float(d.max()) if d.size else 0.0


def cmd_validate(args) -> int:
    from . import secondorder as so
    from .chains import _residual, check_irreducible
    from .montecarlo import simulate_so_hitting
    from .pullback import equilibrium_pullback

    g = _load(args)
    checks: list[tuple[str, str, str]] = []

    def record(status, name, detail=""):
        checks.append((status, name, detail))

    chain = _make_walk(g, args.walk)
    record("PASS", "chain-construction", f"{chain.kind}, {chain.n_states} states")

    irr, comps = check_irreducible(chain)
    if irr:
        record("PASS", "irreducible", "support is strongly connected")
    else:
        sizes = ",".join(str(len(c)) for c in comps)
        record("SKIP", "equilibrium-checks",
               f"chain is reducible ({len(comps)} components, sizes {sizes})")

    # direct boundary-case solve against the line-graph route, all targets
    worst = 0.0
    for k in range(g.n):
        direct = so.mean_hitting_times(chain, k).time
        via = so.mean_hitting_times_via_line_graph(chain, k)
        worst = max(worst, _max_diff_with_inf(direct, via))
    if worst <= TOL.equivalence:
        record("PASS", "edge-time-equivalence", f"max deviation {worst:.3e}")
    else:
        record("FAIL", "edge-time-equivalence", f"max deviation {worst:.3e}")

    pdata = None
    if irr:
        try:
            pdata = equilibrium_pullback(chain)
            resid = _residual(chain, pdata.edge_density)
            record("PASS", "invariant-density", f"residual {resid:.3e}")
            record("PASS", "pullback-identities",
                   "lifting/restriction and balance checks hold")
        except WalkTimesError as exc:
            record("FAIL", "equilibrium", str(exc))
        if pdata is not None:
            try:
                res = so.return_times(pdata, range(g.n))
                dev = float(np.abs(
                    res.per_state * pdata.node_density - 1.0
                ).max())
                record("PASS", "node-return-identity", f"max deviation {dev:.3e}")
            except WalkTimesError as exc:
                record("FAIL", "node-return-identity", str(exc))
            # return_times enforces the set identity: the return time
            # to S, from one solve of the times to S, is 1 / pi(S)
            rng = np.random.default_rng(args.seed)
            ok = True
            for _ in range(3):
                size = int(rng.integers(1, max(2, g.n // 2 + 1)))
                S = rng.choice(g.n, size=size, replace=False)
                try:
                    so.return_times(pdata, S)
                except WalkTimesError:
                    ok = False
            record("PASS" if ok else "FAIL", "set-return-identity",
                   "3 random sets")
    elif chain.density is not None:
        record("SKIP", "equilibrium-checks-fallback",
               "uniform edge density available (bistochastic chain)")
        pdata = equilibrium_pullback(chain)

    if pdata is not None:
        rng = np.random.default_rng(args.seed + 1)
        pairs = []
        for _ in range(2):
            i = int(rng.integers(g.n))
            k = int(rng.integers(g.n))
            while k == i and g.n > 1:   # a walk from k to k takes 0 steps
                k = int(rng.integers(g.n))
            pairs.append((i, k))
        ok = True
        tested = 0
        detail = []
        for i, k in pairs:
            analytic = float(so.node_hitting_times(pdata, k)[i])
            if not np.isfinite(analytic):
                continue
            stats = simulate_so_hitting(pdata, i, k, args.trials,
                                        seed=args.seed, cap=args.cap)
            pair = f"{g.labels[i]}->{g.labels[k]}"
            # a censored walk biases the mean, and one walk has no
            # spread: such a pair is evidence neither way
            skip = (f"{stats.censored} of {stats.censored + stats.trials} walks censored"
                    if stats.censored else "1 walk" if stats.trials < 2 else None)
            if skip:
                detail.append(f"{pair} skipped ({skip})")
                continue
            tested += 1
            if stats.stderr > 0:
                z = abs(stats.mean - analytic) / stats.stderr
                if z > 4.0:
                    ok = False
                detail.append(f"{pair} z={z:.2f}")
            elif abs(stats.mean - analytic) > 1e-9:
                ok = False
        if not detail:
            detail.append("deterministic walks" if tested else "no pair has a finite time")
        record("SKIP" if not tested else "PASS" if ok else "FAIL", "monte-carlo",
               "; ".join(detail))

    failed = any(status == "FAIL" for status, _, _ in checks)
    if args.json:
        _emit(args, json_text({
            "ok": not failed,
            "checks": [
                {"status": s, "name": n, "detail": d} for s, n, d in checks
            ],
        }))
    else:
        lines = [f"{s} {n}" + (f": {d}" if d else "") for s, n, d in checks]
        _emit(args, "\n".join(lines) + "\n")
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="walktimes",
                     description="hitting and return times of second-order walks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="node/edge/diameter summary")
    _add_input_args(p, strip=False)
    _add_output_args(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("strip", help="remove degree<=1 nodes iteratively")
    _add_input_args(p, strip=False)
    _add_output_args(p)
    p.set_defaults(func=cmd_strip)

    p = sub.add_parser("hitting", help="mean hitting time columns per target")
    _add_input_args(p)
    p.add_argument("--walk", default="nb", help=WALK_HELP)
    p.add_argument("--target", help="restrict to one target node label")
    p.add_argument("--full", metavar="PREFIX",
                   help="also write full time matrices to PREFIX.*.csv")
    _add_output_args(p)
    p.set_defaults(func=cmd_hitting)

    p = sub.add_parser("access", help="expected time to a random target")
    _add_input_args(p)
    p.add_argument("--walk", default="nb", help=WALK_HELP)
    _add_output_args(p)
    p.set_defaults(func=cmd_access)

    p = sub.add_parser("alpha-sweep",
                       help="hitting-time column sums across mixing weights")
    _add_input_args(p)
    p.add_argument("--alpha-grid", default="0,0.25,0.5,0.75,1",
                   help="comma-separated mixing weights")
    _add_output_args(p)
    p.set_defaults(func=cmd_alpha_sweep)

    p = sub.add_parser("return-times", help="mean return times per node")
    _add_input_args(p)
    p.add_argument("--walk", default="nb", help=WALK_HELP)
    p.add_argument("--set", help="comma-separated node labels for a set return")
    _add_output_args(p)
    p.set_defaults(func=cmd_return_times)

    p = sub.add_parser("simulate", help="Monte Carlo cross-check of one quantity")
    _add_input_args(p)
    p.add_argument("--walk", default="nb", help=WALK_HELP)
    p.add_argument("--order", type=int, choices=[1, 2], default=2)
    p.add_argument("--kind", choices=["hitting", "return"], default="hitting")
    p.add_argument("--source", required=True, help="start node label")
    p.add_argument("--target", help="target node label (hitting)")
    p.add_argument("--trials", type=_at_least_one, default=100_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--cap", type=_at_least_one, default=TOL.simulation_step_cap)
    _add_output_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="run the identity suite on an input")
    _add_input_args(p)
    p.add_argument("--walk", default="nb", help=WALK_HELP)
    p.add_argument("--trials", type=_at_least_one, default=20_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--cap", type=_at_least_one, default=TOL.simulation_step_cap)
    _add_output_args(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return args.func(args)
    except (GraphFormatError, GraphStructureError, ChainError, QueryError,
            SizeCapError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation, ConvergenceError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
