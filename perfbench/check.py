"""Checks on the output of every operation the benchmark runs.

Each check gets the workload context and the finished operation and
returns a list of problems; an empty list means the output is right.
Values with an independent answer are checked on every seed:

- return times against Kac's formula from the graph alone: the nb walk
  returns to node k after 2E/deg(k) steps, and to a set S after
  2E/sum(deg over S);
- `classical_mean` columns (and the alpha = 1 rows of `alpha-sweep`)
  against a dense fundamental-matrix computation;
- `info` and `strip` against the generator's own core and diameters;
- `validate` must pass every check, `simulate` must censor nothing and
  land within 5 standard errors of its analytic value.

On the default seed every other value must also match the reference
recorded in `reference/` within REFERENCE_RTOL.
"""

from __future__ import annotations

import hashlib
import json
import math

KAC_RTOL = 1e-10   # output has 12 significant digits; a 9th-digit change is >= 1e-9
DENSE_RTOL = 1e-9
REFERENCE_RTOL = 1e-8
Z_LIMIT = 5.0


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _sorted_edges(text: str) -> list[tuple[int, int]]:
    edges = []
    for line in text.splitlines():
        i, j = (int(x) for x in line.split())
        edges.append((min(i, j), max(i, j)))
    return sorted(edges)


def values(name: str, out: str, err: str):
    """The part of an operation's output compared with the reference."""
    if name == "setup":
        doc = json.loads(out)
        return [doc["labels"], doc["node_density"]]
    if name == "strip":
        text = "".join(f"{i} {j}\n" for i, j in _sorted_edges(out))
        return hashlib.sha256(text.encode()).hexdigest()
    if name == "info":
        return out.split()
    if name == "validate":
        return [line.split(":")[0] for line in out.splitlines()]
    header, rows = parse_csv(out)
    doc = [header] + rows
    if name == "access":
        doc.append(err.split())
    return doc


def _compare(got, want, rtol: float, where: str) -> list[str]:
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: shape differs from the reference"]
        out: list[str] = []
        for k, (g, w) in enumerate(zip(got, want)):
            out += _compare(g, w, rtol, f"{where}[{k}]")
            if out:
                return out
        return out
    if got == want:
        return []
    try:
        g, w = float(got), float(want)
    except (TypeError, ValueError):
        return [f"{where}: {got!r} != reference {want!r}"]
    if math.isfinite(w) and _close(g, w, rtol):
        return []
    return [f"{where}: {got!r} differs from reference {want!r}"]


def _kac_rows(rows, ctx, problems):
    for row in rows:
        label, value = row[0], float(row[1])
        if label == "set":
            want = ctx.two_e / sum(ctx.degree[int(k)] for k in ctx.return_set)
        else:
            want = ctx.two_e / ctx.degree[int(label)]
        if not _close(value, want, KAC_RTOL):
            problems.append(f"return time of {label}: {value!r}, Kac gives {want!r}")


def _check_setup(ctx, out, err, problems):
    doc = json.loads(out)
    labels = [int(k) for k in doc["labels"]]
    if sorted(labels) != list(range(ctx.graph.n_core)):
        problems.append("set-up did not strip to the core")
        return
    for k, p in zip(labels, doc["node_density"]):
        if not _close(p, ctx.degree[k] / ctx.two_e, KAC_RTOL):
            problems.append(f"node density of {k}: {p!r} != deg/2E")
            return


def _check_info(ctx, out, err, problems):
    f = ctx.facts
    want = (f"{f['nodes']} {f['edges']} {f['diameter']} | "
            f"{f['core_nodes']} {f['core_edges']} {f['core_diameter']}")
    if out.strip() != want:
        problems.append(f"info printed {out.strip()!r}, expected {want!r}")


def _check_strip(ctx, out, err, problems):
    got = _sorted_edges(out)
    want = sorted((min(i, j), max(i, j)) for i, j in ctx.graph.core_edges)
    if got != want:
        problems.append(f"strip kept {len(got)} edges, the core has {len(want)}")


def _check_hitting(ctx, out, err, problems):
    header, rows = parse_csv(out)
    if header != ["node", "classical_mean", "walk_mean",
                  "ratio_walk_classical", "ratio_classical_walk"]:
        problems.append(f"hitting header {header!r}")
        return
    if sorted(int(r[0]) for r in rows) != list(range(ctx.graph.n_core)):
        problems.append("hitting does not list every core node")
        return
    for label, cm, wm, rwc, rcw in rows:
        cm, wm, rwc, rcw = float(cm), float(wm), float(rwc), float(rcw)
        if ctx.classical is not None and not _close(cm, ctx.classical[int(label)], DENSE_RTOL):
            problems.append(f"classical_mean of {label}: {cm!r}, dense gives "
                            f"{ctx.classical[int(label)]!r}")
            return
        if not (wm > 0 and _close(rwc, wm / cm, DENSE_RTOL) and _close(rcw, cm / wm, DENSE_RTOL)):
            problems.append(f"hitting row {label}: ratios disagree with the means")
            return


def _check_access(ctx, out, err, problems):
    header, rows = parse_csv(out)
    access = [float(r[1]) for r in rows]
    if header != ["node", "access_time"] or len(access) != ctx.graph.n_core:
        problems.append("access does not list every core node")
        return
    if not all(math.isfinite(a) and a > 0 for a in access):
        problems.append("access times must be finite and positive")
    words = err.split()
    kappa = float(words[words.index("kappa") + 1])
    if not _close(kappa, sum(access) / len(access), DENSE_RTOL):
        problems.append(f"kappa {kappa!r} is not the mean access time")


def _check_alpha_sweep(ctx, out, err, problems):
    header, rows = parse_csv(out)
    if header != ["alpha", "node", "hitting_mean", "ratio_to_uniform"]:
        problems.append(f"alpha-sweep header {header!r}")
        return
    alphas = sorted({float(r[0]) for r in rows})
    if alphas != [0.0, 0.5, 1.0] or len(rows) != 3 * ctx.graph.n_core:
        problems.append("alpha-sweep rows do not cover the grid")
        return
    base = {r[1]: float(r[2]) for r in rows if float(r[0]) == 1.0}
    for alpha, label, mean, ratio in rows:
        mean, ratio = float(mean), float(ratio)
        if not _close(ratio, mean / base[label], DENSE_RTOL):
            problems.append(f"alpha {alpha} node {label}: ratio disagrees with the means")
            return
        if float(alpha) == 1.0 and ctx.classical is not None \
                and not _close(mean, ctx.classical[int(label)], DENSE_RTOL):
            problems.append(f"alpha 1 node {label}: {mean!r} != classical mean "
                            f"{ctx.classical[int(label)]!r}")
            return


def _check_return_times(ctx, out, err, problems):
    header, rows = parse_csv(out)
    if header != ["node", "return_time"] or len(rows) != ctx.graph.n_core:
        problems.append("return-times does not list every core node")
        return
    _kac_rows(rows, ctx, problems)


def _check_return_set(ctx, out, err, problems):
    header, rows = parse_csv(out)
    got = sorted(r[0] for r in rows[:-1]) + [r[0] for r in rows[-1:]]
    want = sorted(str(k) for k in ctx.return_set) + ["set"]
    if header != ["node", "return_time"] or got != want:
        problems.append(f"return-times --set rows {got!r}, expected {want!r}")
        return
    _kac_rows(rows, ctx, problems)


def _check_simulate(ctx, out, err, problems, kind):
    header, rows = parse_csv(out)
    if header != ["quantity", "mean", "stderr", "trials", "censored", "analytic", "z"] \
            or len(rows) != 1:
        problems.append("simulate printed an unexpected table")
        return
    _, mean, stderr, trials, censored, analytic, z = rows[0]
    if int(censored) != 0 or int(trials) != ctx.trials:
        problems.append(f"simulate censored {censored} of {ctx.trials} walks")
    if not abs(float(z)) <= Z_LIMIT:
        problems.append(f"simulate z-score {z} exceeds {Z_LIMIT}")
    analytic = float(analytic)
    if kind == "return":
        want = ctx.two_e / ctx.degree[ctx.source]
        if not _close(analytic, want, KAC_RTOL):
            problems.append(f"simulate analytic return time {analytic!r}, Kac gives {want!r}")
    elif kind == "fo" and ctx.classical_matrix is not None:
        want = ctx.classical_matrix[ctx.source, ctx.target]
        if not _close(analytic, want, DENSE_RTOL):
            problems.append(f"simulate analytic hitting time {analytic!r}, dense gives {want!r}")


def _check_validate(ctx, out, err, problems):
    lines = out.splitlines()
    if not lines or any(not line.startswith("PASS ") for line in lines):
        bad = [line for line in lines if not line.startswith("PASS ")]
        problems.append(f"validate did not pass every check: {bad[:3]!r}")


CHECKS = {
    "setup": _check_setup,
    "info": _check_info,
    "strip": _check_strip,
    "hitting": _check_hitting,
    "access": _check_access,
    "alpha_sweep": _check_alpha_sweep,
    "return_times": _check_return_times,
    "return_set": _check_return_set,
    "simulate_hit": lambda *a: _check_simulate(*a, kind="hit"),
    "simulate_return": lambda *a: _check_simulate(*a, kind="return"),
    "simulate_fo": lambda *a: _check_simulate(*a, kind="fo"),
    "validate": _check_validate,
}


def check(ctx, name: str, code: int, out: str, err: str) -> list[str]:
    """Problems with one finished operation; empty when it is correct."""
    if code != 0:
        return [f"{name} exited with code {code}: {err.strip()[-200:]}"]
    problems: list[str] = []
    try:
        CHECKS[name](ctx, out, err, problems)
        if ctx.reference is not None and not problems:
            problems += _compare(values(name, out, err), ctx.reference[name],
                                 REFERENCE_RTOL, name)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"{name} output could not be parsed: {exc!r}")
    return problems
