"""Seeded benchmark of the walktimes command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's graph from the seed, then runs walktimes
commands on it the way a user does: each operation is one fresh
`python3 -m walktimes.cli` process, one at a time (a closed loop with
one client), with BLAS threads capped at the number of usable cores.
Every output is checked (see check.py). The first pass runs every
operation once; further passes run until S seconds have gone by.

With --trace 0 it reports end-to-end metrics: median wall times of
fresh processes and the largest child max-RSS. With --trace 1 it runs
each operation once untraced and then traced in a fresh interpreter
(traced_child.py) with spans around every walktimes function, and
reports per-layer metrics (median over traced passes of each pass's
sum over operations) and the tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Exits 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import check  # noqa: E402
from graphs import SyntheticGraph, classical_hitting_matrix  # noqa: E402
from tracer import layer_metrics  # noqa: E402

DEFAULT_SEED = 1
OP_TIMEOUT_S = 60   # the slowest operation takes under 10 s


@dataclass(frozen=True)
class Workload:
    n_core: int
    core_edges: int
    pendants: int
    ops: tuple[str, ...]     # one pass; "setup" may appear several times
    trials: int = 0          # Monte Carlo walks per simulate command


WORKLOADS = {
    # the shape of the dolphins network: 62 nodes stripping to 53/150;
    # every subcommand, Monte Carlo with enough walks to dominate
    "paper-core": Workload(
        53, 150, 7, trials=400_000,
        ops=("setup", "info", "strip", "hitting", "setup", "access",
             "alpha_sweep", "info", "strip", "return_times", "setup",
             "return_set", "simulate_hit", "simulate_return", "simulate_fo",
             "validate")),
    # all-pairs solving dominates: 100/300 core, 600 edge states
    "allpairs-mid": Workload(
        100, 300, 10,
        ops=("setup", "info", "strip", "hitting", "setup", "access",
             "alpha_sweep", "info", "strip", "setup", "return_times",
             "return_set")),
    # a few targets on a big chain: 600/1800 core, 3,600 edge states
    "single-target-large": Workload(
        600, 1800, 60, trials=20_000,
        ops=("setup", "info", "strip", "setup", "return_set", "info",
             "strip", "setup", "simulate_hit")),
}

SOLVER_OPS = ("hitting", "access", "alpha_sweep", "return_times", "return_set")
END_TO_END = {   # name: unit
    "setup_s": "s", "solve_s": "s", "total_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "solvers.steps_s": "s", "solvers.reach_s": "s",
    "solvers.steps_calls": "count", "solvers.reach_calls": "count",
    "solvers.lu_count": "count", "solvers.lu_fill": "count",
    "solvers.direct_rejects": "count", "solvers.fallbacks": "count",
    "secondorder.targets": "count",
    "montecarlo.sim_s": "s", "montecarlo.walk_steps": "count",
    "montecarlo.steps_per_s": "1/s", "montecarlo.censored": "count",
    "chains.stationary_s": "s", "chains.stationary_calls": "count",
    "chains.build_s": "s", "pullback.self_s": "s",
    "graph.read_s": "s", "graph.strip_s": "s", "graph.line_graph_s": "s",
    "graph.diameter_s": "s",
    "firstorder.self_s": "s", "secondorder.self_s": "s",
    "io.format_s": "s", "io.bytes_out": "count",
    "cli.self_s": "s", "cli.import_s": "s",
}


class Context:
    """A workload's generated inputs and what the checker knows about them."""

    def __init__(self, name: str, seed: int, work: Path):
        spec = WORKLOADS[name]
        g = SyntheticGraph(spec.n_core, spec.core_edges, spec.pendants, seed)
        self.name, self.seed, self.graph, self.trials = name, seed, g, spec.trials
        self.work = work
        self.facts = g.facts()
        self.degree = g.core_degrees()
        self.two_e = int(self.degree.sum())
        self.classical_matrix = classical_hitting_matrix(g.n_core, g.core_edges)
        self.classical = self.classical_matrix.mean(axis=0)
        # query nodes of the typical degree, and a walk pair whose classical
        # hitting time is the median one, so that walk lengths (and the Monte
        # Carlo cost) do not swing with the seed
        pick = np.random.default_rng([seed, 1])
        typical = round(self.two_e / g.n_core)
        order = pick.permutation(g.n_core)
        nodes = order[np.argsort(np.abs(self.degree[order] - typical), kind="stable")][:8]
        self.return_set = [int(k) for k in nodes[:3]]
        pairs = [(int(s), int(t)) for s in nodes[3:] for t in nodes[3:] if s != t]
        T = self.classical_matrix
        mid = float(np.median([T[p] for p in pairs]))
        self.source, self.target = min(pairs, key=lambda p: abs(T[p] - mid))
        self.sim_seed = int(pick.integers(1 << 30))
        self.raw_path = work / "graph.edges"
        self.core_path = work / "core.edges"
        self.raw_path.write_text(g.edge_list_text())
        self.core_path.write_text(g.core_edge_list_text())
        self.reference = None
        ref = HERE / "reference" / f"{name}.json"
        if seed == DEFAULT_SEED and ref.exists():
            self.reference = json.loads(ref.read_text())["ops"]

    def argv(self, op: str) -> list[str]:
        """The command line (after `walktimes`) of one operation."""
        raw = ["--input", str(self.raw_path), "--undirected"]
        core = ["--input", str(self.core_path), "--undirected"]
        sim = ["--trials", str(self.trials), "--seed", str(self.sim_seed)]
        pair = ["--source", str(self.source), "--target", str(self.target)]
        return {
            "info": ["info"] + raw,
            "strip": ["strip"] + raw,
            "hitting": ["hitting"] + core,
            "access": ["access"] + core,
            "alpha_sweep": ["alpha-sweep"] + core + ["--alpha-grid", "0,0.5,1"],
            "return_times": ["return-times"] + core,
            "return_set": ["return-times"] + core + [
                "--set", ",".join(str(k) for k in self.return_set)],
            "simulate_hit": ["simulate"] + core + pair + sim,
            "simulate_return": ["simulate"] + core + [
                "--kind", "return", "--source", str(self.source)] + sim,
            "simulate_fo": ["simulate"] + core + [
                "--order", "1", "--walk", "uniform"] + pair + sim,
            "validate": ["validate"] + core + ["--seed", str(self.sim_seed)],
        }[op]


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    wall_s: float


class Runner:
    """Runs child processes one at a time and records what they cost."""

    def __init__(self, work: Path):
        self.work = work
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                        MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0

    def spawn(self, cmd: list[str]) -> Outcome:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return Outcome(proc.returncode, out_path.read_text(), err_path.read_text(), wall)

    def command(self, ctx: Context, op: str) -> list[str]:
        if op == "setup":
            return [sys.executable, str(HERE / "prelude.py"), str(ctx.raw_path)]
        return [sys.executable, "-m", "walktimes.cli"] + ctx.argv(op)

    def run(self, ctx: Context, op: str, cmd: list[str] | None = None) -> Outcome:
        res = self.spawn(cmd or self.command(ctx, op))
        problems = check(ctx, op, res.code, res.out, res.err)
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems
        return res


def _warm_up(runner: Runner):
    """Compile bytecode and make sure the checkout's sources are the ones imported."""
    probe = "import walktimes.cli, sys; sys.stdout.write(walktimes.cli.__file__)"
    res = runner.spawn([sys.executable, "-c", probe])
    want = ROOT / "src" / "walktimes" / "cli.py"
    if res.code != 0 or Path(res.out).resolve() != want.resolve():
        raise SystemExit(f"walktimes does not import from {want}: {res.err.strip()}")


def _passes(ops, seconds: float, estimate):
    """Yield (pass_no, op): one full pass, then more while time remains."""
    deadline = time.perf_counter() + seconds
    for op in ops:
        yield 0, op
    k = 1
    while True:
        for op in ops:
            if time.perf_counter() + estimate(op) > deadline:
                return
            yield k, op
        k += 1


def measure(ctx: Context, runner: Runner, seconds: float) -> dict:
    ops = WORKLOADS[ctx.name].ops
    samples: dict[str, list[float]] = {op: [] for op in ops}

    def estimate(op):
        return min(samples[op])

    for _, op in _passes(ops, seconds, estimate):
        samples[op].append(runner.run(ctx, op).wall_s)
    med = {op: statistics.median(v) for op, v in samples.items()}
    queries = [op for op in med if op != "setup"]
    metrics = {
        "setup_s": med["setup"],
        "solve_s": sum(med[op] for op in queries if op in SOLVER_OPS),
        "total_s": sum(med[op] for op in queries),
        "peak_rss_mb": runner.peak_rss_mb,
    }
    print("samples " + json.dumps({op: [round(x, 4) for x in v] for op, v in samples.items()}))
    print(f"{'operation':<18}{'median_s':>10}{'min_s':>9}{'max_s':>9}{'n':>4}")
    for op, v in samples.items():
        print(f"{op + '_s':<18}{med[op]:>10.4f}{min(v):>9.4f}{max(v):>9.4f}{len(v):>4}")
    count = {"setup_s": len(samples["setup"]), "peak_rss_mb": runner.attempted,
             "solve_s": sum(len(samples[op]) for op in queries if op in SOLVER_OPS),
             "total_s": sum(len(samples[op]) for op in queries)}
    for name, value in metrics.items():
        print(f"{name:<18}{value:>10.4f} {END_TO_END[name]:<3} samples {count[name]}")
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced(ctx: Context, runner: Runner, seconds: float) -> dict:
    ops = list(dict.fromkeys(WORKLOADS[ctx.name].ops))
    t0 = time.perf_counter()
    plain = {op: runner.run(ctx, op).wall_s for op in ops}
    passes: list[list[dict]] = []
    remaining = seconds - (time.perf_counter() - t0)
    for k, op in _passes(ops, remaining, lambda op: passes[0][ops.index(op)]["wall_s"]):
        if k == len(passes):
            passes.append([])
        spans_path = ctx.work / f"spans-{k}-{op}.json"
        cmd = [sys.executable, str(HERE / "traced_child.py"), str(spans_path), f"{op}#{k}"]
        cmd += ["setup", str(ctx.raw_path)] if op == "setup" else ["cli"] + ctx.argv(op)
        res = runner.run(ctx, op, cmd)
        # a child that died early wrote no spans; the checker counted the failure
        dump = (json.loads(spans_path.read_text()) if spans_path.exists()
                else {"spans": [], "import_s": 0.0})
        m = layer_metrics(dump["spans"])
        m["io.bytes_out"] = len(res.out.encode())
        m["wall_s"] = res.wall_s
        if op != "setup":
            m["cli.import_s"] = dump["import_s"]
        passes[k].append(m)
    _print_trace(ops, plain, passes[0])
    whole = [p for p in passes if len(p) == len(ops)]
    metrics = {key: (statistics.median(_pass_value(p, key) for p in whole), unit)
               for key, unit in PER_LAYER.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:<26}{value:>14.6g} {unit:<6} passes {len(whole)}")
    return metrics


def _pass_value(ms: list[dict], key: str) -> float:
    """One per-layer metric over one traced pass of every operation."""
    def total(k):
        return sum(m.get(k, 0) for m in ms)

    if key == "cli.import_s":   # per process, not summed
        return statistics.median(m[key] for m in ms if key in m)
    if key == "solvers.lu_fill":   # mean L.nnz + U.nnz per factorization
        return total("solvers.lu_fill_total") / max(1, total("solvers.lu_count"))
    if key == "montecarlo.steps_per_s":
        sim = total("montecarlo.sim_s")
        return total("montecarlo.walk_steps") / sim if sim else 0.0
    return total(key)


def _print_trace(ops, plain, first):
    print(f"{'operation':<16}{'plain_s':>9}{'traced_s':>10}{'overhead_s':>11}"
          f"{'import_s':>10}{'solvers_s':>10}{'mc_s':>8}{'self_sum_s':>11}")
    for op, m in zip(ops, first):
        selfs = sum(v for k, v in m.items() if k.endswith(".self_s"))
        solvers = m.get("solvers.steps_s", 0) + m.get("solvers.reach_s", 0)
        print(f"{op:<16}{plain[op]:>9.3f}{m['wall_s']:>10.3f}"
              f"{m['wall_s'] - plain[op]:>11.3f}{m.get('cli.import_s', 0):>10.3f}"
              f"{solvers:>10.3f}{m.get('montecarlo.sim_s', 0):>8.3f}{selfs:>11.3f}")


def machine() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.exists() else []:
        level = (idx / "level").read_text().strip()
        kind = (idx / "type").read_text().strip()
        caches[f"L{level}{kind[0].lower()}"] = (idx / "size").read_text().strip()
    threads = len(os.sched_getaffinity(0))
    return {"nproc": threads, "blas_threads": threads, "caches": caches}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "walktimes" / "cli.py").is_file():
        print(f"error: no walktimes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        _warm_up(runner)
        ctx = Context(args.workload, args.seed, work)
        print(f"workload {args.workload} seed {args.seed} "
              f"graph {json.dumps(ctx.facts)} machine {json.dumps(machine())}")
        if args.trace:
            metrics = traced(ctx, runner, args.seconds)
        else:
            metrics = measure(ctx, runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            work.parent.rmdir()
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"attempted {runner.attempted} failed {runner.failed} "
          f"error_rate {runner.failed / runner.attempted:.4f} "
          f"elapsed {time.perf_counter() - t_start:.1f}s")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
