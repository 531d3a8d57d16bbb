"""graphce benchmark: one workload per process, one client in a closed loop.

    python3 bench/run.py --workload full-ce --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --save bench/baseline/seed1.json

A run generates its inputs from the seed, times repeated passes over them
for --seconds (at least MIN_PASSES passes), and checks every output against
the benchmark's own reference.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates traced and untraced passes and reports
the per-layer metrics, each time a median over the traced passes.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  `--workload all` runs every workload in a fresh process with
and without tracing and prints each run's report.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import io
import json
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import reference as ref  # noqa: E402
import spans  # noqa: E402

WORKLOADS = {
    "full-ce": "ce on seeded random connected graphs, n 12-16: the full cut sweep, one graph reused over up to 32767 cuts",
    "survey-n7": "survey --n 7 --stretch --format csv: the only workload that runs isomorph-free enumeration; many tiny cut-ranks",
    "queries": "library stream of parse + purity/subset CE on n 20-62: wide short cut matrices, per-call BFS and parsing",
    "verify": "40 x verify --seed S (25 trials per check): the only workload that runs the dense state-vector oracle and the stabilizer tableau code",
}
SETUP_REPEATS = 11
MIN_PASSES = 3  # a full-ce pass takes about half of --seconds 20; each item gets at least three samples
QUERIES_PER_PASS = 900
VERIFY_RUNS_PER_PASS = 40
VERIFY_TRIALS = 25  # verify's default
SURVEY_CLASSES = 853
SURVEY_DISTINCT_CE = 16
VERIFY_BLOCKS = 4
# verify --seed 238 --trials 25 draws the largest dense_purity case verify
# can draw (n = 10, |B| = 10, a 16 MB density matrix).  Every pass runs it,
# so that peak_rss_mb does not depend on whether the seed draws that case.
VERIFY_HEAVIEST_SEED = 238

# Calibration: see Gauge.  The kernel is the reference CE of one fixed graph.
CAL_GRAPH = ref.random_graph(11, 0.3, random.Random(0))
CAL_SHARE = 1 / 3
CAL_WINDOW_S = 0.1
CAL_NOMINAL_S = 0.002


@dataclass
class Item:
    """One request: `call` returns graphce's answer, `expect` computes the reference answer."""

    call: Callable[[], object]
    expect: Callable[[], object]
    check: Callable[[object, object], bool] = lambda got, want: got == want
    cli: bool = True  # a CLI invocation starts with no in-process cache, as a fresh process would


def _cli(graphce, argv: list[str]) -> str:
    buf = io.StringIO()
    code = graphce.cli.run(argv, out=buf)
    if code != 0:
        raise RuntimeError(f"graphce {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "graphce" or name.startswith("graphce."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def full_ce_items(graphce, rng: random.Random) -> list[Item]:
    # More small graphs than large ones, so that the tail percentile (10
    # samples beyond it) lands mid-way through the n = 14 graphs and the
    # median three quarters of the way through the n = 12 graphs, away from
    # the jump between sizes.  One n = 16 graph costs ~1.5 s and one n = 18
    # graph ~7 s, so n = 18 is left out.
    plan = [(12, p) for p in (0.1, 0.5) for _ in range(18)]
    plan += [(14, p) for p in (0.1, 0.5) for _ in range(8)]
    plan += [(16, rng.choice((0.1, 0.5)))]
    rng.shuffle(plan)
    items = []
    for n, p in plan:
        adj = ref.random_graph(n, p, rng)
        g6 = ref.graph6(adj)
        items.append(Item(lambda g6=g6: _cli(graphce, ["ce", "--graph6", g6]),
                          lambda adj=adj: f"{ref.full_ce(adj)}\n"))
    return items


def _survey_ok(csv_text: str) -> bool:
    rows = csv_text.splitlines()[1:]
    seen, values = set(), set()
    for row in rows:
        g6, n, num, log2_den = row.split(",")[:4]
        ce = Fraction(int(num), 1 << int(log2_den))
        if n != "7" or g6 in seen or ce != ref.full_ce(ref.parse_graph6(g6)):
            return False
        seen.add(g6)
        values.add(ce)
    return len(rows) == SURVEY_CLASSES and len(values) == SURVEY_DISTINCT_CE


def survey_items(graphce, rng: random.Random) -> list[Item]:
    argv = ["survey", "--n", "7", "--stretch", "--format", "csv"]
    verified: dict[str, bool] = {}

    def check(got, want) -> bool:
        if got not in verified:
            verified[got] = _survey_ok(got)
        return verified[got]

    return [Item(lambda: _cli(graphce, argv), lambda: None, check)]


def queries_items(graphce, rng: random.Random) -> list[Item]:
    # Every per-slot property (format, density, n, query kind and size) is a
    # fixed function of the slot; the seed draws only the edges and members,
    # so the cost mix and hence the tail are the same for every seed.
    items = []
    for i in range(QUERIES_PER_PASS):
        n = 20 + (i * 37) % 43
        p = (0.1, 0.5)[(i // 2) % 2]
        adj = ref.random_graph(n, p, rng)
        text, parse = (ref.graph6(adj), "parse_graph6") if i % 2 == 0 else (ref.edge_list(adj), "parse_edge_list")
        if i % 3 == 2:
            members = rng.sample(range(n), 2 + (i // 3) % 7)
            op, answer = "concentratable_entanglement", ref.subset_ce
        else:
            members = rng.sample(range(n), 1 + (i * 17) % (n // 2))
            op, answer = "purity", ref.purity
        mask = sum(1 << m for m in members)

        def call(text=text, parse=parse, op=op, members=members):
            graph = getattr(graphce, parse)(text)
            return graph.adj, getattr(graphce, op)(graph, members)

        items.append(Item(call, lambda adj=adj, answer=answer, mask=mask: (tuple(adj), str(answer(adj, mask))),
                          lambda got, want: (got[0], str(got[1])) == want, cli=False))
    rng.shuffle(items)
    return items


def _verify_ok(text: str, _want) -> bool:
    blocks = re.findall(r"^[a-z ]+: (\d+)/(\d+) ok ", text, re.M)
    return (text.rstrip().endswith("verify: PASS") and len(blocks) == VERIFY_BLOCKS
            and all(int(a) == int(b) == VERIFY_TRIALS for a, b in blocks))


def verify_items(graphce, rng: random.Random) -> list[Item]:
    seeds = [VERIFY_HEAVIEST_SEED] + [rng.randrange(1 << 31) for _ in range(VERIFY_RUNS_PER_PASS - 1)]
    items = []
    for seed in seeds:
        argv = ["verify", "--seed", str(seed), "--trials", str(VERIFY_TRIALS)]
        items.append(Item(lambda argv=argv: _cli(graphce, argv), lambda: None, _verify_ok))
    return items


BUILDERS = {"full-ce": full_ce_items, "survey-n7": survey_items, "queries": queries_items, "verify": verify_items}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile with at least 10 samples beyond it.

    The value of rank k (1-based, ascending) is the 100*k/N-th percentile by
    nearest rank; rank N-10 leaves exactly ten beyond.  With ten samples or
    fewer no such percentile exists, and the maximum is reported as p100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    rank = count - 10
    return ordered[rank - 1], 100.0 * rank / count, count


class Gauge:
    """Machine speed, sampled by a fixed benchmark-owned kernel interleaved with the timed work.

    On a shared host the same code runs at different speeds that switch
    within a second.  The kernel follows those switches as graphce does over
    items of up to a few hundred ms, and less well over longer ones, such as
    a survey-n7 pass.  Samples are taken between items, CAL_SHARE of each item's time.  A
    duration measured over [t0, t1] is scaled by the median sample within
    max(CAL_WINDOW_S, CAL_SHARE * (t1 - t0)) of it, a window that holds the
    item's own trailing samples, which gives seconds at the reference speed,
    at which the kernel takes CAL_NOMINAL_S.  check_gauge.py checks that the
    scaling keeps the size of a change to graphce; bench/README.md has what
    it gave.
    """

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.durs: list[float] = []
        self._debt = 0.0

    def interleave(self, busy_s: float) -> None:
        """Spend CAL_SHARE of `busy_s`, the timed work just done, on calibration samples."""
        self._debt += busy_s * CAL_SHARE
        # The kernel's garbage is freed by reference counting.  With the
        # collector on, its allocations would set off collections that scan
        # whatever graphce left on the heap, and the samples would time those.
        gc.disable()
        try:
            while self._debt > 0:
                start = time.perf_counter()
                ref.full_ce(CAL_GRAPH)
                end = time.perf_counter()
                self.mids.append((start + end) / 2)
                self.durs.append(end - start)
                self._debt -= end - start
        finally:
            gc.enable()

    def factor(self, t0: float, t1: float) -> float:
        """Scale from measured to reference-speed time for a duration measured over [t0, t1]."""
        reach = max(CAL_WINDOW_S, CAL_SHARE * (t1 - t0))
        lo = bisect.bisect_left(self.mids, t0 - reach)
        hi = bisect.bisect_right(self.mids, t1 + reach)
        return CAL_NOMINAL_S / statistics.median(self.durs[lo:hi])


def measure_setup() -> float:
    """Median time from starting a fresh interpreter until graphce is imported and ready.

    Not scaled by the Gauge: the child is another process, and its start-up
    (file reads, unmarshalling, numpy's shared libraries) need not track the
    kernel.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import graphce, graphce.cli; print('ready', flush=True)"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("graphce did not import in a fresh interpreter")
    return statistics.median(times)


class Run:
    """Times passes over a workload's items and checks every answer."""

    def __init__(self, items: list[Item], gauge: Gauge):
        self.items = items
        self.gauge = gauge
        self.expected = [item.expect() for item in items]  # before any pass, so every pass sees the same heap
        self.attempted = 0
        self.failed = 0

    def _call(self, k: int, recorder: spans.Recorder | None) -> tuple[float, float, object]:
        item = self.items[k]
        if item.cli:
            _clear_caches()
            gc.collect()  # nor the garbage of earlier items
        if recorder is not None:
            recorder.current_item = k
        start = time.perf_counter()
        try:
            got = item.call()
        except Exception as exc:  # a raising item is a failed item, not a failed run
            got = exc
        return start, time.perf_counter(), got

    def one_pass(self, recorder: spans.Recorder | None = None) -> tuple[float, list[float]]:
        """Send each item after the previous returns; check the answers after the pass.

        Returns the pass's time as measured and each item's latency at
        reference speed, both in seconds.  A pass's time is the sum of its
        item latencies, the client's closed-loop time without the calibration
        gaps.
        """
        intervals, answers = [], []
        for k in range(len(self.items)):
            t0, t1, got = self._call(k, recorder)
            self.gauge.interleave(t1 - t0)
            intervals.append((t0, t1))
            answers.append(got)
        for k, got in enumerate(answers):
            self._check(k, got)
        return sum(t1 - t0 for t0, t1 in intervals), [(t1 - t0) * self.gauge.factor(t0, t1) for t0, t1 in intervals]

    def _check(self, k: int, got: object) -> None:
        self.attempted += 1
        try:
            ok = not isinstance(got, Exception) and self.items[k].check(got, self.expected[k])
        except (ValueError, TypeError, IndexError, KeyError):  # output too malformed to compare
            ok = False
        if not ok:
            self.failed += 1
            print(f"item {k} failed: {got!r}"[:300], file=sys.stderr)

    def warm_up(self) -> None:
        """Send the first item once, checked but not timed."""
        self._check(0, self._call(0, None)[2])

    def passes(self, seconds: float) -> list[tuple[float, list[float]]]:
        """Repeat passes while another one is expected to end within `seconds`; at least MIN_PASSES."""
        done: list[tuple[float, list[float]]] = []
        start = time.perf_counter()
        while len(done) < MIN_PASSES or (time.perf_counter() - start) * (len(done) + 1) / len(done) <= seconds:
            done.append(self.one_pass())
        return done


def run_workload(graphce, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    setup_s = measure_setup()
    gauge = Gauge()
    items = BUILDERS[workload](graphce, random.Random(f"{workload}:{seed}"))
    run = Run(items, gauge)
    detail: dict = {"workload": workload, "seed": seed, "trace": int(traced), "items_per_pass": len(items)}
    if traced:
        # Traced and untraced passes alternate, so that both see the same
        # machine speed.  The first traced pass goes first, so
        # survey.enumerate.rss_growth_mb sees the first enumeration.
        per_pass, traced_s, untraced_s = [], [], []
        start = time.perf_counter()
        while not per_pass or (time.perf_counter() - start) * (len(per_pass) + 1) / len(per_pass) <= seconds:
            recorder = spans.Recorder()
            with recorder.patched():
                raw_s, item_s = run.one_pass(recorder)
            layers = recorder.layer_metrics()
            for layer in spans.LAYERS:
                layers[f"{layer.name}.self_s"] *= sum(item_s) / raw_s
            per_pass.append(layers)
            traced_s.append(sum(item_s))
            untraced_s.append(sum(run.one_pass()[1]))
            if len(per_pass) == 1:
                OUT.mkdir(exist_ok=True)
                recorder.write(OUT / f"spans-{workload}-seed{seed}.tsv.gz")
        layers = dict(per_pass[0])  # the counts are the same in every pass
        for layer in spans.LAYERS:
            layers[f"{layer.name}.self_s"] = statistics.median(p[f"{layer.name}.self_s"] for p in per_pass)
        layers["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in spans.metric_names()}
        detail.update(passes=len(per_pass), moves={layer.name: layer.moves for layer in spans.LAYERS})
    else:
        run.warm_up()
        done = run.passes(seconds)
        item_ms = [statistics.median(p[1][k] for p in done) * 1e3 for k in range(len(items))]
        tail_ms, pct, count = tail(item_ms)
        values = {
            "wall_s": (statistics.median(sum(p[1]) for p in done), "s"),
            "item_ms_p50": (statistics.median(item_ms), "ms"),
            "item_ms_tail": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        detail.update(passes=len(done), tail_percentile=pct, tail_samples=count,
                      raw_wall_s=statistics.median(p[0] for p in done))
    detail["speed_factor"] = CAL_NOMINAL_S / statistics.median(gauge.durs)
    detail["failed_frac"] = run.failed / run.attempted
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics,
            "detail": detail}


def print_report(result: dict) -> None:
    d = result["detail"]
    print(f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}  items/pass {d['items_per_pass']}")
    for name, m in result["metrics"].items():
        if d["trace"]:
            layer = name.rsplit(".", 1)[0]
            if result["metrics"].get(f"{layer}.calls", {"value": 1})["value"] == 0:
                continue  # the layer did not run on this workload
            note = f"  -> {d['moves'][layer]}" if name.endswith(".self_s") and layer in d["moves"] else ""
            note += f"  (median of {d['passes']} traced passes)" if name.endswith(".self_s") else ""
        elif name == "item_ms_tail":
            note = f"  (p{d['tail_percentile']:.1f} of {d['tail_samples']} items)"
        elif name == "wall_s":
            note = f"  (median of {d['passes']} passes; {d['raw_wall_s']:.6g} s as measured)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} start-ups, as measured)"
        else:
            note = ""
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':<34} {d['failed_frac']:.6g}  ({result['failed']}/{result['attempted']})")
    print(f"  {'speed_factor':<34} {d['speed_factor']:.6g}  (times above but setup_s are scaled by it to reference speed)")


def run_all(args) -> int:
    combined, ok = {}, True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                ok = False
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            detail = json.loads((OUT / f"result-{workload}-seed{args.seed}-trace{trace}.json").read_text())
            combined[f"{workload}/trace{trace}"] = detail
            ok = ok and result["correct"]
    if args.save:
        Path(args.save).write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="with --workload all: write every run's detail to this JSON file")
    args = parser.parse_args()
    if not (SRC / "graphce" / "__init__.py").is_file():
        print(f"error: graphce sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import graphce
    import graphce.cli

    if not Path(graphce.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported graphce from {graphce.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = run_workload(graphce, args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    detail.update(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print_report({**result, "detail": detail})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
