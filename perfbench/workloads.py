"""The four seeded workloads, their correctness gates and their metrics.

Each workload builds its inputs from the seed before any timing, drives
the program through its public API with library defaults (only
``fragment`` and, for serving, ``persist_dir`` are set), checks every
output against the batch baseline outside the timed region, and fills
an :class:`Outcome`.

* ``load_bsbm`` -- the paper's section-3 protocol: parse + RDFS closure of
  a ~100k-triple BSBM-like N-Triples file (parse/encode/insert bound).
* ``closure_chain`` -- closure of ``subClassOf100`` (199 input triples,
  4,953 inferred): join rules, fixpoint rounds and worker scheduling.
  The longer ``subClassOf200`` fits only 2-3 closures into a run, too
  few for a steady median of its thread-scheduled closure times.
* ``window_stream`` -- a ``CountWindow(10_000)`` over the BSBM ABox with
  the BSBM TBox as background, fed 200 triples per slide, so each
  steady-state slide both asserts and expires (DRed).
* ``serve_durable`` -- ``serve()`` over a durable ``ReasoningService``
  preloaded with the ``load_bsbm`` data; an open-loop client process
  sends reads and writes on a fixed schedule over two keep-alive
  connections.

A traced run (``trace=True``) times every layer from outside with spans
around the calls the benchmark makes, alternating traced and untraced
operations so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlencode

from repro import CountWindow, Delta, ReasoningService, Slider, WindowedReasoner
from repro.baselines import SemiNaiveReasoner
from repro.datasets import BSBM, bsbm_tbox, generate_bsbm, subclass_chain
from repro.dictionary.encoder import encode_batch
from repro.rdf import IRI, RDF, RDFS, Triple, Variable, parse_ntriples_file
from repro.rdf import write_ntriples_file
from repro.server.http import serve
from repro.server.wire import parse_patterns, parse_statements
from repro.store import Graph, select

from measure import (
    Spans,
    delta_count,
    delta_mean,
    delta_sum,
    median,
    obs_delta,
    obs_snapshot,
    peak_rss_mb,
    tail,
)
from speed import SpeedSampler

FRAGMENT = "rdfs"

#: Input sizes and rates.  ``tiny`` exists for the benchmark's own
#: smoke test; measured runs use ``full``.
SIZES = {
    "full": {
        "bsbm": 100_000,  # generate_bsbm target: 100,209 input triples
        "chain": 100,  # subClassOf100: 199 input triples, 4,953 inferred
        "window": 10_000,
        "chunk": 200,
        "stream": 60_000,  # ABox pool the window cycles through
        "read_rps": 4.0,  # writes: read_rps * WRITES_PER_READ, 12.9/s
        "setups": 3,
        "window_setups": 9,
        "members_limit": 100,
    },
    "tiny": {
        "bsbm": 2_000,
        "chain": 20,
        "window": 400,
        "chunk": 40,
        "stream": 3_000,
        "read_rps": 20.0,
        "setups": 2,
        "window_setups": 2,
        "members_limit": 3,
    },
}

#: Ratio of the write rate to the read rate on ``serve_durable``: twice
#: the golden ratio, irrational so the two schedules never fall into step.
WRITES_PER_READ = 1 + 5 ** 0.5

#: Slider constructions timed for ``setup_s`` on the closure workloads,
#: on top of the one every closure repetition makes.
CLOSURE_SETUP_SAMPLES = 25

#: Whole closures run even when ``--seconds`` is shorter than this many.
MIN_CLOSURES = 2

#: End-to-end metrics: name -> unit.  Which operation each one times on
#: which workload is set out in ``perfbench/README.md``.
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

#: Rule modules of the ``rdfs`` fragment (``reasoner.rule_s.<rule>``).
RULES = (
    "rdfs2", "rdfs3", "rdfs4a", "rdfs4b", "rdfs5", "rdfs7", "rdfs9",
    "rdfs11", "rdfs12", "rdfs13", "scm-dom2", "scm-rng2",
)

#: Read shapes of ``serve_durable``.
SHAPES = ("lookup", "members", "join")

#: Per-layer metrics: name -> unit.  ``*_s`` values are seconds of self
#: time per workload operation (closure, slide, or replayed request).
LAYER_UNITS = {
    "rdf.parse_s": "s",
    "rdf.triples_parsed": "count",
    "dictionary.encode_s": "s",
    "dictionary.terms": "count",
    "reasoner.apply_s": "s",
    **{f"reasoner.rule_s.{rule}": "s" for rule in RULES},
    "reasoner.kept_ratio": "ratio",
    "reasoner.inferred": "count",
    "reasoner.dred_deleted": "count",
    "reasoner.dred_rederived": "count",
    "reasoner.dred_rederived_ratio": "ratio",
    "store.triples": "count",
    **{f"store.solve_s.{shape}": "s" for shape in SHAPES},
    **{f"store.rows_returned.{shape}": "count" for shape in SHAPES},
    "server.view_advance_s": "s",
    "server.coalesced_per_commit": "ratio",
    "server.http_request_s.select": "s",
    "server.http_request_s.apply": "s",
    "persist.wal_append_s": "s",
    "persist.fsync_s": "s",
    "persist.fsyncs": "count",
    "persist.wal_bytes_per_user_byte": "ratio",
    "loadgen.offered_rps": "1/s",
    "loadgen.achieved_rps": "1/s",
    "loadgen.late_ms": "ms",
    "obs.trace_overhead": "ratio",
    "bench.speed_factor": "ratio",
    "bench.sanity_violations": "count",
}

LOADGEN = Path(__file__).resolve().parent / "loadgen.py"


class Outcome:
    """What one run measured and whether every output was right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.notes: dict[str, str] = {}  # metric -> "p91.7 of n=120"
        self.layers: dict[str, float] = dict.fromkeys(LAYER_UNITS, 0.0)
        self.warnings: list[str] = []

    def record(self, ok: bool, problem: str = "") -> None:
        """Count one operation or check; a failed one is kept with why."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def set_latencies(self, prefix: str, timed: Timed) -> None:
        self.e2e[f"{prefix}_p50_ms"] = median(timed.scaled) * 1000.0
        value, percentile, n = tail(timed.scaled)
        self.e2e[f"{prefix}_tail_ms"] = value * 1000.0
        self.notes[f"{prefix}_p50_ms"] = f"n={n}; wall {median(timed.wall) * 1000.0:.4g} ms"
        self.notes[f"{prefix}_tail_ms"] = (
            f"p{percentile:.1f} of n={n}; wall {tail(timed.wall)[0] * 1000.0:.4g} ms")

    def set_setup(self, timed: Timed) -> None:
        self.e2e["setup_s"] = median(timed.scaled)
        self.notes["setup_s"] = (
            f"median of {len(timed.scaled)} set-ups; wall {median(timed.wall):.4g} s")

    def finish(self) -> None:
        self.e2e["ok_share"] = 1.0 - self.failed / max(1, self.attempted)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


class Timed:
    """Operations timed as ``time.monotonic()`` intervals, and their
    durations at the reference CPU speed once the run's speed samples
    are in (see ``speed.py``)."""

    def __init__(self):
        self.intervals: list[tuple[float, float]] = []
        self.wall: list[float] = []
        self.scaled: list[float] = []

    def add(self, start: float, end: float) -> None:
        self.intervals.append((start, end))

    def scale(self, speed: SpeedSampler) -> None:
        self.wall = [end - start for start, end in self.intervals]
        self.scaled = [(end - start) * speed.factor(start, end)
                       for start, end in self.intervals]


class Context:
    """Arguments of one run plus its scratch directory and spans."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 size: str, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.cfg = SIZES[size]
        self.workdir = workdir
        self.spans = Spans(f"{workload}-seed{seed}-{time.time_ns()}", enabled=False)
        self.out = Outcome()


# --- ground truth -------------------------------------------------------------
def baseline_graph(triples) -> Graph:
    """RDFS closure by the semi-naive batch baseline (the ground truth)."""
    baseline = SemiNaiveReasoner(fragment=FRAGMENT)
    baseline.add(triples)
    baseline.materialize()
    return baseline.graph


def closure_problem(label: str, actual: set, expected: set) -> str:
    """'' when equal, else a one-line description of the difference."""
    if actual == expected:
        return ""
    missing, extra = expected - actual, actual - expected
    example = next(iter(missing or extra))
    return (f"{label}: {len(missing)} missing, {len(extra)} unexpected "
            f"triples (e.g. {example})")


def fingerprint(triples) -> tuple[int, int]:
    """Order-free (size, hash) of a triple set, cheap to keep per run."""
    frozen = frozenset(triples)
    return len(frozen), hash(frozen)


# --- shared pieces ------------------------------------------------------------
def _add_rule_seconds(out: Outcome, timings: dict[str, float]) -> None:
    for rule, seconds in timings.items():
        key = f"reasoner.rule_s.{rule}"
        if key in out.layers:
            out.layers[key] += seconds


def _average(out: Outcome, keys, ops: int) -> None:
    """Turn per-run sums of the traced operations into per-op means."""
    for key in (*keys, *(f"reasoner.rule_s.{rule}" for rule in RULES)):
        out.layers[key] /= max(1, ops)


def _kept_derived(reasoner: Slider) -> tuple[int, int]:
    counters = reasoner.counters().values()
    return sum(c["kept"] for c in counters), sum(c["derived"] for c in counters)


def _span_layers(ctx: Context, ops: int, mapping: dict[str, str]) -> None:
    """Self time per span name -> per-op layer seconds."""
    self_times = ctx.spans.self_times()
    for span_name, metric in mapping.items():
        ctx.out.layers[metric] = self_times.get(span_name, 0.0) / max(1, ops)


def _overhead(traced: list[float], untraced: list[float]) -> float:
    if not traced or not untraced:
        return 0.0
    return median(traced) / median(untraced)


# --- load_bsbm / closure_chain --------------------------------------------------
def _chain_triples(n: int, seed: int) -> list[Triple]:
    """subClassOf_n with its class IRIs renamed by a seeded permutation:
    the same closure work, different input terms per seed."""
    rng = random.Random(seed)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    rename: dict = {}

    def term(t):
        if isinstance(t, IRI) and t.value.startswith("http://slider.repro/chain#C"):
            index = int(t.value.rsplit("C", 1)[1])
            return rename.setdefault(t, IRI(f"http://slider.bench/chain/{seed}/K{labels[index - 1]}"))
        return t

    return [Triple(term(t.subject), t.predicate, term(t.object)) for t in subclass_chain(n)]


def _closure_workload(ctx: Context, path: Path) -> None:
    out = ctx.out
    setup, closures = Timed(), Timed()
    with SpeedSampler() as speed:
        for _ in range(CLOSURE_SETUP_SAMPLES):
            started = time.monotonic()
            reasoner = Slider(fragment=FRAGMENT)
            setup.add(started, time.monotonic())
            reasoner.close()
        fingerprints, input_triples = _closures(ctx, path, setup, closures)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    setup.scale(speed)
    closures.scale(speed)

    expected = fingerprint(baseline_graph(parse_ntriples_file(path)))
    for index, actual in enumerate(fingerprints):
        out.record(actual == expected,
                   f"closure {index} differs from the baseline closure "
                   f"({actual[0]} vs {expected[0]} triples)")

    out.set_setup(setup)
    out.set_latencies("op", closures)
    out.set_latencies("write", closures)
    out.e2e["throughput_per_s"] = input_triples / median(closures.scaled)
    out.layers["bench.speed_factor"] = speed.median_factor()


def _closures(ctx: Context, path: Path, setup: Timed,
              closures: Timed) -> tuple[list[tuple[int, int]], int]:
    """Fresh-``Slider`` closures of ``path`` until ``ctx.seconds`` pass;
    returns each closure's fingerprint and the input triple count."""
    out, spans = ctx.out, ctx.spans
    traced_times: list[float] = []
    untraced_times: list[float] = []
    fingerprints: list[tuple[int, int]] = []
    input_triples = 0
    deadline = time.monotonic() + ctx.seconds
    rep = 0
    while rep < MIN_CLOSURES or time.monotonic() < deadline:
        gc.collect()
        started = time.monotonic()
        reasoner = Slider(fragment=FRAGMENT)
        setup.add(started, time.monotonic())
        traced = ctx.trace and rep % 2 == 0
        spans.enabled = traced
        started = time.monotonic()
        if traced:
            with spans.span("op"):
                with spans.span("rdf.parse"):
                    triples = parse_ntriples_file(path)
                terms_before = len(reasoner.dictionary)
                with spans.span("dictionary.encode"):
                    encoded = encode_batch(reasoner.dictionary, triples)
                with spans.span("reasoner.apply"):
                    reasoner.add_encoded(encoded)
                    report = reasoner.flush()
        else:
            reasoner.load(path)
            report = reasoner.flush()
        ended = time.monotonic()
        spans.enabled = False
        closures.add(started, ended)
        (traced_times if traced else untraced_times).append(ended - started)
        if traced:
            layers = out.layers
            layers["rdf.triples_parsed"] += len(triples)
            layers["dictionary.terms"] += len(reasoner.dictionary) - terms_before
            layers["reasoner.inferred"] += report.inferred_added_count
            kept, derived = _kept_derived(reasoner)
            layers["reasoner.kept_ratio"] += kept / derived if derived else 0.0
            _add_rule_seconds(out, report.timings)
            layers["store.triples"] = len(reasoner.store)
            del triples, encoded
        input_triples = reasoner.input_count
        fingerprints.append(fingerprint(reasoner.graph))
        reasoner.close()
        del reasoner, report
        rep += 1
    if ctx.trace:
        traced_ops = len(traced_times)
        _average(out, ("rdf.triples_parsed", "dictionary.terms", "reasoner.inferred",
                       "reasoner.kept_ratio"), traced_ops)
        _span_layers(ctx, traced_ops, {
            "rdf.parse": "rdf.parse_s",
            "dictionary.encode": "dictionary.encode_s",
            "reasoner.apply": "reasoner.apply_s",
        })
        out.layers["obs.trace_overhead"] = _overhead(traced_times, untraced_times)
    return fingerprints, input_triples


def load_bsbm(ctx: Context) -> None:
    path = ctx.workdir / "bsbm.nt"
    write_ntriples_file(generate_bsbm(ctx.cfg["bsbm"], seed=ctx.seed), path)
    _closure_workload(ctx, path)


def closure_chain(ctx: Context) -> None:
    path = ctx.workdir / "chain.nt"
    write_ntriples_file(_chain_triples(ctx.cfg["chain"], ctx.seed), path)
    _closure_workload(ctx, path)


# --- window_stream --------------------------------------------------------------
def window_stream(ctx: Context) -> None:
    cfg, out, spans = ctx.cfg, ctx.out, ctx.spans
    size, chunk = cfg["window"], cfg["chunk"]
    tbox = bsbm_tbox()
    background = set(tbox)
    pool = [t for t in dict.fromkeys(generate_bsbm(cfg["stream"], seed=ctx.seed))
            if t not in background]
    if len(pool) < size + chunk:
        raise ValueError("the stream pool must outgrow the window")
    streamed = 0  # position in the endless cycle over ``pool``

    def take(count: int) -> list[Triple]:
        nonlocal streamed
        start = streamed % len(pool)
        part = pool[start:start + count]
        if len(part) < count:
            part += pool[:count - len(part)]
        streamed += count
        return part

    setup, slides = Timed(), Timed()
    traced_times: list[float] = []
    untraced_times: list[float] = []
    deleted = rederived = 0
    window = None
    with SpeedSampler() as speed:
        for attempt in range(1 if ctx.trace else cfg["window_setups"]):
            if window is not None:
                window.close()
            streamed = 0
            gc.collect()
            started = time.monotonic()
            window = WindowedReasoner(CountWindow(size), fragment=FRAGMENT)
            window.load_background(tbox)
            for _ in range(size // chunk):
                window.extend(take(chunk))
            setup.add(started, time.monotonic())

        reasoner = window.reasoner
        gc.collect()  # set-up garbage is not charged to the first slides
        deadline = time.monotonic() + ctx.seconds
        while len(slides.intervals) < 2 or time.monotonic() < deadline:
            batch = take(chunk)
            traced = ctx.trace and len(slides.intervals) % 2 == 0
            if traced:
                kept_before, derived_before = _kept_derived(reasoner)
            spans.enabled = traced
            started = time.monotonic()
            with spans.span("op"):
                with spans.span("reasoner.apply"):
                    window.extend(batch)
            ended = time.monotonic()
            spans.enabled = False
            slides.add(started, ended)
            out.record(True)
            (traced_times if traced else untraced_times).append(ended - started)
            if traced:
                report = window.last_report
                kept, derived = _kept_derived(reasoner)
                out.layers["reasoner.kept_ratio"] += (
                    (kept - kept_before) / (derived - derived_before)
                    if derived > derived_before else 0.0
                )
                out.layers["reasoner.inferred"] += report.inferred_added_count
                deleted += report.dred_deleted
                rederived += report.dred_rederived
                _add_rule_seconds(out, report.timings)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    setup.scale(speed)
    slides.scale(speed)

    live = [pool[i % len(pool)] for i in range(streamed - size, streamed)]
    out.record(len(window) == size, f"window holds {len(window)} triples, not {size}")
    problem = closure_problem("final window closure", set(window.graph),
                              set(baseline_graph(live + tbox)))
    out.record(not problem, problem)
    out.layers["store.triples"] = len(reasoner.store)
    window.close()

    out.set_setup(setup)
    out.set_latencies("op", slides)
    out.set_latencies("write", slides)
    out.e2e["throughput_per_s"] = chunk * len(slides.scaled) / sum(slides.scaled)
    out.layers["bench.speed_factor"] = speed.median_factor()
    if ctx.trace:
        ops = len(traced_times)
        _average(out, ("reasoner.kept_ratio", "reasoner.inferred"), ops)
        out.layers["reasoner.dred_deleted"] = deleted / ops
        out.layers["reasoner.dred_rederived"] = rederived / ops
        out.layers["reasoner.dred_rederived_ratio"] = rederived / deleted if deleted else 0.0
        _span_layers(ctx, ops, {"reasoner.apply": "reasoner.apply_s"})
        out.layers["obs.trace_overhead"] = _overhead(traced_times, untraced_times)


# --- serve_durable --------------------------------------------------------------
def _variables(patterns) -> list[Variable]:
    seen: dict[Variable, None] = {}
    for pattern in patterns:
        for term in pattern:
            if isinstance(term, Variable):
                seen[term] = None
    return list(seen)


def _schedule(ctx: Context, preload: list[Triple], seconds: float) -> list[dict]:
    """The seeded open-loop op stream: reads and writes with due times."""
    cfg = ctx.cfg
    rng = random.Random(ctx.seed)
    level1 = sorted(t.subject for t in bsbm_tbox()
                    if t.predicate == RDFS.subClassOf and t.object == BSBM.ProductType)
    leaves = sorted(t.subject for t in bsbm_tbox()
                    if t.predicate == RDFS.subClassOf and t.object in level1)
    leaf_set = set(leaves)
    products = sorted({t.subject for t in preload
                       if t.predicate == RDF.type and t.object in leaf_set})
    type_ = RDF.type.n3()
    ops: list[dict] = []
    for i in range(int(seconds * cfg["read_rps"])):
        shape = SHAPES[i % len(SHAPES)]  # a fixed mix; the seed picks parameters
        product = rng.choice(products).n3()
        params = {}
        if shape == "lookup":
            query = f"{product} ?p ?o"
        elif shape == "members":
            query = f"?x {type_} {BSBM.ProductType.n3()}"
            params["limit"] = cfg["members_limit"]
        else:
            query = (f"?r {BSBM.reviewFor.n3()} {product} . "
                     f"?r {BSBM.reviewer.n3()} ?u")
        params["query"] = query
        ops.append({"at": i / cfg["read_rps"], "conn": "read", "method": "GET",
                    "path": "/select?" + urlencode(params), "shape": shape,
                    "query": query, "limit": params.get("limit")})
    # Writes keep their own period, incommensurate with the reads, so
    # successive writes fall at evenly spread phases of the read cycle.
    # Some commit while a read is being answered and some reads run
    # during a commit, in the same share on every seed.
    interval = 1.0 / (cfg["read_rps"] * WRITES_PER_READ)
    first = rng.random() * interval
    for j in range(int(seconds / interval)):
        leaf = rng.choice(leaves).n3()
        ops.append({"at": first + j * interval, "conn": "write", "method": "POST",
                    "path": "/apply", "shape": "write", "leaf": leaf, "index": j})
    for op in ops:
        if op["conn"] == "write":
            op["statement"] = _write_statement(ctx.seed, "", op)
            op["body"] = json.dumps({"assert": [op["statement"]]})
    ops.sort(key=lambda op: (op["at"], op["conn"]))
    return ops


def _write_statement(seed: int, tag: str, op: dict) -> str:
    subject = IRI(f"http://slider.bench/new/{seed}/{tag}{op['index']}").n3()
    return f"{subject} {RDF.type.n3()} {op['leaf']}"


def _http_select(port: int, op: dict, at: int) -> tuple[int, list | None]:
    params = {"query": op["query"], "at": at}
    if op["limit"]:
        params["limit"] = op["limit"]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", "/select?" + urlencode(params))
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    rows = json.loads(body).get("rows") if response.status == 200 else None
    return response.status, rows


def _expected_rows(graph: Graph, op: dict) -> set[tuple[str, ...]]:
    patterns = parse_patterns(op["query"])
    return {tuple(term.n3() for term in row)
            for row in select(graph, _variables(patterns), patterns)}


def _rows_problem(label: str, op: dict, rows: list, expected: set) -> str:
    """'' when ``rows`` answer ``op`` given the ``expected`` solutions.

    A limited membership answer may be any ``limit`` distinct members.
    Under these writes members only grow, so a read at an earlier
    revision must still be a subset of the final members, and the
    preload alone has more members than the limit.
    """
    got = {tuple(row) for row in rows}
    if op["limit"]:
        ok = (got <= expected and len(got) == len(rows)
              and len(rows) == min(op["limit"], len(expected)))
    else:
        ok = got == expected
    return "" if ok else f"{label}: {op['shape']} {op['query']!r} answered {len(got)} rows"


def _replay(ctx: Context, service: ReasoningService, ops: list[dict],
            writes: list[tuple[int, Triple]]) -> None:
    """Re-issue the op stream in-process, with the calls the service's
    commit path and ``/select`` handler make, each op once traced and
    once untraced (writes get fresh subjects, so neither is a no-op).

    Spans: ``op`` roots, ``rdf.parse`` (wire parsing), ``reasoner.apply``
    (``Slider.apply``), ``server.view_advance`` (``ViewRegistry.advance``)
    and ``store.solve.<shape>`` (``select`` over the current view)."""
    out, spans = ctx.out, ctx.spans
    reasoner = service.reasoner
    traced_times: list[float] = []
    untraced_times: list[float] = []
    counts = dict.fromkeys(SHAPES + ("write",), 0)
    rows_returned = dict.fromkeys(SHAPES, 0)
    deleted = rederived = inferred = 0
    kept_before, derived_before = _kept_derived(reasoner)
    for position, op in enumerate(ops):
        # Which of the pair runs first alternates, so neither gains
        # from the other warming a cache.
        for traced in ((True, False) if position % 2 == 0 else (False, True)):
            spans.enabled = traced
            started = time.perf_counter()
            if op["conn"] == "write":
                statement = _write_statement(ctx.seed, "a" if traced else "b", op)
                with spans.span("op"):
                    with spans.span("rdf.parse"):
                        triples = parse_statements([statement])
                    with spans.span("reasoner.apply"):
                        report = reasoner.apply(Delta(assertions=triples))
                    with spans.span("server.view_advance"):
                        service.views.advance(report)
                writes.append((report.revision, triples[0]))
            else:
                with spans.span("op"):
                    with spans.span("rdf.parse"):
                        patterns = parse_patterns(op["query"])
                    with spans.span(f"store.solve.{op['shape']}"):
                        rows = select(service.graph(), _variables(patterns), patterns)
            elapsed = time.perf_counter() - started
            spans.enabled = False
            (traced_times if traced else untraced_times).append(elapsed)
            if not traced:
                continue
            counts[op["shape"]] += 1
            if op["conn"] == "write":
                inferred += report.inferred_added_count
                deleted += report.dred_deleted
                rederived += report.dred_rederived
                _add_rule_seconds(out, report.timings)
            else:
                rows_returned[op["shape"]] += len(rows)
    kept, derived = _kept_derived(reasoner)
    layers = out.layers
    writes_n = max(1, counts["write"])
    layers["reasoner.kept_ratio"] = (
        (kept - kept_before) / (derived - derived_before) if derived > derived_before else 0.0
    )
    layers["reasoner.inferred"] = inferred / writes_n
    layers["reasoner.dred_deleted"] = deleted / writes_n
    layers["reasoner.dred_rederived"] = rederived / writes_n
    _average(out, (), writes_n)
    self_times = spans.self_times()
    ops_n = max(1, sum(counts.values()))
    layers["rdf.parse_s"] = self_times.get("rdf.parse", 0.0) / ops_n
    layers["rdf.triples_parsed"] = counts["write"] / ops_n
    layers["reasoner.apply_s"] = self_times.get("reasoner.apply", 0.0) / writes_n
    layers["server.view_advance_s"] = self_times.get("server.view_advance", 0.0) / writes_n
    for shape in SHAPES:
        n = max(1, counts[shape])
        layers[f"store.solve_s.{shape}"] = self_times.get(f"store.solve.{shape}", 0.0) / n
        layers[f"store.rows_returned.{shape}"] = rows_returned[shape] / n
    layers["obs.trace_overhead"] = sum(traced_times) / sum(untraced_times)


def serve_durable(ctx: Context) -> None:
    cfg, out = ctx.cfg, ctx.out
    path = ctx.workdir / "bsbm.nt"
    write_ntriples_file(generate_bsbm(cfg["bsbm"], seed=ctx.seed), path)
    # The traced run gives half its time to HTTP, half to the replay.
    load_seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    ops = _schedule(ctx, parse_ntriples_file(path), load_seconds)
    schedule_path = ctx.workdir / "schedule.json"

    setup = Timed()
    latencies = {"read": Timed(), "write": Timed()}
    with SpeedSampler() as speed:
        service, server = _start_service(ctx, path, setup, 0)
        try:
            preload_revision = service.revision
            schedule_path.write_text(json.dumps({"port": server.port, "ops": ops}))
            gc.collect()  # set-up garbage is not charged to the first requests
            before = obs_snapshot()
            completed = subprocess.run(
                [sys.executable, str(LOADGEN), str(schedule_path)],
                capture_output=True, text=True, timeout=ctx.seconds + 120, check=False,
            )
            after = obs_snapshot()
            out.e2e["peak_rss_mb"] = peak_rss_mb()
            if completed.returncode != 0:
                raise RuntimeError(f"load generator failed: {completed.stderr.strip()}")
            loadgen = json.loads(completed.stdout.strip().splitlines()[-1])
            late, answered, writes, user_bytes = _client_results(ctx, ops, loadgen, latencies)
            if ctx.trace:
                _serve_layers(ctx, before, after, ops, late, user_bytes, load_seconds, loadgen)
                _replay(ctx, service, ops, writes)
            _serve_gate(ctx, service, server.port, parse_ntriples_file(path),
                        preload_revision, answered, writes)
            out.layers["store.triples"] = len(service.view())
        finally:
            _stop_service(service, server)
        # Further set-ups, timed for the median, come after the load: the
        # heap they leave behind would otherwise swell the peak RSS.
        for attempt in range(1, 1 if ctx.trace else cfg["setups"]):
            _stop_service(*_start_service(ctx, path, setup, attempt))

    for timed in (setup, *latencies.values()):
        timed.scale(speed)
    out.set_setup(setup)
    out.set_latencies("op", latencies["read"])
    out.set_latencies("write", latencies["write"])
    ok_requests = sum(1 for r in loadgen["results"] if r[3] == 200)
    out.e2e["throughput_per_s"] = ok_requests / loadgen["elapsed"]
    out.layers["bench.speed_factor"] = speed.median_factor()
    if ctx.trace:
        out.layers["loadgen.achieved_rps"] = out.e2e["throughput_per_s"]


def _start_service(ctx: Context, path: Path, setup: Timed,
                   attempt: int) -> tuple[ReasoningService, object]:
    """One timed set-up: a durable service preloaded with ``path``, served."""
    state = ctx.workdir / f"state{attempt}"
    shutil.rmtree(state, ignore_errors=True)
    gc.collect()
    started = time.monotonic()
    service = ReasoningService(fragment=FRAGMENT, persist_dir=state)
    try:
        service.apply(parse_ntriples_file(path))
        server, _thread = serve(service)
    except BaseException:
        service.close()
        raise
    setup.add(started, time.monotonic())
    return service, server


def _stop_service(service: ReasoningService, server) -> None:
    server.shutdown()
    server.server_close()
    service.close()


def _client_results(ctx: Context, ops: list[dict], loadgen: dict,
                    latencies: dict[str, Timed]):
    """Record the load generator's results: every request counts as an
    operation and its latency goes to ``latencies[conn]``.  Returns the
    lateness of each request, the answered reads, the acknowledged
    writes with their revisions, and the bytes of statement text sent."""
    late: list[float] = []
    answered: list[tuple[dict, list, int]] = []
    writes: list[tuple[int, Triple]] = []
    user_bytes = 0
    for index, late_s, latency, status, revision, rows in loadgen["results"]:
        op = ops[index]
        due = loadgen["t0"] + op["at"]
        latencies[op["conn"]].add(due, due + latency)
        late.append(late_s)
        ctx.out.record(status == 200, f"{op['method']} {op['path'][:80]} -> {status}")
        if status != 200:
            continue
        if op["conn"] == "write":
            writes.append((revision, parse_statements([op["statement"]])[0]))
            user_bytes += len(op["statement"].encode("utf-8"))
        else:
            answered.append((op, rows, revision))
    return late, answered, writes, user_bytes


def _serve_layers(ctx: Context, before: dict, after: dict, ops: list[dict],
                  late: list[float], user_bytes: int, load_seconds: float,
                  loadgen: dict) -> None:
    """Per-layer metrics of the HTTP load, from the client's results and
    the growth of the program's own ``repro.obs`` families."""
    layers = ctx.out.layers
    delta = obs_delta(before, after)
    layers["loadgen.offered_rps"] = len(ops) / load_seconds
    layers["loadgen.late_ms"] = sum(late) / len(late) * 1000.0
    layers["server.http_request_s.select"] = delta_mean(
        delta, "slider_http_request_seconds", ("/select",))
    layers["server.http_request_s.apply"] = delta_mean(
        delta, "slider_http_request_seconds", ("/apply",))
    commits = delta_sum(delta, "slider_coalescer_commits_total")
    submitted = delta_sum(delta, "slider_coalescer_submitted_total")
    layers["server.coalesced_per_commit"] = submitted / commits if commits else 0.0
    layers["persist.wal_append_s"] = delta_mean(delta, "slider_persist_wal_append_seconds")
    layers["persist.fsync_s"] = delta_mean(delta, "slider_persist_fsync_seconds")
    layers["persist.fsyncs"] = delta_count(delta, "slider_persist_fsync_seconds")
    wal_bytes = delta_sum(delta, "slider_persist_wal_bytes_total")
    layers["persist.wal_bytes_per_user_byte"] = wal_bytes / user_bytes if user_bytes else 0.0


def _serve_gate(ctx: Context, service: ReasoningService, port: int,
                preload: list[Triple], preload_revision: int,
                answered: list[tuple[dict, list, int]],
                writes: list[tuple[int, Triple]]) -> None:
    """Read answers and the final store against baseline closures.

    Every read the client made is checked against the baseline closure
    of the preload plus every acknowledged write: the writes only add
    fresh instances, so lookup and join answers are the same at every
    revision, and a limited membership answer at an earlier revision is
    a subset of the final members (see :func:`_rows_problem`).

    Pinned reads (``at=N``) are then checked at the oldest revision the
    server still retains after the preload and at the final one, each
    against the baseline closure of the preload plus the writes
    committed up to N.  Besides one query of each read shape, each pin
    asks for every instance of the leaf types written at N and at N+1:
    those answers hold the write of revision N and lack that of N+1, so
    a view one revision off in either direction answers wrongly.
    """
    out = ctx.out
    final = service.revision
    oldest = max(preload_revision, service.views.oldest_revision())
    graphs = {revision: baseline_graph(preload + [t for r, t in writes if r <= revision])
              for revision in {oldest, final}}
    problem = closure_problem(f"final store at revision {final}",
                              set(service.graph()), set(graphs[final]))
    out.record(not problem, problem)
    expected: dict[tuple[int, str], set] = {}

    def check(label: str, op: dict, rows: list, revision: int) -> None:
        key = (revision, op["query"])
        if key not in expected:
            expected[key] = _expected_rows(graphs[revision], op)
        problem = _rows_problem(label, op, rows, expected[key])
        out.record(not problem, problem)

    for op, rows, revision in answered:
        check(f"read at revision {revision}", op, rows, final)
    probes = list({op["shape"]: op for op, _rows, _revision in reversed(answered)}.values())
    leaves: dict[int, set[IRI]] = {}
    for revision, triple in writes:
        leaves.setdefault(revision, set()).add(triple.object)
    for revision in sorted(graphs):
        written = leaves.get(revision, set()) | leaves.get(revision + 1, set())
        pinned = probes + [
            {"shape": "members", "query": f"?x {RDF.type.n3()} {leaf.n3()}", "limit": None}
            for leaf in sorted(written, key=str)
        ]
        for op in pinned:
            status, rows = _http_select(port, op, revision)
            if status == 200:
                check(f"at={revision}", op, rows, revision)
            else:
                out.record(False, f"at={revision}: {op['query']!r} -> HTTP {status}")


WORKLOADS = {
    "load_bsbm": load_bsbm,
    "closure_chain": closure_chain,
    "window_stream": window_stream,
    "serve_durable": serve_durable,
}


def sanity_checks(workload: str, out: Outcome) -> list[str]:
    """Predicted layer splits: which mechanisms each workload exercises
    (non-zero) or bypasses (zero).  Returns the violated predictions."""
    layers = out.layers
    serving = workload == "serve_durable"
    windowed = workload == "window_stream"
    predictions = [
        ("server.view_advance_s", serving),
        ("persist.fsyncs", serving),
        *((f"store.solve_s.{shape}", serving) for shape in SHAPES),
        ("reasoner.dred_deleted", windowed),
    ]
    if not windowed:
        predictions.append(("reasoner.dred_rederived", False))
    violations = [
        f"{metric} is {layers[metric]:.6g}, predicted {'> 0' if used else '0'}"
        for metric, used in predictions
        if (layers[metric] > 0) != used
    ]
    if workload in ("load_bsbm", "closure_chain"):
        share = layers["rdf.parse_s"] / max(1e-12, sum(
            layers[k] for k in ("rdf.parse_s", "dictionary.encode_s", "reasoner.apply_s")))
        if workload == "load_bsbm" and share < 0.10:
            violations.append(f"rdf.parse_s is {share:.1%} of the closure, predicted >= 10%")
        if workload == "closure_chain" and share > 0.02:
            violations.append(f"rdf.parse_s is {share:.1%} of the closure, predicted <= 2%")
    return violations
