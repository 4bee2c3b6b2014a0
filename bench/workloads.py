"""The four benchmark workloads, their correctness checks and trace plan.

Each workload is a closed loop driven from this one process through the
public API of mlmagma: one operation runs at a time and the next starts
when it returns.  Its inputs come from the seed alone.  A run sets the
workload up at least `setup_reps` times (fresh-interpreter import,
input generation, fixtures) and then measures for the given seconds in
rounds: each round runs a fixed mix of the workload's operations, so
that every figure samples the whole run, and rounds repeat until the
seconds are spent and the minimum rounds are done.

Every operation's output is checked outside the timed region.  An
operation counts as failed when it raises or its check fails; the run's
error rate is failed / attempted.

The driver gates three timed figures per workload, `op1_ms`..`op3_ms`:
a statistic (mostly the median) of one operation's milliseconds at a
stated size, calibrated for interpreter-bound operations (see Clock).
Each is also reported as measured, under its own name and unit
(Figure.name; the table is in README.md).
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import mlmagma
from mlmagma import (Params3, Params4, Vector3, Vector4, dip, identity, kx,
                     make_modulus, orbit, power, prng, symbolic)

from spans import Tracer

SRC = Path(mlmagma.__file__).resolve().parent.parent


@dataclass(frozen=True)
class Sizes:
    setup_reps: int = 3                   # at least; more while under
    setup_seconds: float = 1.5            # this many seconds in total
    # census: a seed-drawn set of p = 23 pairs from the C10 family
    # (C, D, E) = (1, 1, 2), one large census (C09), the C11 search
    census_pairs: int = 24
    census_large: tuple = (61, (31, 30, 1, 1, 2))
    search_instance: tuple = (61, (31, 30, 1, 1, 2))
    search_budget: int = 122
    search_every: int = 2                 # small censuses per search
    # stream: the C12/C13 instance
    stream_instance: tuple = (37, (19, 18, 1, 1, 2))
    search_trials: int = 50
    min_search_trials: int = 200          # per pattern and measuring pass
    stream_bytes: int = 65536
    stream_samples: int = 200_000
    # exchange: loopback sessions, then brute-force recovery (C15)
    kx_p: int = 2**31 - 1
    kx_bits: int = 64
    warmup_sessions: int = 1000
    min_sessions: int = 1200              # >= 10 sessions beyond p99
    sessions_per_round: int = 540         # few warm-up tails after recoveries
    recoveries_per_round: int = 4         # about as long as the sessions
    sessions_per_mark: int = 90           # calibrations every ~0.2 s
    local_per_round: int = 60             # in-process exchanges, ~0.15 s
    dip_instance: tuple = (1009, (505, 504, 1, 1, 2))
    dip_exponents: tuple = (7 * 2**16, 2**19)   # planted n in [lo, hi)
    # algebra: law checks in dimensions 3 and 4, symbolic powers
    algebra_primes: tuple = (23, 61, 101, 1009)
    instance_pool: int = 256
    dim3_per_round: int = 6               # per sym_pow set; about equal time
    dim4_per_round: int = 4
    identity_grid: int = 32
    assoc_max_n: int = 8
    pow_grid: int = 16
    sym_max_n: int = 8


FULL = Sizes()

# Seconds-scale sizes for the benchmark's own tests.
TINY = replace(
    FULL, setup_reps=1, setup_seconds=0.0, census_pairs=3, search_every=2,
    census_large=(29, (3, 0, 5, 1, 7)), stream_instance=(17, (8, 7, 1, 1, 2)),
    search_trials=20, min_search_trials=100, stream_bytes=4096,
    stream_samples=20_000, warmup_sessions=20, min_sessions=50,
    sessions_per_round=10, recoveries_per_round=1, sessions_per_mark=5,
    local_per_round=5,
    dip_instance=(101, (50, 49, 1, 1, 2)), dip_exponents=(2000, 4000),
    instance_pool=8, dim3_per_round=2, dim4_per_round=1, identity_grid=8,
    assoc_max_n=5, pow_grid=4, sym_max_n=4)

# Published reference values the census checks hold runs to (C07-C09):
# (p, params) -> [("share", period, percent, tolerance) under any measure,
#                 ("walks", period, count, tolerance)].
CENSUS_ANCHORS = {
    (23, (9, 19, 1, 1, 2)): [("share", 528, 33.0, 4.0)],
    (23, (6, 1, 1, 1, 2)): [("share", 22, 89.0, 4.0)],
    (61, (31, 30, 1, 1, 2)): [("walks", 3720, 31, 3), ("share", 60, 85.0, 5.0)],
}
# C11: this search must find at least one period-(p^2 - 1) orbit.
SEARCH_ANCHORS = {(61, (31, 30, 1, 1, 2), 122): 1}
NEAR_MAX = 0.99
MAX_DEVIATION = 0.02


@dataclass
class Figure:
    """One timed end-to-end figure.

    `ms` is the value the driver gates under `slot` (None: reported
    only); `value` is the figure as measured, in `unit`, under its own
    name.
    """
    slot: str | None
    ms: float
    name: str
    unit: str
    value: float
    samples: int


def _calibration_items():
    x = 1
    for i in range(20000):
        x = (x * 31 + 7) % 1000003
        yield x % 61, i % 64


def calibration_loop() -> list[int]:
    """Fixed pure-Python work of the kind the program's loops do: a
    generator of small-int tuples feeding list counters."""
    counts = [0] * 64
    for a, b in _calibration_items():
        counts[a] += 1
        counts[b] += 1
    return counts


# Calibration loop time the interpreter-bound figures are scaled to.
REFERENCE_LOOP_S = 0.005


class Clock:
    """Times of operations, and of a calibration loop run between them.

    Gated figures are the benchmark process's CPU time per operation,
    which time the process spends descheduled does not inflate.  Shared
    machines also change the speed of interpreted code by tens of
    percent over seconds.  The calibration loop slows with it, so an
    interpreter-bound operation's CPU seconds divided by the median loop
    CPU time around it, times REFERENCE_LOOP_S, cancel most of that
    drift.  "Around" is the operation's interval widened by 0.3 s on
    each side.  The numpy-bound censuses do not follow the loop and are
    left uncalibrated.  A change to mlmagma does not touch the loop, so
    it shows in full either way.
    """

    def __init__(self):
        # (midpoint, wall seconds, CPU seconds)
        self.marks: list[tuple[float, float, float]] = []

    def mark(self) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        calibration_loop()
        t1, c1 = time.perf_counter(), time.process_time()
        self.marks.append(((t0 + t1) / 2, t1 - t0, c1 - c0))

    def scale(self, start: float, seconds: float) -> float:
        near = [m[2] for m in self.marks
                if start - 0.3 <= m[0] <= start + seconds + 0.3]
        if len(near) < 2:
            mid = start + seconds / 2
            near = [m[2] for m in
                    sorted(self.marks, key=lambda m: abs(m[0] - mid))[:2]]
        return REFERENCE_LOOP_S / statistics.median(near)

    def figure(self, slot, name, unit, groups, named, per=1,
               stat=statistics.median, calibrated=True) -> Figure:
        """Figure over groups of (start, wall seconds, CPU seconds) samples.

        A group's time is its samples' sum divided by `per`; groups with
        a failed operation (None) are left out.  The gated value is CPU
        time, calibrated unless told otherwise; the named value is wall
        time.  `stat` picks each from the group times, and named(seconds)
        converts the wall time to `unit`.
        """
        groups = [g for g in groups if None not in g]
        if not groups:
            raise RuntimeError(f"no {name} operation completed")
        wall = [sum(s[1] for s in g) / per for g in groups]
        cpu = [sum(s[2] * (self.scale(s[0], s[1]) if calibrated else 1.0)
                   for s in g) / per for g in groups]
        return Figure(slot, 1000 * stat(cpu), name, unit, named(stat(wall)),
                      len(groups))


def p99(values):
    return statistics.quantiles(values, n=100)[98]


class Meter:
    """Attempted and failed operations; failures keep their reason."""
    MAX_REASONS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def verdict(self, what: str, problem) -> bool:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.reasons) < self.MAX_REASONS:
                self.reasons.append(f"{what}: {problem}")
        return not problem

    def call(self, what: str, fn, *args, check, **kwargs):
        """((start, wall seconds, CPU seconds), result) of one operation.

        check(result) runs untimed and returns None when the result is
        right, else the problem.  An operation (or check) that raises is
        a failure and yields (None, None).
        """
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            t1, c1 = time.perf_counter(), time.process_time()
            problem = check(out)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.verdict(what, repr(exc))
            return None, None
        self.verdict(what, problem)
        return (t0, t1 - t0, c1 - c0), out


def repeat(budget: float, min_reps: int):
    """0, 1, 2, ... until min_reps are done and budget seconds have passed."""
    start = time.perf_counter()
    i = 0
    while i < min_reps or time.perf_counter() - start < budget:
        yield i
        i += 1


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def import_probe() -> None:
    """Start a fresh interpreter that imports the whole package."""
    # no timeout: a timed wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import mlmagma.cli"],
                   env=child_env(), stdin=subprocess.DEVNULL, check=True)


class Workload:
    tracer: Tracer | None = None   # set while a traced pass runs
    ready_s: float | None = None

    def __init__(self, sizes: Sizes, seed: int, meter: Meter):
        self.sizes = sizes
        self.meter = meter
        self.clock = Clock()
        self.rng = random.Random(f"{type(self).__name__}:{seed}")

    def count(self, name: str, n=1) -> None:
        if self.tracer is not None:
            self.tracer.counts[name] += n

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# census

def census_problem(report, p: int, params: tuple):
    n = p**3
    if report.total_starts != n:
        return f"total_starts {report.total_starts} != p^3"
    if sum(report.start_periods.values()) != n:
        return "start periods do not sum to p^3"
    if sum(report.tail_lengths.values()) != n:
        return "tail lengths do not sum to p^3"
    if report.total_walks != sum(report.walk_periods.values()):
        return "total_walks != sum of walk periods"
    for kind, period, target, tol in CENSUS_ANCHORS.get((p, params), ()):
        if kind == "walks" and abs(report.walk_count(period) - target) > tol:
            return (f"{report.walk_count(period)} walks of period {period}, "
                    f"expected {target}+-{tol}")
        if kind == "share" and not any(
                abs(100 * report.proportion(period, m) - target) <= tol
                for m in orbit.MEASURES):
            return f"no measure puts period {period} at {target}%+-{tol}"
    return None


class Census(Workload):
    ANCHOR_PAIRS = ((9, 19), (6, 1))

    def __init__(self, sizes, seed, meter):
        super().__init__(sizes, seed, meter)
        p = 23
        m = make_modulus(p)
        others = [(a, b) for a in range(p) for b in range(p)
                  if (a, b) not in self.ANCHOR_PAIRS]
        n = sizes.census_pairs
        pairs = list(self.ANCHOR_PAIRS[:n]) + self.rng.sample(others, max(0, n - 2))
        self.rng.shuffle(pairs)
        self.small = [Params3(a, b, 1, 1, 2, m) for a, b in pairs]
        lp, lcoefs = sizes.census_large
        self.large = Params3(*lcoefs, make_modulus(lp))
        sp, scoefs = sizes.search_instance
        self.search = Params3(*scoefs, make_modulus(sp))

    def _scan(self, ps):
        p, params = ps.modulus.p, tuple(ps.coefficients)
        return self.meter.call(
            f"census p={p} {params}", orbit.scan_space, ps,
            check=lambda r: census_problem(r, p, params))

    def _search_problem(self, found):
        ps, budget = self.search, self.sizes.search_budget
        p = ps.modulus.p
        if any(rec.period != p * p - 1 for rec in found):
            return "a reported orbit is not of period p^2 - 1"
        need = SEARCH_ANCHORS.get((p, tuple(ps.coefficients), budget), 0)
        if len(found) < need:
            return f"{len(found)} maximal orbits found, expected >= {need}"
        return None

    def _search(self):
        sample, _ = self.meter.call(
            "heuristic_search", orbit.heuristic_search, self.search,
            budget=self.sizes.search_budget, check=self._search_problem)
        return sample

    def measure(self, seconds: float) -> list[Figure]:
        """Rounds of: half the p=23 set, the large census, the other half,
        and a search after every `search_every` small censuses, so that
        every figure samples the whole run."""
        batches, searches, large = [], [], []
        every = self.sizes.search_every
        clock = self.clock
        for _ in repeat(seconds, 1):
            batch = []
            for j, ps in enumerate(self.small):
                clock.mark()
                if j == len(self.small) // 2:
                    large.append([self._scan(self.large)[0]])
                    clock.mark()
                batch.append(self._scan(ps)[0])
                if j % every == every - 1:
                    searches.append([self._search()])
            batches.append(batch)
        clock.mark()
        budget = self.sizes.search_budget
        return [
            clock.figure("op1_ms", "census.p23_per_s", "1/s", batches,
                         lambda s: 1 / s, per=len(self.small), calibrated=False),
            clock.figure("op2_ms", "census.p61_s", "s", large, lambda s: s,
                         calibrated=False),
            clock.figure("op3_ms", "census.search_starts_per_s", "1/s", searches,
                         lambda s: budget / s),
        ]


# ---------------------------------------------------------------------------
# stream

class Stream(Workload):
    PATTERNS = ((0, 1), (0, 0, 0, 1, 2))

    def __init__(self, sizes, seed, meter):
        super().__init__(sizes, seed, meter)
        p, coefs = sizes.stream_instance
        self.ps = Params3(*coefs, make_modulus(p))

    def _bytes_problem(self, out, config, reference: dict):
        if len(out) != self.sizes.stream_bytes:
            return f"{len(out)} bytes, asked for {self.sizes.stream_bytes}"
        if reference.setdefault(config, out) != out:
            return "byte stream differs between calls on one config"
        return None

    def _uniformity_problem(self, rep):
        if any(sum(c) != self.sizes.stream_samples for c in rep.counts):
            return "component counts do not sum to the sample count"
        if rep.max_relative_deviation >= MAX_DEVIATION:
            return f"max relative deviation {rep.max_relative_deviation:.4f}"
        return None

    def measure(self, seconds: float) -> list[Figure]:
        """Rounds of one seed_search call per pattern, then one byte_stream
        and one uniformity_stats call on the best (0, 1) config found so
        far, once that config is near-maximal."""
        sz = self.sizes
        p = self.ps.modulus.p
        spaces = {pattern: p**3 * len(pattern) for pattern in self.PATTERNS}
        best = {}
        reference = {}
        searches, streams, uniforms = [], [], []
        clock = self.clock
        for _ in repeat(seconds, -(-sz.min_search_trials // sz.search_trials)):
            pair = []
            for pattern in self.PATTERNS:
                space = spaces[pattern]
                clock.mark()
                sample, hits = self.meter.call(
                    f"seed_search {pattern}", prng.seed_search, self.ps,
                    pattern, sz.search_trials,
                    rng_seed=self.rng.randrange(2**32), keep=1,
                    check=lambda h: None if h and 0 < h[0].period <= space
                    else f"best period outside (0, {space}]")
                pair.append(sample)
                if sample is not None and (pattern not in best or
                                           hits[0].period > best[pattern].period):
                    best[pattern] = hits[0]
            searches.append(pair)
            hit = best.get(self.PATTERNS[0])
            if hit is None or hit.period < NEAR_MAX * spaces[self.PATTERNS[0]]:
                continue
            clock.mark()
            streams.append([self.meter.call(
                "byte_stream", prng.byte_stream, hit.config, sz.stream_bytes,
                check=lambda out: self._bytes_problem(out, hit.config,
                                                      reference))[0]])
            clock.mark()
            uniforms.append([self.meter.call(
                "uniformity_stats", prng.uniformity_stats, hit.config,
                sz.stream_samples, check=self._uniformity_problem)[0]])
        clock.mark()
        for pattern in self.PATTERNS:
            period = best[pattern].period if pattern in best else 0
            self.meter.verdict(
                f"best period for {pattern}",
                None if period >= NEAR_MAX * spaces[pattern]
                else f"{period} < {NEAR_MAX} * {spaces[pattern]}")
        return [
            clock.figure("op1_ms", "stream.search_trials_per_s", "1/s", searches,
                         lambda s: 1 / s,
                         per=len(self.PATTERNS) * sz.search_trials,
                         stat=statistics.fmean),
            clock.figure("op2_ms", "stream.bytes_per_s", "B/s", streams,
                         lambda s: sz.stream_bytes / s),
            clock.figure("op3_ms", "stream.outputs_per_s", "1/s", uniforms,
                         lambda s: sz.stream_samples / s),
        ]


# ---------------------------------------------------------------------------
# exchange

def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


class Responder:
    """A `python -m mlmagma kx listen --port 0` process and its output."""

    def __init__(self, pub, bits: int, timeout: float = 60.0):
        comps = ",".join(str(c) for c in pub.base.components)
        coefs = ",".join(str(c) for c in pub.params.coefficients)
        cmd = [sys.executable, "-u", "-m", "mlmagma", "kx", "listen",
               "--port", "0", "--p", str(pub.modulus.p), "--params", coefs,
               "--base", comps, "--bits", str(bits)]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=child_env(), text=True,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self.lines: queue.Queue = queue.Queue()
        errors: queue.Queue = queue.Queue()
        self.threads = [
            threading.Thread(target=_pump, args=(self.proc.stdout, self.lines)),
            threading.Thread(target=_pump, args=(self.proc.stderr, errors)),
        ]
        for t in self.threads:
            t.start()
        try:
            first = errors.get(timeout=timeout)
        except queue.Empty:
            first = None
        match = re.match(r"listening on (\S+):(\d+)", first or "")
        if not match:
            self.close()
            raise RuntimeError(f"responder did not start listening: {first!r}")
        self.ready_s = time.perf_counter() - t0
        self.host, self.port = match.group(1), int(match.group(2))

    def record_for(self, public, timeout: float = 10.0):
        """The responder's JSON line for the session with this initiator public.

        Lines of sessions that failed on the initiator side are skipped.
        """
        want = list(public.components)
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                return None
            if line is None:
                return None
            rec = json.loads(line)
            if rec.get("peer_public") == want:
                return rec

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for t in self.threads:
            t.join(timeout=10)


class Exchange(Workload):
    def __init__(self, sizes, seed, meter):
        super().__init__(sizes, seed, meter)
        m = make_modulus(sizes.kx_p)
        p = sizes.kx_p
        coefs = [self.rng.randrange(p) for _ in range(5)]
        base = identity(3, m)
        while base == identity(3, m):
            base = Vector3(*(self.rng.randrange(p) for _ in range(3)), m)
        self.pub = kx.KxPublicParams(Params3(*coefs, m), base)
        dp, dcoefs = sizes.dip_instance
        self.dip_ps = Params3(*dcoefs, make_modulus(dp))
        lo, hi = sizes.dip_exponents
        # every planted exponent must stay below the base's period, and
        # the longest possible period is p^2 - 1
        if hi + 64 > dp * dp - 1:
            raise ValueError("planted exponents must stay below p^2 - 1")
        self.dip_base = dip.find_long_period_base(self.dip_ps, min_period=hi + 64)
        if self.dip_base is None:
            raise RuntimeError("no long-period DIP base found")
        self.responder = Responder(self.pub, sizes.kx_bits)
        self.ready_s = self.responder.ready_s
        self.warm = False

    def close(self) -> None:
        self.responder.close()

    def _session_problem(self, res):
        rec = self.responder.record_for(res.keypair.public)
        if rec is None:
            problem = "no responder record for this session"
        elif rec["shared"] != list(res.shared.components):
            problem = "initiator and responder derived different keys"
        else:
            problem = None
            self.count("kx.sessions")
            sent = (kx.encode_message(kx.announce_for(self.pub))
                    + kx.encode_message(kx.public_message(res.keypair.public)))
            self.count("kx.bytes_sent", len(sent))
            self.count("kx.bytes_received",
                       len(kx.encode_message(kx.public_message(res.peer_public))))
        if problem:
            self.count("kx.sessions_failed")
        return problem

    def _session(self):
        sample, _ = self.meter.call(
            "session", kx.connect, self.responder.host, self.responder.port,
            self.pub, self.sizes.kx_bits, check=self._session_problem)
        if sample is None:
            self.count("kx.sessions_failed")
        return sample

    def measure(self, seconds: float) -> list[Figure]:
        """Rounds of `sessions_per_round` sessions, `local_per_round`
        in-process exchanges and `recoveries_per_round` recoveries."""
        sz = self.sizes
        if not self.warm:
            for _ in range(sz.warmup_sessions):
                self._session()
            self.warm = True
        latencies, local, recoveries = [], [], []
        lo, hi = sz.dip_exponents
        clock = self.clock
        for _ in repeat(seconds, -(-sz.min_sessions // sz.sessions_per_round)):
            for k in range(sz.sessions_per_round):
                if k % sz.sessions_per_mark == 0:
                    clock.mark()
                latencies.append([self._session()])
            clock.mark()
            for _ in range(sz.local_per_round):
                local.append([self.meter.call(
                    "local exchange", kx.run_local_exchange, self.pub,
                    sz.kx_bits, check=lambda ex: None if ex.match
                    else "the two sides derived different keys")[0]])
            clock.mark()
            for _ in range(sz.recoveries_per_round):
                n = self.rng.randrange(lo, hi)
                target = power.pow_fast(self.dip_base, n, self.dip_ps)
                inst = dip.DipInstance(self.dip_base, target, self.dip_ps,
                                       cap=hi + 64)
                recoveries.append([self.meter.call(
                    "dip_bruteforce", dip.dip_bruteforce, inst,
                    check=lambda r: self._recovery_problem(r, n))[0]])
                clock.mark()
        clock.mark()
        return [
            clock.figure("op1_ms", "exchange.session_p50_ms", "ms", latencies,
                         lambda s: 1000 * s),
            clock.figure("op2_ms", "exchange.local_exchanges_per_s", "1/s", local,
                         lambda s: 1 / s),
            clock.figure(None, "exchange.session_p99_ms", "ms", latencies,
                         lambda s: 1000 * s, stat=p99, calibrated=False),
            clock.figure("op3_ms", "exchange.recoveries_per_s", "1/s", recoveries,
                         lambda s: 1 / s),
        ]

    def _recovery_problem(self, res, planted: int):
        if res.exponent != planted:
            return f"planted {planted}, recovered {res.exponent}"
        self.count("dip.recovered")
        return None


# ---------------------------------------------------------------------------
# algebra

class Algebra(Workload):
    def __init__(self, sizes, seed, meter):
        super().__init__(sizes, seed, meter)
        rng = self.rng
        self.pool = {3: [], 4: []}
        for dim, vec, par, ncoef in ((3, Vector3, Params3, 5),
                                     (4, Vector4, Params4, 9)):
            for _ in range(sizes.instance_pool):
                p = rng.choice(sizes.algebra_primes)
                m = make_modulus(p)
                self.pool[dim].append((
                    vec(*(rng.randrange(p) for _ in range(dim)), m),
                    par(*(rng.randrange(p) for _ in range(ncoef)), m)))
        self.points = []
        for _ in range(sizes.instance_pool):
            p = rng.choice(sizes.algebra_primes)
            self.points.append(
                (p, {v: rng.randrange(p) for v in symbolic.VARIABLES}))

    def _laws(self, a, ps) -> list[str]:
        """The laws that fail on (a, ps): power identity and associativity
        checkers, and (a^m)^n = a^(mn) by pow_fast against one power sweep."""
        sz = self.sizes
        failed = []
        grid = sz.identity_grid
        if not power.check_power_identity(a, ps, grid, grid)[0]:
            failed.append("power identity")
        if not power.check_power_associativity(a, ps, sz.assoc_max_n)[0]:
            failed.append("power associativity")
        k = sz.pow_grid
        pows = power.powers_upto(a, k * k, ps)
        if any(power.pow_fast(pows[m - 1], n, ps) != pows[m * n - 1]
               for m in range(1, k + 1) for n in range(1, k + 1)):
            failed.append("(a^m)^n = a^(mn)")
        return failed

    def _instance(self, dim: int, i: int):
        a, ps = self.pool[dim][i % len(self.pool[dim])]
        return self.meter.call(f"laws dim {dim}", self._laws, a, ps,
                               check=lambda bad: ", ".join(bad) or None)[0]

    def _sym_problem(self, polys, point):
        p, vals = point
        m = make_modulus(p)
        a = Vector3(vals["a0"], vals["a1"], vals["a2"], m)
        ps = Params3(*(vals[c] for c in "ABCDE"), m)
        for n, v in enumerate(polys, 1):
            if v.evaluate(vals, p) != power.pow_iter(a, n, ps).components:
                return f"sym_pow({n}) disagrees with pow_iter at p={p}"
        return None

    def _sym_set(self):
        return [symbolic.sym_pow(n) for n in range(1, self.sizes.sym_max_n + 1)]

    def measure(self, seconds: float) -> list[Figure]:
        """Rounds of `dim3_per_round` dim-3 instances, `dim4_per_round`
        dim-4 instances and one sym_pow(1..8) set."""
        sz = self.sizes
        dim3, dim4, sym = [], [], []
        clock = self.clock
        for r in repeat(seconds, 1):
            clock.mark()
            for k in range(sz.dim3_per_round):
                dim3.append([self._instance(3, r * sz.dim3_per_round + k)])
            for k in range(sz.dim4_per_round):
                dim4.append([self._instance(4, r * sz.dim4_per_round + k)])
            point = self.points[r % len(self.points)]
            sym.append([self.meter.call(
                "sym_pow set", self._sym_set,
                check=lambda polys: self._sym_problem(polys, point))[0]])
        clock.mark()
        return [
            clock.figure("op1_ms", "algebra.dim3_checks_per_s", "1/s", dim3,
                         lambda s: 1 / s),
            clock.figure("op2_ms", "algebra.dim4_checks_per_s", "1/s", dim4,
                         lambda s: 1 / s),
            clock.figure("op3_ms", "algebra.sym_expansions_per_s", "1/s", sym,
                         lambda s: 1 / s),
        ]


WORKLOADS = {"census": Census, "stream": Stream, "exchange": Exchange,
             "algebra": Algebra}


# ---------------------------------------------------------------------------
# tracing

def _count_scan(counts, report, args, kwargs):
    counts["orbit.scan_space.starts"] += report.total_starts


def _count_search(counts, found, args, kwargs):
    counts["orbit.heuristic_search.hits"] += len(found)
    counts["orbit.heuristic_search.starts"] += kwargs["budget"]


def _count_period(counts, period, args, kwargs):
    if period is not None and period >= NEAR_MAX * args[0].state_space:
        counts["prng.composite_period.near_max"] += 1


def _count_bytes(counts, out, args, kwargs):
    counts["prng.byte_stream.bytes"] += len(out)


def _count_samples(counts, rep, args, kwargs):
    counts["prng.uniformity_stats.samples"] += rep.samples


def _count_dip(counts, res, args, kwargs):
    counts["dip.dip_bruteforce.steps"] += res.steps
    counts["magma.stepper.steps"] += res.steps


def _count_terms(counts, polys, args, kwargs):
    counts["symbolic.sym_pow.terms"] += sum(len(c.terms) for c in polys)


# (module, attribute, span name, count).  Functions reached only through
# another module are wrapped where that module looks them up: find_cycle
# in prng, mul in power, pow_fast in kx, orbit_length in dip.
TRACE_PLAN = (
    (orbit, "scan_space", "orbit.scan_space", _count_scan),
    (orbit, "heuristic_search", "orbit.heuristic_search", _count_search),
    (orbit, "orbit_length", "orbit.orbit_length", None),
    (dip, "orbit_length", "orbit.orbit_length", None),
    (prng, "find_cycle", "cycles.find_cycle", None),
    (prng, "seed_search", "prng.seed_search", None),
    (prng, "composite_period", "prng.composite_period", _count_period),
    (prng, "byte_stream", "prng.byte_stream", _count_bytes),
    (prng, "uniformity_stats", "prng.uniformity_stats", _count_samples),
    (prng, "iter_outputs", "magma.stepper.steps", "yields"),
    (power, "mul", "magma.mul", None),
    (power, "pow_fast", "power.pow_fast", None),
    (power, "pow_iter", "power.pow_iter", None),
    (power, "powers_upto", "power.powers_upto", None),
    (power, "check_power_identity", "power.check_power_identity", None),
    (power, "check_power_associativity", "power.check_power_associativity", None),
    (kx, "pow_fast", "power.pow_fast", None),
    (kx, "keygen", "kx.keygen", None),
    (kx, "derive_shared", "kx.derive_shared", None),
    (kx, "connect", "kx.connect", None),
    (symbolic, "sym_pow", "symbolic.sym_pow", _count_terms),
    (dip, "dip_bruteforce", "dip.dip_bruteforce", _count_dip),
    (dip, "find_long_period_base", "dip.find_long_period_base", None),
)

# (name, unit, better).  `<module>.<function>.calls` counts calls and
# `.self_s` is the mean self time per call; the rest are counts and
# ratios that the calls' results carry.
PER_LAYER = (
    ("orbit.scan_space.calls", "count", "higher"),
    ("orbit.scan_space.self_s", "s", "lower"),
    ("orbit.scan_space.starts", "count", "higher"),
    ("orbit.orbit_length.calls", "count", "higher"),
    ("orbit.orbit_length.self_s", "s", "lower"),
    ("orbit.heuristic_search.hit_ratio", "ratio", "higher"),
    ("cycles.find_cycle.calls", "count", "higher"),
    ("cycles.find_cycle.self_s", "s", "lower"),
    ("prng.seed_search.self_s", "s", "lower"),
    ("prng.composite_period.calls", "count", "higher"),
    ("prng.composite_period.self_s", "s", "lower"),
    ("prng.seed_search.near_max_ratio", "ratio", "higher"),
    ("prng.byte_stream.self_s", "s", "lower"),
    ("prng.byte_stream.bytes", "B", "higher"),
    ("prng.uniformity_stats.self_s", "s", "lower"),
    ("prng.uniformity_stats.samples", "count", "higher"),
    ("magma.mul.calls", "count", "higher"),
    ("magma.mul.self_s", "s", "lower"),
    ("magma.stepper.steps", "count", "higher"),
    ("power.pow_fast.calls", "count", "higher"),
    ("power.pow_fast.self_s", "s", "lower"),
    ("power.check_power_identity.self_s", "s", "lower"),
    ("power.check_power_associativity.self_s", "s", "lower"),
    ("symbolic.sym_pow.self_s", "s", "lower"),
    ("symbolic.sym_pow.terms", "count", "higher"),
    ("dip.dip_bruteforce.calls", "count", "higher"),
    ("dip.dip_bruteforce.self_s", "s", "lower"),
    ("dip.dip_bruteforce.steps", "count", "higher"),
    ("dip.recovered_ratio", "ratio", "higher"),
    ("dip.find_long_period_base.self_s", "s", "lower"),
    ("kx.keygen.self_s", "s", "lower"),
    ("kx.derive_shared.self_s", "s", "lower"),
    ("kx.connect.self_s", "s", "lower"),
    ("kx.bytes_sent", "B", "lower"),
    ("kx.bytes_received", "B", "lower"),
    ("kx.sessions_failed", "count", "lower"),
    ("cli.kx_listen.ready_s", "s", "lower"),
    ("overhead.setup_s", "s", "lower"),
    ("overhead.op1_ms", "ms", "lower"),
    ("overhead.op2_ms", "ms", "lower"),
    ("overhead.op3_ms", "ms", "lower"),
)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("op1_ms", "ms", "lower"),
    ("op2_ms", "ms", "lower"),
    ("op3_ms", "ms", "lower"),
)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer_values(tracer: Tracer, ready_s: float, overhead: dict) -> dict:
    counts, calls = tracer.counts, tracer.calls
    special = {
        "orbit.heuristic_search.hit_ratio": _ratio(
            counts["orbit.heuristic_search.hits"],
            counts["orbit.heuristic_search.starts"]),
        "prng.seed_search.near_max_ratio": _ratio(
            counts["prng.composite_period.near_max"],
            calls["prng.composite_period"]),
        "dip.recovered_ratio": _ratio(counts["dip.recovered"],
                                      calls["dip.dip_bruteforce"]),
        "kx.bytes_sent": _ratio(counts["kx.bytes_sent"], counts["kx.sessions"]),
        "kx.bytes_received": _ratio(counts["kx.bytes_received"],
                                    counts["kx.sessions"]),
        "cli.kx_listen.ready_s": ready_s,
        **overhead,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = calls[name.removesuffix(".calls")]
        elif name.endswith(".self_s"):
            out[name] = tracer.mean_self_s(name.removesuffix(".self_s"))
        else:
            out[name] = counts[name]
    return out


# ---------------------------------------------------------------------------
# one run

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _set_up(cls, sizes: Sizes, seed: int, meter: Meter):
    t0 = time.perf_counter()
    import_probe()
    wl = cls(sizes, seed, meter)
    return wl, time.perf_counter() - t0


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL) -> dict:
    """Set up, measure and check one workload.

    Untraced runs report the end-to-end metrics.  Traced runs set up
    once more with tracing on, measure half the seconds untraced and the
    other half traced, and report the per-layer metrics together with
    the traced-minus-untraced overhead of each end-to-end figure.
    """
    cls = WORKLOADS[name]
    meter = Meter()
    setup_times, ready = [], []
    wl = None
    record: dict = {}
    try:
        for _ in repeat(sizes.setup_seconds, sizes.setup_reps):
            if wl is not None:
                wl.close()
                wl = None
            wl, took = _set_up(cls, sizes, seed, meter)
            setup_times.append(took)
            ready.append(wl.ready_s)
        setup_s = statistics.median(setup_times)
        if not trace:
            figures = wl.measure(seconds)
            metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
                       **{f.slot: f.ms for f in figures if f.slot}}
        else:
            tracer = Tracer()
            wl.close()
            wl = None
            with tracer.installed(TRACE_PLAN):
                wl, traced_setup = _set_up(cls, sizes, seed, meter)
            ready.append(wl.ready_s)
            plain = wl.measure(seconds / 2)
            wl.tracer = tracer
            with tracer.installed(TRACE_PLAN):
                figures = wl.measure(seconds / 2)
            overhead = {"overhead.setup_s": traced_setup - setup_s}
            for before, after in zip(plain, figures):
                if after.slot:
                    overhead[f"overhead.{after.slot}"] = after.ms - before.ms
            ready_s = statistics.median(ready) if ready[0] is not None else 0.0
            metrics = per_layer_values(tracer, ready_s, overhead)
            record["trace"] = tracer.to_dict()
            record["untraced_figures"] = [vars(f) for f in plain]
    finally:
        if wl is not None:
            wl.close()
    record.update(
        figures=[vars(f) for f in figures], setup_times=setup_times,
        attempted=meter.attempted, failed=meter.failed, reasons=meter.reasons)
    record["metrics"] = metrics
    return record
