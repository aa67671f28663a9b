"""Phase ``serve``: an open-loop generator against an in-process server.

Requests arrive on a fixed schedule (constant spacing and a fixed
cycle of shapes, so the seed moves the matrices but not the arrival
pattern or the work) over two connections: the nominal 12 req/s in
slices spread over the run, then a climb up a ladder of rates until a
rung misses the p90 limit twice.  Every latency is measured from the
request's scheduled send time, so a stall in the generator or the
server charges every request it delays.  The wire format is plain
NDJSON written here, not the package's client.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.harness import (
    LATENCY_LIMIT_MS, Outcome, Rung, backlog_growing, max_rate, median,
    percentile,
)

#: Nominal load: about half the knee (``serve.max_rps``) of the
#: reference machine's slow spells.  At 20 req/s, when the host slowed
#: by 1.7x for tens of minutes, the server ran at about 90% utilisation
#: and p90 swung between 55 and 480 ms from run to run.
NOMINAL_RATE = 12.0

#: Engine-tier shapes: the mix of the package's own load generator.
#: Three cost about the same and 24x24 about twice as much, so p50
#: falls inside the cheap class and p90 inside the dear one.  In a mix
#: of all nine pairs of 16, 24 and 32, the dearest shape (32x32) is 11%
#: of the traffic, so p90 sits on the edge between two service classes
#: and jumps between them from run to run.
SHAPES = ((16, 16), (24, 24), (32, 16), (16, 32))
TENANTS = ("alpha", "beta", "gamma")

#: Matrix seeds per shape (answers are checked against references).
SEEDS_PER_SHAPE = 4

#: A run whose generator sends later than this is invalid.  A late
#: send is still timed from its due time, so lag below the latency
#: limit only costs the run some offered load.
MAX_GEN_LAG_MS = LATENCY_LIMIT_MS

#: Ladder rates, climbed from the bottom in rungs of ``RUNG_S``
#: seconds (at least 56 requests); the nominal rate is the rung below
#: them.  Steps of about 15-20% keep the knee from snapping between two
#: widely spaced rungs.
LADDER = (28.0, 32.0, 37.0, 42.0, 48.0, 55.0, 64.0)
RUNG_S = 2.0
RUNG_TRIES = 2

#: Nominal-rate seconds per ``--seconds`` of the run, and the fewest
#: nominal requests: p90 then rests on at least 19 requests above it.
NOMINAL_S_PER_S = 3.0
NOMINAL_MIN = 192

CONNECTIONS = 2

#: Seconds between the last connection opening and the first due send.
SCHEDULE_LEAD_S = 0.005

#: The nominal segment is replayed in slices of this many requests
#: (1.33 s each, one shape cycle), spread over the run between other
#: phases' work.
NOMINAL_SLICE = len(SHAPES) ** 2


@dataclass
class Segment:
    rate: float
    docs: List[Dict]


@dataclass
class Sent:
    doc: Dict
    due: float
    sent: float = 0.0
    received: float = 0.0
    response: Optional[Dict] = None

    @property
    def latency_ms(self) -> float:
        return (self.received - self.due) * 1e3


@dataclass
class ServeInputs:
    nominal: Segment
    ladder: List[Segment]


def nominal_count(seconds: float) -> int:
    """Nominal requests for a run of ``seconds``, in whole slices."""
    count = max(NOMINAL_MIN, int(NOMINAL_RATE * NOMINAL_S_PER_S * seconds))
    return -(-count // NOMINAL_SLICE) * NOMINAL_SLICE


def shape_cycle() -> List[Tuple[int, int]]:
    """Every shape, in a cycle that holds each ordered pair of shapes
    exactly once (a de Bruijn sequence of order 2).

    Which shape queues behind which then repeats every cycle, whatever
    the seed; with shuffled shapes the seed alone moved the nominal
    percentiles by about 15% on the reference machine.
    """
    k = len(SHAPES)
    word = [0] * 3
    order: List[int] = []

    def extend(t: int, p: int) -> None:
        if t > 2:
            if 2 % p == 0:
                order.extend(word[1:p + 1])
            return
        word[t] = word[t - p]
        extend(t + 1, p)
        for j in range(word[t - p] + 1, k):
            word[t] = j
            extend(t + 1, t)

    extend(1, 1)
    return [SHAPES[i] for i in order]


def make_inputs(seed: int, seconds: float) -> ServeInputs:
    """The request schedule, from ``seed`` and the run length alone.

    Shapes follow :func:`shape_cycle` from a seeded starting point, so
    every stretch of the schedule carries the same mix of work and the
    seed moves which matrices arrive, not how much work they are.
    """
    rng = np.random.default_rng([seed, 2])
    pool = {shape: [int(s) for s in rng.integers(0, 1 << 30, SEEDS_PER_SHAPE)]
            for shape in SHAPES}
    cycle = shape_cycle()
    counter = [int(rng.integers(len(cycle)))]

    def docs(count: int) -> List[Dict]:
        out = []
        for _ in range(count):
            index = counter[0]
            counter[0] += 1
            shape = cycle[index % len(cycle)]
            matrix_seed = pool[shape][int(rng.integers(SEEDS_PER_SHAPE))]
            out.append({
                "op": "decompose", "id": f"q{index}",
                "tenant": TENANTS[index % len(TENANTS)],
                "shape": list(shape), "seed": matrix_seed,
            })
        return out

    nominal = Segment(NOMINAL_RATE, docs(nominal_count(seconds)))
    ladder = [Segment(rate, docs(int(rate * RUNG_S))) for rate in LADDER]
    return ServeInputs(nominal, ladder)


async def _lane(reader, writer, entries: List[Sent],
                timeout_s: float) -> None:
    by_id = {entry.doc["id"]: entry for entry in entries}

    async def read_all() -> None:
        pending = len(entries)
        while pending:
            line = await reader.readline()
            if not line:
                return
            doc = json.loads(line)
            entry = by_id.get(doc.get("id"))
            if entry is not None and entry.response is None:
                entry.received = time.perf_counter()
                entry.response = doc
                pending -= 1

    reading = asyncio.ensure_future(read_all())
    try:
        for entry in entries:
            delay = entry.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            entry.sent = time.perf_counter()
            writer.write((json.dumps(entry.doc) + "\n").encode())
            await writer.drain()
        await asyncio.wait_for(reading, timeout_s)
    except asyncio.TimeoutError:
        pass  # unanswered entries count as failed
    finally:
        if not reading.done():
            reading.cancel()
            try:
                await reading
            except asyncio.CancelledError:
                pass
        writer.close()
        await writer.wait_closed()


def drive(address: Tuple[str, int], segment: Segment) -> List[Sent]:
    """Replay one segment open-loop; returns entries in schedule order.

    The schedule starts once every connection is open, so connection
    set-up, which a slow host stretches past any fixed lead, is not
    charged to the first requests.
    """
    entries = [Sent(doc, 0.0) for doc in segment.docs]
    lanes = [entries[k::CONNECTIONS] for k in range(CONNECTIONS)]
    timeout_s = 30.0 + len(entries) / segment.rate

    async def main() -> None:
        streams = [await asyncio.open_connection(*address, limit=1 << 24)
                   for _ in lanes]
        start = time.perf_counter() + SCHEDULE_LEAD_S
        for i, entry in enumerate(entries):
            entry.due = start + i / segment.rate
        await asyncio.gather(*(_lane(reader, writer, lane, timeout_s)
                               for (reader, writer), lane
                               in zip(streams, lanes)))

    asyncio.run(main())
    return entries


def wire_op(address: Tuple[str, int], op: str) -> Dict:
    """One management request (``stats``, ``ping``) over a fresh socket."""

    async def main() -> Dict:
        reader, writer = await asyncio.open_connection(*address)
        writer.write((json.dumps({"op": op, "id": op}) + "\n").encode())
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), 30.0)
        writer.close()
        await writer.wait_closed()
        return json.loads(line)

    return asyncio.run(main())


def run(inputs: ServeInputs, address, rec, outcome: Outcome):
    """Nominal slices, then the ladder climb.

    A generator: it yields after every slice and rung and returns the
    end-to-end metrics, the layer metrics and the check to run outside
    the timed windows.
    """
    docs = inputs.nominal.docs
    slices: List[List[Sent]] = []
    for start in range(0, len(docs), NOMINAL_SLICE):
        piece = Segment(inputs.nominal.rate, docs[start:start + NOMINAL_SLICE])
        with rec.span("other", "bench.serve_nominal"):
            slices.append(drive(address, piece))
        yield
    nominal = [e for piece in slices for e in piece]
    every = list(nominal)
    rungs = [_rung(inputs.nominal.rate, nominal)]
    for segment in inputs.ladder:
        if not rungs[-1].meets():
            break
        # A rung that misses runs once more, in a later slice: a
        # contention burst of a second or two on the host can sink one
        # rung, and the first miss ends the climb.
        for _ in range(RUNG_TRIES):
            with rec.span("other", "bench.serve_rung"):
                entries = drive(address, segment)
            every += entries
            rung = _rung(segment.rate, entries)
            yield
            if rung.meets():
                break
        rungs.append(rung)
    stats = wire_op(address, "stats").get("stats", {})

    answered = [e for e in nominal if e.response is not None]
    # A request left unanswered misses every latency limit.
    latencies = [e.latency_ms if e.response is not None else float("inf")
                 for e in nominal]
    degraded = sum(bool(e.response.get("degraded")) for e in answered)
    lag = max((e.sent - e.due) * 1e3 for e in every)
    ok = [e for e in answered if e.response.get("ok")]
    layer = {
        "serve.p50_ms": percentile(latencies, 50.0),
        "serve.p90_ms": percentile(latencies, 90.0),
        "serve.max_rps": max_rate(rungs),
        "serve.gen_lag_ms_max": lag,
        "serve.degraded_rate": degraded / max(1, len(answered)),
        "serve.queue_ms_p50": median(
            [e.response["queue_s"] * 1e3 for e in ok] or [0.0]),
        "serve.service_ms_p50": median(
            [e.response["service_s"] * 1e3 for e in ok] or [0.0]),
        "serve.overhead_ms_p50": median(
            [e.latency_ms - 1e3 * (e.response["queue_s"]
                                   + e.response["service_s"])
             for e in ok] or [0.0]),
    }
    if isinstance(stats.get("peak_queue_depth"), (int, float)):
        layer["serve.queue_depth_peak"] = float(stats["peak_queue_depth"])
    # The stats op lists a counter once it has counted: while the server
    # keeps up, nothing is shed and ``serve.shed`` is absent.
    if isinstance(stats.get("serve.requests"), int):
        layer["serve.shed"] = float(stats.get("serve.shed", 0))
    batches, tasks = stats.get("serve.batches"), stats.get(
        "serve.coalesced_tasks")
    if isinstance(batches, int) and isinstance(tasks, int) and batches:
        layer["exec.tasks_per_batch"] = tasks / batches
    return {}, layer, lambda: _check_answers(every, outcome)


def _rung(rate: float, entries: List[Sent]) -> Rung:
    latencies = [e.latency_ms if e.response is not None else float("inf")
                 for e in entries]
    return Rung(rate, percentile(latencies, 90.0),
                backlog_growing(latencies, LATENCY_LIMIT_MS))


def _check_answers(entries: List[Sent], outcome: Outcome) -> None:
    """Engine answers must equal local ``svd(block, block_width=4)``
    byte for byte, brownout answers LAPACK's; anything else fails."""
    from repro import svd
    from repro.workloads.matrices import random_matrix

    engine: Dict[Tuple, List[float]] = {}
    lapack: Dict[Tuple, List[float]] = {}
    for entry in entries:
        response = entry.response
        doc = entry.doc
        if response is None or not response.get("ok"):
            code = (response or {}).get("error", {}).get("code", "timeout")
            outcome.check(False, f"serve {doc['id']}: {code}")
            continue
        key = (tuple(doc["shape"]), doc["seed"])
        a = random_matrix(*doc["shape"], seed=doc["seed"])
        if response.get("degraded"):
            if key not in lapack:
                lapack[key] = [float(v) for v in
                               np.linalg.svd(a, compute_uv=False)]
            expected = lapack[key]
        else:
            if key not in engine:
                result = svd(a, method="block", block_width=4)
                engine[key] = [float(v) for v in result.singular_values]
            expected = engine[key]
        outcome.check(response.get("sigma") == expected,
                      f"serve {doc['id']}: sigma differs from the local "
                      f"{'LAPACK' if response.get('degraded') else 'block'}"
                      f" answer")
