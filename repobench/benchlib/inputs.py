"""Seeded inputs of the three workloads.

The seed is the benchmark's only input knob: it orders the kernels,
draws the corpus programs and lays out the serve request sequence.  The
program under test only ever sees the generated sources and requests.

Draws are stratified so that a different seed changes which programs
run but hardly how much work a run holds: every one of the manifest's
33 strata contributes a fixed quota, and within a stratum the quota is
taken one program per equal-size bin of the stratum sorted by op count.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

__all__ = ["CORPUS_QUOTA", "BIG_STRATUM", "SERVE_PROGRAMS", "SERVE_REPEATS",
           "SERVE_MIX", "FUS", "kernel_order", "corpus_draw",
           "serve_draw", "serve_requests", "relabelled"]

#: Programs per stratum (fewer when the stratum is smaller) ...
CORPUS_QUOTA = 3
#: ... plus one more from every stratum at least this large, which
#: brings the draw to 102 programs over all 33 strata.
BIG_STRATUM = 40
#: Distinct requests of one serve round (one per program) and the
#: repeats of each.
SERVE_PROGRAMS = 120
SERVE_REPEATS = 3
#: The endpoints of every five programs of neighbouring size.  Reports
#: take two shares: they carry ``program_ms.p50`` and
#: ``programs_per_s``, whose spread between seeds shrinks with their
#: number.
SERVE_MIX = ("compile", "disambiguate", "time", "report", "report")
#: The finite LIFE widths of the paper's sweep.
FUS = (1, 2, 4, 8)


def kernel_order(names: List[str], seed: int) -> List[str]:
    """The 14 kernels in a seed-dependent order."""
    order = sorted(names)
    random.Random(f"kernels:{seed}").shuffle(order)
    return order


def _stratified(bucket: List[dict], count: int,
                rng: random.Random) -> List[dict]:
    ordered = sorted(bucket, key=lambda e: (e["ops"], e["id"]))
    picked = []
    for index in range(count):
        lo = index * len(ordered) // count
        hi = (index + 1) * len(ordered) // count
        picked.append(ordered[rng.randrange(lo, hi)])
    return picked


def _by_stratum(manifest: dict) -> Dict[str, List[dict]]:
    strata: Dict[str, List[dict]] = {}
    for entry in manifest["entries"]:
        strata.setdefault(entry["stratum"], []).append(entry)
    return strata


def corpus_draw(manifest: dict, seed: int) -> List[dict]:
    """The ``corpus`` workload's programs, in run order."""
    rng = random.Random(f"corpus:{seed}")
    drawn: List[dict] = []
    for name, bucket in sorted(_by_stratum(manifest).items()):
        quota = min(len(bucket), CORPUS_QUOTA
                    + (1 if len(bucket) >= BIG_STRATUM else 0))
        drawn.extend(_stratified(bucket, quota, rng))
    rng.shuffle(drawn)
    return drawn


def serve_draw(manifest: dict, seed: int) -> List[dict]:
    """:data:`SERVE_PROGRAMS` distinct programs over all strata."""
    rng = random.Random(f"serve:{seed}")
    strata = _by_stratum(manifest)
    names = sorted(strata)
    # round-robin over the strata, each stratum's quota taken bin-wise
    quotas = {name: 0 for name in names}
    remaining = SERVE_PROGRAMS
    while remaining:
        for name in names:
            if remaining and quotas[name] < len(strata[name]):
                quotas[name] += 1
                remaining -= 1
    drawn: List[dict] = []
    for name in names:
        drawn.extend(_stratified(strata[name], quotas[name], rng))
    rng.shuffle(drawn)
    return drawn


def serve_requests(programs: List[Tuple[str, str, int]], seed: int
                   ) -> Tuple[List[Tuple[str, dict]], List[Tuple[int, bool]]]:
    """The distinct requests of one serve round and the send order.

    *programs* are ``(label, source, ops)``.  Returns ``(distinct,
    sends)``: ``distinct[i]`` is an ``(endpoint, payload)`` pair for
    program ``i`` and ``sends`` lists ``(index, relabelled)`` pairs.
    Each index first appears once, in program order; its
    :data:`SERVE_REPEATS` repeats are spread over the rest of the
    sequence, each at least two sends after the first arrival.  The last
    repeat of each request carries another label: labels are not part of
    a request's fingerprint, so it misses the rendered-response cache
    and is answered from the artifact store.

    Endpoints go to programs by :data:`SERVE_MIX`, in a seeded order per
    five programs of neighbouring size, so that every endpoint sees
    programs of every size whatever the seed.
    """
    rng = random.Random(f"requests:{seed}")
    by_size = sorted(range(len(programs)),
                     key=lambda i: (programs[i][2], programs[i][0]))
    endpoint_of: Dict[int, str] = {}
    for start in range(0, len(by_size), len(SERVE_MIX)):
        block = by_size[start:start + len(SERVE_MIX)]
        shuffled = list(SERVE_MIX)
        rng.shuffle(shuffled)
        endpoint_of.update(zip(block, shuffled))
    distinct: List[Tuple[str, dict]] = []
    for index, (label, source, _ops) in enumerate(programs):
        endpoint = endpoint_of[index]
        payload: dict = {"label": label, "source": source}
        if endpoint == "time":
            payload["kind"] = "spec" if index % 2 else "naive"
            payload["machine"] = {"fus": FUS[index % len(FUS)], "memory": 2}
        elif endpoint == "disambiguate":
            payload["kind"] = "spec"
            payload["machine"] = {"memory": 2}
        elif endpoint == "report":
            # the infinite machine, where SPEC <= NAIVE must hold
            payload["machine"] = {"fus": 0, "memory": 2}
        distinct.append((endpoint, payload))

    # a repeat becomes eligible two sends after its first arrival; each
    # step sends the next first arrival or a random eligible repeat, in
    # proportion to what is left of each
    order: List[int] = []
    pending: List[int] = []
    waiting: List[Tuple[int, int]] = []  # (eligible at send #, index)
    next_first = 0
    total = len(distinct) * (1 + SERVE_REPEATS)
    while len(order) < total:
        while waiting and waiting[0][0] <= len(order):
            pending.append(waiting.pop(0)[1])
        firsts_left = len(distinct) - next_first
        if firsts_left and (not pending or rng.random()
                            < firsts_left / (firsts_left + len(pending))):
            order.append(next_first)
            waiting.extend([(len(order) + 2, next_first)] * SERVE_REPEATS)
            next_first += 1
        elif pending:
            order.append(pending.pop(rng.randrange(len(pending))))
        else:
            # only repeats not yet eligible remain: send the earliest
            order.append(waiting.pop(0)[1])
    seen: set = set()
    sends: List[Tuple[int, bool]] = []
    for index in reversed(order):
        sends.append((index, index not in seen))
        seen.add(index)
    sends.reverse()
    return distinct, sends


def relabelled(payload: dict) -> dict:
    """*payload* under another label: the same computation."""
    return dict(payload, label=payload["label"] + "-again")
