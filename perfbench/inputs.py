"""Seeded input generators for the three workloads.

Inputs are plain data (expression strings, argv lists, identity cases), so
the library only ever sees what these functions generate, and the same seed
gives the same inputs. Each workload cycles through a fixed plan of slots
(degree, order, op kind); the seed draws the contents of each slot. A fixed
slot mix keeps the latency distribution the same from seed to seed, so runs
with different seeds are comparable.
"""

from __future__ import annotations

import random
from fractions import Fraction

from common import fingerprint

POOL_CYCLES = 64

# A run measures a fixed number of whole plan cycles, cycles_for(seconds,
# CYCLE_S). The CYCLE_S values are nominal cycle lengths on the probe scale
# (cli-cold's is set low so that a 10-second run has three cycles, enough
# ops for its tail). Fixing the work, instead of stopping when time runs
# out, keeps the op mix, and so the median and the tail, the same in every
# run and on both sides of a comparison.
WARM_CYCLE_S = 3.3
CLI_CYCLE_S = 3.5
SWEEP_PASS_S = 10.0


def cycles_for(seconds: float, cycle_s: float) -> int:
    return max(1, round(seconds / cycle_s))


# expand-warm: (degree, order r). Mostly r = 1. The slot mix puts the median
# in the middle of the degree-16 cluster and the tail (the 11th largest op)
# in the middle of the degree-32 cluster.
WARM_SLOTS = (
    (8, 1), (8, 1), (8, 1), (8, 1), (8, 1), (8, 2), (8, 3),
    (16, 1), (16, 1), (16, 1), (16, 1), (16, 1), (16, 1), (16, 2),
    (24, 1), (24, 1), (24, 1),
    (32, 1), (32, 1), (32, 1), (32, 1), (32, 1), (24, 3),
)

# cli-cold: (kind, degree or n-max, order, "lambda" or a table family).
# Table ops print the same table for every seed. The median falls among
# several slots of similar cost.
CLI_SLOTS = (
    ("expand", 8, 1, ""),
    ("expand", 8, 2, ""),
    ("expand", 8, 3, ""),
    ("expand", 12, 1, ""),
    ("expand", 12, 2, "lambda"),
    ("expand", 16, 1, ""),
    ("expand", 16, 1, "lambda"),
    ("expand", 16, 2, ""),
    ("expand", 16, 2, "lambda"),
    ("expand", 12, 3, ""),
    ("expand", 24, 1, ""),
    ("expand", 32, 1, "lambda"),
    ("crosscheck", 8, 1, ""),
    ("crosscheck", 12, 1, ""),
    ("table", 32, 1, "euler"),
    ("table", 32, 2, "scaled-bernoulli"),
    ("table", 16, 1, "deg-bernoulli"),
)

# verify-sweep: the identity corpus at bounds above the library's
# DEFAULT_BOUNDS, about 1000 cases. One-parameter identities run n from their
# lowest valid value to N_MAX; two-parameter ones take m, n >= 1 with
# m + n <= N_MAX.
N_MAX = 16
N_FROM = {
    "ex_a": 1, "ex_a_polyid": 1, "ex_b": 2, "ex_b_classical": 2, "ex_c": 2,
    "ex_c_classical": 2, "ex_d": 3, "ex_d_classical": 3, "fpz": 2, "miki": 2,
    "miki_poly": 2,
}
MN_IDS = ("ex_e", "ex_e_classical", "ex_f", "ex_f_classical")
G_IOP_MAX = {"n": 10, "r": 5, "a": 5}
G_MAX = {"n": 10, "r": 6}


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _fmt(q: Fraction) -> str:
    text = str(abs(q))
    return text if q > 0 else f"-{text}"


def lambda_poly_text(rng: random.Random, ldeg: int) -> str:
    """A nonzero element of Q[l] of l-degree ldeg, as parser input."""
    terms = []
    for e in range(ldeg + 1):
        q = _rational(rng)
        lam = "" if e == 0 else ("*l" if e == 1 else f"*l^{e}")
        terms.append(f"{_fmt(q)}{lam}")
    return "(" + " + ".join(terms).replace("+ -", "- ") + ")"


def poly_text(rng: random.Random, degree: int) -> str:
    """A dense polynomial of exactly this degree with Q[l] coefficients.

    The coefficient of x^k has l-degree k mod 3, so polynomials of one degree
    cost about the same to expand; the seed draws the rationals.
    """
    terms = []
    for k in range(degree, -1, -1):
        xpart = "" if k == 0 else ("*x" if k == 1 else f"*x^{k}")
        terms.append(f"{lambda_poly_text(rng, k % 3)}{xpart}")
    return " + ".join(terms)


def warm_pool(seed: int) -> list[tuple[str, int]]:
    """(expression, r) for every op of POOL_CYCLES expand-warm cycles."""
    rng = random.Random(f"expand-warm:{seed}")
    return [(poly_text(rng, degree), r) for _ in range(POOL_CYCLES) for degree, r in WARM_SLOTS]


def cli_expr(rng: random.Random, degree: int) -> str:
    """Mixes x, l and B/E/G calls; the x^degree term keeps the degree exact.

    The family indices are fixed by the degree, because the cold family
    builds they cause dominate a CLI op; the seed draws everything else.
    """
    terms = [f"{lambda_poly_text(rng, 1)}*x^{degree}"]
    for _ in range(3):
        terms.append(f"{lambda_poly_text(rng, rng.randint(0, 1))}*x^{rng.randint(1, degree - 1)}")
    for call in (f"B({degree})", f"B({degree // 2},2)", f"E({degree - 1})", f"G({degree - 2})"):
        terms.append(f"{_fmt(_rational(rng))}*{call}")
    terms.append(f"{_fmt(_rational(rng))}*l")
    return " + ".join(terms).replace("+ -", "- ")


def cli_op(rng: random.Random, slot: tuple) -> dict:
    """One CLI op: argv for `python -m degbern` plus what the checker needs."""
    kind, size, order, extra = slot
    if kind == "table":
        argv = ["table", "--family", extra, "--n-max", str(size), "--order", str(order), "--format", "json"]
        return {"kind": "table", "argv": argv, "entries": size + 1}
    expr = cli_expr(rng, size)
    argv = ["expand", "--expr", expr, "--format", "json", "--order", str(order)]
    op = {"kind": "expand", "argv": argv, "expr": expr, "order": order}
    if kind == "crosscheck":
        argv.append("--crosscheck")
    if extra == "lambda":
        op["lambda"] = f"{rng.choice((-1, 1)) * rng.randint(1, 7)}/{rng.randint(1, 7)}"
        argv.append(f"--lambda={op['lambda']}")  # one token: a value may start with '-'
    return op


def cli_pool(seed: int) -> list[dict]:
    rng = random.Random(f"cli-cold:{seed}")
    return [cli_op(rng, slot) for _ in range(POOL_CYCLES) for slot in CLI_SLOTS]


def sweep_cases() -> list[tuple[str, dict[str, int]]]:
    """The verify-sweep corpus, sorted by identity id."""
    cases: list[tuple[str, dict[str, int]]] = []
    for identity_id, lo in N_FROM.items():
        cases += [(identity_id, {"n": n}) for n in range(lo, N_MAX + 1)]
    for identity_id in MN_IDS:
        cases += [
            (identity_id, {"m": m, "n": n}) for m in range(1, N_MAX) for n in range(1, N_MAX - m + 1)
        ]
    cases += [
        ("ex_g_iop", {"n": n, "r": r, "a": a})
        for n in range(G_IOP_MAX["n"] + 1)
        for r in range(G_IOP_MAX["r"] + 1)
        for a in range(1, G_IOP_MAX["a"] + 1)
    ]
    cases += [
        ("ex_g", {"n": n, "r": r})
        for n in range(3, G_MAX["n"] + 1)
        for r in range(1, min(n, G_MAX["r"]) + 1)
    ]
    return sorted(cases, key=lambda case: case[0])


def sweep_order(seed: int, pass_index: int, count: int) -> list[int]:
    """Seeded case order for one pass of the verify sweep.

    The seed interleaves the identities at random; each identity's own cases
    keep their ascending order, as a user widening a sweep would run them.
    """
    cases = sweep_cases()[:count]
    rng = random.Random(f"verify-sweep:{seed}:{pass_index}")
    slots = [identity_id for identity_id, _ in cases]
    rng.shuffle(slots)
    queues: dict[str, list[int]] = {}
    for index, (identity_id, _) in enumerate(cases):
        queues.setdefault(identity_id, []).append(index)
    return [queues[identity_id].pop(0) for identity_id in slots]


def workload_fingerprint(workload: str, seed: int) -> str:
    if workload == "expand-warm":
        return fingerprint(warm_pool(seed))
    if workload == "cli-cold":
        return fingerprint([op["argv"] for op in cli_pool(seed)])
    cases = sweep_cases()
    return fingerprint([cases, [sweep_order(seed, p, len(cases)) for p in range(8)]])
