"""The benchmark's workloads: seeded lists of CLI requests with known answers.

A request is the argv of one ``bhfix`` shell call plus a check that turns the
call's exit code and standard output into one of three outcomes:

* ``ok``    -- the known answer;
* ``wrong`` -- the program answered, but not with the known answer;
* ``error`` -- the program gave no answer (usage/semantic exit code, or an
  exception escaped ``main``).

The seed only chooses among inputs of the same cost class (order, pairing,
operand side, stage index), so the cost profile of a pass does not depend on
the seed and runs with different seeds can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

KNOWN = Path(__file__).resolve().parent / "known"

OK, WRONG, ERROR = "ok", "wrong", "error"

BATTERY = [
    "successor",
    "identity",
    "constant:3",
    "omega",
    "sum(successor,omega)",
    "product(successor,constant:2)",
]
BROKEN = ["successor", "omega", "sum(successor,omega)", "product(successor,constant:2)"]

# (selector, stages, budget, recorded listing or None, element count).  The
# finite cases are exhaustive and checked byte for byte; the others are
# samples of an infinite limit, checked by count, round trip and order.
ENUMERATE_CASES = [
    ("omega", 3, 50, None, 50),
    ("omega", 4, 60, None, 60),
    ("sum(successor,omega)", 4, 60, None, 75),
    ("product(successor,constant:2)", 4, 60, None, 26),
    ("successor", 13, 100, "enumerate_successor_13_100.txt", 13),
    ("constant:3", 5, 100, "enumerate_constant3_5_100.txt", 3),
]

# cli-deep: requests per pass, and how they split.  Exactly one request in
# 40 compares successor elements above the recursion ceiling (heights
# 150-160, which today exit 2), fewer than the 5% of requests beyond the
# p95 tail, so fixing them lowers the failed share without moving the tail.
DEEP_PASS = 200
DEEP_OVER_CEILING = DEEP_PASS // 40
DEEP_SUCC_COMPARES = 30
DEEP_INTERPRET_OMEGA_SUCC = 30
DEEP_INTERPRET_SELF = 30
DEEP_ORDER_COMPARES = (
    DEEP_PASS
    - DEEP_OVER_CEILING
    - DEEP_SUCC_COMPARES
    - DEEP_INTERPRET_OMEGA_SUCC
    - DEEP_INTERPRET_SELF
)
MAX_HEIGHT = 100
# A successor compare counts as deep when both elements are at least this
# high; below it the comparison recursion is cheap (see README).
DEEP_MIN_HEIGHT = 60


@dataclass
class Request:
    argv: list[str]
    label: str
    check: Callable[[int, str], str]
    over_ceiling: bool = False
    deep: bool = False
    # Cache of check verdicts by output, since passes repeat the request.
    verdicts: dict = field(default_factory=dict)

    def judge(self, code: int, out: str) -> str:
        key = (code, out)
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = self.check(code, out)
            self.verdicts[key] = verdict
        return verdict


def _expect_exit(wanted: int, other: int) -> Callable[[int, str], str]:
    """A verify verdict: exit code ``wanted`` is right, ``other`` is wrong."""

    def check(code: int, out: str) -> str:
        if code == wanted:
            return OK
        return WRONG if code == other else ERROR

    return check


def _expect_text(text: str) -> Callable[[int, str], str]:
    def check(code: int, out: str) -> str:
        if code != 0:
            return ERROR
        return OK if out == text else WRONG

    return check


def verify_battery(rng: random.Random) -> list[Request]:
    requests = [
        Request(
            ["verify", "--dilator", sel, "--suite", "all", "--budget", "40"],
            f"verify {sel}",
            _expect_exit(0, 1),
        )
        for sel in BATTERY
    ] + [
        Request(
            ["verify", "--dilator", sel, "--suite", "all", "--budget", "40",
             "--break-naturality"],
            f"break {sel}",
            _expect_exit(1, 0),
        )
        for sel in BROKEN
    ]
    rng.shuffle(requests)
    return requests


def _sampled_listing_check(selector: str, count: int) -> Callable[[int, str], str]:
    """Count, parse/format round trip, and strict increase of a sample."""

    def check(code: int, out: str) -> str:
        if code != 0:
            return ERROR
        from bhfix.cli import parse_selector
        from bhfix.limits import Tower
        from bhfix.syntax import format_bh, parse_bh

        lines = out.splitlines()
        if lines[-1:] != [f"exhaustive=false count={count}"] or len(lines) != count + 1:
            return WRONG
        dilator = parse_selector(selector)
        tower = Tower(dilator)
        elements = [parse_bh(tower, line) for line in lines[:-1]]
        if [format_bh(dilator, e) for e in elements] != lines[:-1]:
            return WRONG
        if any(tower.compare(a, b) >= 0 for a, b in zip(elements, elements[1:])):
            return WRONG
        return OK

    return check


def enumerate_cold(rng: random.Random) -> list[Request]:
    requests = []
    for selector, stages, budget, recorded, count in ENUMERATE_CASES:
        if recorded is None:
            check = _sampled_listing_check(selector, count)
        else:
            check = _expect_text((KNOWN / recorded).read_text())
        requests.append(
            Request(
                ["enumerate", "--dilator", selector, "--stages", str(stages),
                 "--budget", str(budget)],
                f"enumerate {selector} ({stages},{budget})",
                check,
            )
        )
    rng.shuffle(requests)
    return requests


def successor_element(depth: int, stage_extra: int = 0) -> str:
    """The successor element of the given nesting depth, read at stage
    depth - 1 + stage_extra.  Its value in the naturals is depth - 1."""
    term = "th(top)"
    for _ in range(depth - 1):
        term = f"th(v0;{term})"
    return f"@{depth - 1 + stage_extra}:{term}"


def _verdict(sign: int) -> str:
    return {-1: "LT", 0: "EQ", 1: "GT"}[sign]


def _succ_compare(rng: random.Random, a: int, b: int, label: str) -> Request:
    if rng.random() < 0.5:
        a, b = b, a
    argv = ["compare", "--dilator", "successor",
            successor_element(a, rng.randrange(3)), successor_element(b, rng.randrange(3))]
    sign = (a > b) - (a < b)
    return Request(argv, label, _expect_text(_verdict(sign) + "\n"),
                   deep=min(a, b) >= DEEP_MIN_HEIGHT)


def _raise_stage(element: str, rng: random.Random) -> str:
    """Write a listed element at a seeded stage between its birth and 3."""
    head, _, term = element.partition(":")
    birth = int(head[1:])
    return f"@{rng.randint(birth, max(birth, 3))}:{term}"


def _load_order(name: str) -> list[str]:
    return (KNOWN / name).read_text().splitlines()


def cli_deep(rng: random.Random) -> list[Request]:
    requests = []
    for i in range(DEEP_SUCC_COMPARES):
        # Heights of neighbouring elements, cubic in the stratum, so most are
        # shallow; the seed picks the operand order and the stages they are
        # read at, so every seed has the same cost profile.
        depth = 1 + round((MAX_HEIGHT - 2) * ((i + 0.5) / DEEP_SUCC_COMPARES) ** 3)
        requests.append(_succ_compare(rng, depth + 1, depth, "compare successor"))
    for _ in range(DEEP_OVER_CEILING):
        a, b = rng.sample(range(150, 161), 2)
        req = _succ_compare(rng, a, b, "compare successor over ceiling")
        req.over_ceiling = True
        requests.append(req)
    for i in range(DEEP_INTERPRET_OMEGA_SUCC):
        depth = 1 + int((MAX_HEIGHT - 1) * (i + rng.random()) / DEEP_INTERPRET_OMEGA_SUCC)
        requests.append(
            Request(
                ["interpret", "--dilator", "successor", "--witness", "omega-successor",
                 successor_element(depth, rng.randrange(3))],
                "interpret omega-successor",
                _expect_text(f"{depth - 1}\n"),
            )
        )
    orders = {
        "omega": _load_order("order_omega.txt"),
        "sum(successor,omega)": _load_order("order_sum_successor_omega.txt"),
    }
    half = DEEP_INTERPRET_SELF // 2
    for i in range(half):
        depth = 1 + int((MAX_HEIGHT - 1) * (i + rng.random()) / half)
        requests.append(
            Request(
                ["interpret", "--dilator", "successor", "--witness", "bh-self",
                 successor_element(depth)],
                "interpret bh-self",
                _expect_text(successor_element(depth) + "\n"),
            )
        )
    for i in range(DEEP_INTERPRET_SELF - half):
        selector = list(orders)[i % 2]
        element = rng.choice(orders[selector])
        requests.append(
            Request(
                ["interpret", "--dilator", selector, "--witness", "bh-self", element],
                "interpret bh-self",
                _expect_text(element + "\n"),
            )
        )
    for i in range(DEEP_ORDER_COMPARES):
        selector = list(orders)[i % 2]
        order = orders[selector]
        j, k = rng.sample(range(len(order)), 2)
        requests.append(
            Request(
                ["compare", "--dilator", selector,
                 _raise_stage(order[j], rng), _raise_stage(order[k], rng)],
                f"compare {selector}",
                _expect_text(_verdict((j > k) - (j < k)) + "\n"),
            )
        )
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "verify-battery": verify_battery,
    "enumerate-cold": enumerate_cold,
    "cli-deep": cli_deep,
}


def build(workload: str, seed: int) -> list[Request]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
