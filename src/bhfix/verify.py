"""Budget-bounded checks turning the construction's laws into pass/fail reports.

Every check enumerates a finite sample (exhaustive where the underlying
sets are finite and fit the budget, flagged otherwise), tests the law on
each instance, and returns a :class:`CheckReport`.  Counterexamples are
serialized in the external term grammar so they can be replayed with the
CLI ``compare`` command.  Checks are independent and deterministic given
(dilator, budgets): same inputs, same instance counts, same verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .dilator import (
    Dilator,
    Enumeration,
    coded_elements,
    compare_coded,
    least,
    map_coded,
    normal_form,
)
from .errors import DilatorLawError, SystemDefectError, WitnessLawError
from .finite_orders import EQ, GT, LT, all_embeddings, compose, finset_map, identity_embedding
from .interpret import (
    LIMIT_STAGES,
    OmegaSuccessorWitness,
    SelfWitness,
    Witness,
    embed_bh,
    empty_interpretation,
    extend_interpretation,
    interpretation_at,
)
from .limits import Tower, birth_stage
from .syntax import format_bh, format_term
from .systems import BASE_SAMPLE_CAP, System, ThetaTerm

_MAX_RECORDED_FAILURES = 12

MAX_ORDER = 4  # largest finite order for the dilator-law checks
STAGES = 3     # how many stage iterations the theta checks cover


@dataclass
class CheckReport:
    """Outcome of one law check.

    ``exhaustive`` is True only when every enumeration feeding the check
    reported completeness, i.e. the law was verified on *all* instances at
    this scale rather than on a sample.
    """

    name: str
    law: str
    instances: int
    exhaustive: bool
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def format(self) -> str:
        head = (
            f"CHECK {self.name} {'pass' if self.passed else 'fail'} "
            f"instances={self.instances} "
            f"exhaustive={'true' if self.exhaustive else 'false'}"
        )
        return "\n".join([head] + [f"  {line}" for line in self.failures])


@dataclass
class Budgets:
    """Budgets of the verification suites."""

    tokens: int = 50         # per-arity token budget
    terms: int = 40          # per-stage term budget
    sample_cap: int = 30     # cap on coded-element samples feeding pair loops


class _Collector:
    def __init__(self, name: str, law: str):
        self.name = name
        self.law = law
        self.instances = 0
        self.exhaustive = True
        self._failures: list[str] = []
        self._overflow = 0

    def check(self, ok: bool, describe) -> None:
        self.instances += 1
        if not ok:
            if len(self._failures) < _MAX_RECORDED_FAILURES:
                self._failures.append(describe() if callable(describe) else describe)
            else:
                self._overflow += 1

    def bulk(self, count: int) -> None:
        self.instances += count

    def fail(self, message: str) -> None:
        self.check(False, message)

    def report(self) -> CheckReport:
        failures = list(self._failures)
        if self._overflow:
            failures.append(f"... and {self._overflow} more failures")
        return CheckReport(self.name, self.law, self.instances, self.exhaustive, failures)


# ---------------------------------------------------------------------------
# dilator laws


def check_dilator_laws(
    dilator: Dilator, max_n: int = MAX_ORDER, budget: int = 50
) -> CheckReport:
    """Functoriality, strict monotonicity, support naturality, and the
    support factorization condition, over all embeddings between orders of
    size <= max_n and all sampled tokens."""
    col = _Collector(
        "dilator-laws",
        "endofunctor laws, strict monotonicity, support naturality, "
        "support factorization",
    )
    samples = {n: dilator.sample_at(n, budget) for n in range(max_n + 1)}
    col.exhaustive = all(s.exhaustive for s in samples.values())
    embeddings = {
        (m, n): all_embeddings(m, n) for m in range(max_n + 1) for n in range(m, max_n + 1)
    }

    def fmt(n, tok):
        return dilator.format_token(n, tok)

    for n, toks in samples.items():
        idn = identity_embedding(n)
        for tok in toks:
            col.check(
                dilator.compare_at(n, dilator.map_token(idn, tok), tok) == EQ,
                lambda n=n, tok=tok: f"identity action changed {fmt(n, tok)}",
            )
        # order sanity at each arity: trichotomy and antisymmetry of compare_at
        for i, s in enumerate(toks):
            for t in toks[i + 1 :]:
                v, w = dilator.compare_at(n, s, t), dilator.compare_at(n, t, s)
                col.check(
                    v != EQ and v == -w,
                    lambda n=n, s=s, t=t: f"token order broken on {fmt(n, s)}, {fmt(n, t)}",
                )

    for (m, n), fs in embeddings.items():
        for f in fs:
            for tok in samples[m]:
                mapped = dilator.map_token(f, tok)
                # naturality of supports
                col.check(
                    dilator.supp_at(n, mapped) == finset_map(f, dilator.supp_at(m, tok)),
                    lambda m=m, n=n, f=f, tok=tok: (
                        f"support not natural for {fmt(m, tok)} along {f.images}->{n}"
                    ),
                )
            # strict monotonicity
            for s in samples[m]:
                for t in samples[m]:
                    if dilator.compare_at(m, s, t) == LT:
                        col.check(
                            dilator.compare_at(n, dilator.map_token(f, s), dilator.map_token(f, t)) == LT,
                            lambda m=m, n=n, f=f, s=s, t=t: (
                                f"monotonicity broken: {fmt(m, s)} < {fmt(m, t)} "
                                f"but not after mapping along {f.images}->{n}"
                            ),
                        )
            # composition law against every composable partner
            for p in range(n, max_n + 1):
                for g in embeddings[(n, p)]:
                    fg = compose(f, g)
                    for tok in samples[m]:
                        via = dilator.map_token(g, dilator.map_token(f, tok))
                        direct = dilator.map_token(fg, tok)
                        col.check(
                            dilator.compare_at(p, direct, via) == EQ,
                            lambda m=m, p=p, tok=tok: (
                                f"composition law broken on {fmt(m, tok)} at arity {p}"
                            ),
                        )

    # support factorization: every token is the image of a unique
    # full-support token under the inclusion of its support
    for n, toks in samples.items():
        for tok in toks:
            try:
                normal_form(dilator, n, tok)
                col.check(True, "")
            except DilatorLawError as err:
                col.fail(str(err))
    return col.report()


# ---------------------------------------------------------------------------
# the term order over one system


def _clause_less(system: System, s: ThetaTerm, t: ThetaTerm) -> bool:
    """Literal transcription of the two comparison clauses (used as a cross
    check against the production comparison, which fuses them)."""
    body = compare_coded(system.dilator, system.carrier.compare, s.body, t.body)
    if body == LT and all(
        system.compare(system.embed(x), t) == LT for x in s.body.support
    ):
        return True
    if body == GT and any(
        system.compare(s, system.embed(x)) != GT for x in t.body.support
    ):
        return True
    return False


def _term_sample(system: System, budget: int):
    return system.iterate().carrier.enumerate(budget)


def check_theta_linear(system: System, budget: int, name: str = "theta-linear") -> CheckReport:
    """The term order over the system's carrier is linear: trichotomy and
    antisymmetry on all pairs (clause-level cross check included) and
    transitivity on all triples of the sample."""
    col = _Collector(
        name,
        "linearity of the collapse-term order: pairwise trichotomy/antisymmetry, "
        "triple transitivity",
    )
    terms = _term_sample(system, budget)
    col.exhaustive = terms.exhaustive
    items = terms.items
    size = len(items)
    matrix = [[system.compare(s, t) for t in items] for s in items]
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            forward = _clause_less(system, items[i], items[j])
            backward = _clause_less(system, items[j], items[i])
            agreed = (matrix[i][j] == LT) == forward and (matrix[i][j] == GT) == backward
            col.check(
                forward != backward and agreed,
                lambda i=i, j=j: (
                    "trichotomy/antisymmetry broken between "
                    f"{format_term(system.dilator, items[i])} and "
                    f"{format_term(system.dilator, items[j])}"
                ),
            )
    below = [[j for j in range(size) if matrix[i][j] == LT] for i in range(size)]
    triples = 0
    for i in range(size):
        row = matrix[i]
        for j in below[i]:
            triples += len(below[j])
            for k in below[j]:
                if row[k] != LT:
                    col.fail(
                        "transitivity broken on "
                        f"{format_term(system.dilator, items[i])} < "
                        f"{format_term(system.dilator, items[j])} < "
                        f"{format_term(system.dilator, items[k])}"
                    )
    col.bulk(triples)
    return col.report()


def _least_coded(
    dilator: Dilator, carried: Enumeration, budget: int, cap: int, cmp
) -> Enumeration:
    """The least ``cap`` coded elements over a carrier sample, sorted."""
    coded = coded_elements(dilator, carried, budget, cmp)
    return least(coded, cap, partial(compare_coded, dilator, cmp))


def _coded_sample(system: System, budget: int) -> Enumeration:
    base = system.carrier.enumerate(min(budget, BASE_SAMPLE_CAP))
    return _least_coded(system.dilator, base, budget, budget, system.carrier.compare)


def check_collapse_admissible(
    system: System, budget: int, name: str = "collapse-admissible"
) -> CheckReport:
    """The stage collapse satisfies both collapse conditions, the subterm
    bound, and the redundancy of the order test in the second clause."""
    col = _Collector(
        name,
        "collapse conditions over one stage, subterm bound, redundant order "
        "test in the second comparison clause",
    )
    coded = _coded_sample(system, budget)
    col.exhaustive = coded.exhaustive
    terms = [system.collapse(c) for c in coded]
    dil = system.dilator
    for sigma, term in zip(coded, terms):
        # condition (ii): the translated support sits strictly below the collapse
        for x in sigma.support:
            col.check(
                system.compare(system.embed(x), term) == LT,
                lambda term=term: (
                    f"support not below its collapse: {format_term(dil, term)}"
                ),
            )
        # subterm bound
        for r in system.subterm_closure(term):
            col.check(
                system.compare(r, term) != GT and r.length <= term.length,
                lambda r=r, term=term: (
                    f"subterm {format_term(dil, r)} exceeds {format_term(dil, term)}"
                ),
            )
    for i, (sigma, s_term) in enumerate(zip(coded, terms)):
        for j, (tau, t_term) in enumerate(zip(coded, terms)):
            if i == j:
                continue
            # coded sample is sorted, so the body verdict is the index order
            premise = i < j and all(
                system.compare(system.embed(x), t_term) == LT for x in sigma.support
            )
            col.check(
                not premise or system.compare(s_term, t_term) == LT,
                lambda s_term=s_term, t_term=t_term: (
                    f"condition (i) broken: {format_term(dil, s_term)} vs "
                    f"{format_term(dil, t_term)}"
                ),
            )
            dominated = any(
                system.compare(s_term, system.embed(x)) != GT for x in tau.support
            )
            col.check(
                not dominated or system.compare(s_term, t_term) == LT,
                lambda s_term=s_term, t_term=t_term: (
                    f"redundancy claim broken: {format_term(dil, s_term)} vs "
                    f"{format_term(dil, t_term)}"
                ),
            )
    return col.report()


def check_goodness(system: System, budget: int, name: str = "goodness") -> CheckReport:
    """The carrier embedding preserves lengths (the system equation) and the
    order (goodness)."""
    col = _Collector(
        name, "length equation L(iota(x)) = L(x) and order preservation of iota"
    )
    xs = system.carrier.enumerate(budget)
    col.exhaustive = xs.exhaustive
    fmt = lambda t: format_term(system.dilator, t)  # noqa: E731
    try:
        for x in xs:
            col.check(
                system.embed(x).length == system.length_of(x),
                lambda x=x: (
                    f"length equation broken at {x!r}: "
                    f"L(iota(x)) = {system.embed(x).length} != {system.length_of(x)}"
                ),
            )
        for i, x in enumerate(xs):
            for y in xs[i + 1 :]:
                col.check(
                    system.compare(system.embed(x), system.embed(y)) == LT,
                    lambda x=x, y=y: (
                        f"iota not order preserving: {fmt(system.embed(x))} vs "
                        f"{fmt(system.embed(y))}"
                    ),
                )
    except SystemDefectError as err:
        col.fail(f"system defect: {err}")
    return col.report()


def check_commuting_square(
    system: System, budget: int, name: str = "commuting-square"
) -> CheckReport:
    """Embedding after collapsing equals collapsing the relabelled element,
    as syntactic identity of interned terms."""
    col = _Collector(
        name,
        "next-stage embedding of a collapse equals the collapse of the "
        "relabelled element (syntactic equality)",
    )
    coded = _coded_sample(system, budget)
    col.exhaustive = coded.exhaustive
    nxt = system.iterate()
    for sigma in coded:
        left = nxt.embed(system.collapse(sigma))
        right = nxt.collapse(map_coded(system.embed, sigma))
        col.check(
            left is right,
            lambda left=left, right=right: (
                f"square does not commute: {format_term(system.dilator, left)} vs "
                f"{format_term(system.dilator, right)}"
            ),
        )
    return col.report()


# ---------------------------------------------------------------------------
# the limit order


def check_fixed_point(
    tower: Tower,
    budget: int,
    stage_bound: int = LIMIT_STAGES,
    sample_cap: int = 30,
    carrier_cap: int = BASE_SAMPLE_CAP,
    name: str = "fixed-point",
) -> CheckReport:
    """The glued collapse satisfies both collapse conditions over the limit
    order, is independent of the stage it is computed at, and every sampled
    element of T over the limit comes from a finite stage."""
    col = _Collector(
        name,
        "glued collapse: both collapse conditions over the limit, stage "
        "independence, finite-stage absorption",
    )
    carried = least(tower.enumerate(stage_bound, budget), carrier_cap, tower.compare)
    coded = _least_coded(tower.dilator, carried, budget, sample_cap, tower.compare)
    col.exhaustive = coded.exhaustive
    dil = tower.dilator
    values = []
    for sigma in coded:
        value = tower.collapse(sigma)
        values.append(value)
        first = tower.least_stage(sigma)
        col.check(
            tower.collapse_at(sigma, first) is value
            and tower.collapse_at(sigma, first + 1) is value,
            lambda sigma=sigma: f"collapse depends on the stage for {sigma!r}",
        )
        # finite-stage absorption round trip
        col.check(
            map_coded(tower.flatten, tower.pull_back(sigma, first)) == sigma,
            lambda sigma=sigma: f"stage absorption broken for {sigma!r}",
        )
        # condition (ii)
        for e in sigma.support:
            col.check(
                tower.compare(e, value) == LT,
                lambda e=e, value=value: (
                    f"support element {format_bh(dil, e)} not below "
                    f"{format_bh(dil, value)}"
                ),
            )
    for i, sigma in enumerate(coded):
        for j in range(len(coded)):
            if i == j:
                continue
            # sample is sorted, so sigma < tau iff i < j
            premise = i < j and all(
                tower.compare(e, values[j]) == LT for e in sigma.support
            )
            col.check(
                not premise or tower.compare(values[i], values[j]) == LT,
                lambda i=i, j=j: (
                    f"condition (i) broken over the limit: "
                    f"{format_bh(dil, values[i])} vs {format_bh(dil, values[j])}"
                ),
            )
    return col.report()


def check_limit_order(
    tower: Tower, budget: int, stage_bound: int = LIMIT_STAGES, name: str = "limit-order"
) -> CheckReport:
    """The limit order is the stage order of lifts: on every pair of sampled
    limit elements it agrees with the comparison of their representatives at
    the least common stage, and flattening a lift gives the element back."""
    col = _Collector(
        name,
        "limit order equals the stage order of lifts; flatten after lift is "
        "the identity",
    )
    elements = tower.enumerate(stage_bound, budget)
    col.exhaustive = elements.exhaustive
    dil = tower.dilator
    for e in elements:
        for m in range(birth_stage(e), stage_bound):
            col.check(
                tower.flatten(tower.lift(e, m)) is e,
                lambda e=e, m=m: f"flatten after lift to X{m + 1} moved {format_bh(dil, e)}",
            )
    for i, a in enumerate(elements):
        for b in elements[i + 1 :]:
            m = max(birth_stage(a), birth_stage(b))
            staged = tower.stage(m).compare(tower.lift(a, m), tower.lift(b, m))
            col.check(
                tower.compare(a, b) == staged,
                lambda a=a, b=b, m=m: (
                    f"limit order differs from the stage-{m} order on "
                    f"{format_bh(dil, a)}, {format_bh(dil, b)}"
                ),
            )
    return col.report()


def check_witness(
    witness: Witness,
    dilator: Dilator,
    budget: int,
    carrier_cap: int = BASE_SAMPLE_CAP,
    name: str = "witness",
) -> CheckReport:
    """Both collapse conditions for an external witness, on a sample of
    coded elements over the witness order."""
    col = _Collector(
        name, f"collapse conditions for witness {witness.name} on sampled elements"
    )
    carried = least(witness.enumerate(budget), carrier_cap, witness.compare)
    items = _least_coded(dilator, carried, budget, budget, witness.compare)
    col.exhaustive = items.exhaustive
    try:
        values = [witness.collapse(sigma) for sigma in items]
    except WitnessLawError as err:
        col.fail(f"collapse undefined on a sampled element: {err}")
        return col.report()
    for sigma, value in zip(items, values):
        for y in sigma.support:
            col.check(
                witness.compare(y, value) < 0,
                lambda sigma=sigma: f"support not below the collapse at {sigma!r}",
            )
    for i in range(len(items)):
        for j in range(len(items)):
            if i == j:
                continue
            premise = i < j and all(
                witness.compare(y, values[j]) < 0 for y in items[i].support
            )
            col.check(
                not premise or witness.compare(values[i], values[j]) < 0,
                lambda i=i, j=j: f"condition (i) broken by the witness on pair ({i}, {j})",
            )
    return col.report()


def check_minimality(
    tower: Tower,
    witness: Witness,
    budget: int,
    stages: int = LIMIT_STAGES,
    name: str = "minimality",
) -> CheckReport:
    """Interpretations extend stage by stage (defining equation, embedding
    property) and glue to an order embedding of the limit into the witness."""
    col = _Collector(
        name,
        "interpretation extension equation, order embedding of every stage, "
        "gluing consistency over the limit",
    )
    dil = tower.dilator
    try:
        ip = empty_interpretation(witness, tower)
        for n in range(stages):
            nxt = extend_interpretation(witness, ip)
            xs = tower.stage(n).carrier.enumerate(budget)
            col.exhaustive &= xs.exhaustive
            for x in xs:
                col.check(
                    witness.compare(nxt.func(tower.stage(n).embed(x)), ip.func(x)) == 0,
                    lambda x=x: f"extension equation broken at {x!r}",
                )
            xs1 = tower.stage(n + 1).carrier.enumerate(budget)
            col.exhaustive &= xs1.exhaustive
            for i, s in enumerate(xs1):
                for t in xs1[i + 1 :]:
                    col.check(
                        witness.compare(nxt.func(s), nxt.func(t)) < 0,
                        lambda s=s, t=t: (
                            f"stage map not an embedding on {format_term(dil, s)}, "
                            f"{format_term(dil, t)}"
                        ),
                    )
            ip = nxt
        elements = tower.enumerate(stages, budget)
        col.exhaustive &= elements.exhaustive
        images = [embed_bh(witness, tower, e) for e in elements]
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                col.check(
                    witness.compare(images[i], images[j]) < 0,
                    lambda i=i, j=j: (
                        f"limit embedding not order preserving on "
                        f"{format_bh(dil, elements[i])}, {format_bh(dil, elements[j])}"
                    ),
                )
        for e, image in zip(elements, images):
            born = birth_stage(e)
            later = interpretation_at(witness, tower, born + 2)
            col.check(
                witness.compare(later.func(tower.lift(e, born + 1)), image) == 0,
                lambda e=e: f"gluing inconsistent across stages at {format_bh(dil, e)}",
            )
    except WitnessLawError as err:
        col.fail(f"witness law violation: {err}")
    return col.report()


# ---------------------------------------------------------------------------
# suites


class _ErasedSupports(Dilator):
    """Deliberately broken wrapper: forgets every support, which destroys the
    factorization condition.  Test hook for the failure paths."""

    def __init__(self, inner: Dilator):
        self.inner = inner
        self.name = f"broken({inner.name})"

    def compare_at(self, n, s, t):
        return self.inner.compare_at(n, s, t)

    def map_token(self, f, tok):
        return self.inner.map_token(f, tok)

    def supp_at(self, n, tok):
        return ()

    def sample_at(self, n, budget):
        return self.inner.sample_at(n, budget)

    # restrict_token intentionally stays the generic search, which fails
    # loudly when the erased supports make factorization impossible.

    def format_token(self, n, tok):
        return self.inner.format_token(n, tok)

    def parse_token(self, n, text):
        return self.inner.parse_token(n, text)


def erase_supports(dilator: Dilator) -> Dilator:
    return _ErasedSupports(dilator)


SUITES = ("all", "laws", "theta", "fixedpoint", "minimality")


def default_witness(dilator: Dilator, tower: Tower) -> Witness:
    if dilator.name == "successor":
        return OmegaSuccessorWitness()
    return SelfWitness(tower)


def run_suite(
    dilator: Dilator,
    suite: str = "all",
    budgets: Budgets | None = None,
    witness: Witness | None = None,
    tower: Tower | None = None,
) -> list[CheckReport]:
    """Run one of the named suites; reports come back sorted by check name."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    budgets = budgets or Budgets()
    tower = tower or Tower(dilator)
    reports: list[CheckReport] = []
    if suite in ("all", "laws"):
        reports.append(check_dilator_laws(dilator, budget=budgets.tokens))
    if suite in ("all", "theta"):
        for n in range(STAGES):
            sysn = tower.stage(n)
            reports.append(
                check_theta_linear(sysn, budgets.terms, name=f"theta-linear:X{n + 1}")
            )
            reports.append(
                check_collapse_admissible(
                    sysn, budgets.terms, name=f"collapse-admissible:X{n + 1}"
                )
            )
            reports.append(
                check_commuting_square(
                    sysn, budgets.terms, name=f"commuting-square:X{n + 1}"
                )
            )
        for n in range(1, STAGES + 1):
            reports.append(
                check_goodness(tower.stage(n), budgets.terms, name=f"goodness:X{n}")
            )
    if suite in ("all", "fixedpoint"):
        reports.append(check_fixed_point(tower, budgets.terms, sample_cap=budgets.sample_cap))
        reports.append(check_limit_order(tower, budgets.terms))
    if suite in ("all", "minimality"):
        w = witness or default_witness(dilator, tower)
        reports.append(check_witness(w, dilator, budgets.sample_cap))
        reports.append(check_minimality(tower, w, budgets.terms))
    reports.sort(key=lambda r: r.name)
    return reports
