"""Budget-bounded checks turning the construction's laws into pass/fail reports.

Every check enumerates a finite sample (exhaustive where the underlying
sets are finite and fit the budget, flagged otherwise), tests the law on
each instance, and returns a :class:`CheckReport`.  Counterexamples are
serialized in the external term grammar so they can be replayed with the
CLI ``compare`` command.  Checks are independent and deterministic given
(dilator, budget): same inputs, same instance counts, same verdicts.
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
    extend_interpretation,
    interpretation_at,
)
from .limits import BASE_SAMPLE_CAP, Tower, birth_stage
from .syntax import format_bh, format_term
from .systems import System, ThetaTerm

_MAX_RECORDED_FAILURES = 12

MAX_ORDER = 4    # largest finite order for the dilator-law checks
TERMS_CAP = 40   # cap on the per-stage term budget of a suite
SAMPLE_CAP = 30  # cap on the coded-element samples feeding pair loops


@dataclass
class CheckReport:
    """Outcome of one law check, filled in instance by instance.

    ``exhaustive`` is True only when every enumeration feeding the check
    reported completeness, i.e. the law was verified on *all* instances at
    this scale rather than on a sample.  At most ``_MAX_RECORDED_FAILURES``
    failures are recorded; ``overflow`` counts the rest.
    """

    name: str
    exhaustive: bool = True
    instances: int = 0
    failures: list[str] = field(default_factory=list)
    overflow: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, describe) -> None:
        """Count one instance; on failure record ``describe`` (or its call)."""
        self.instances += 1
        if not ok:
            if len(self.failures) < _MAX_RECORDED_FAILURES:
                self.failures.append(describe() if callable(describe) else describe)
            else:
                self.overflow += 1

    def fail(self, message: str) -> None:
        self.check(False, message)

    def format(self) -> str:
        head = (
            f"CHECK {self.name} {'pass' if self.passed else 'fail'} "
            f"instances={self.instances} "
            f"exhaustive={'true' if self.exhaustive else 'false'}"
        )
        lines = [head] + [f"  {line}" for line in self.failures]
        if self.overflow:
            lines.append(f"  ... and {self.overflow} more failures")
        return "\n".join(lines)


def _identity(x):
    return x


def _collapse_conditions(report: CheckReport, coded, values, compare, embed, show) -> None:
    """Both collapse conditions for ``coded[i] -> values[i]``, where ``coded``
    is sorted: (ii) every embedded support element lies below its collapse,
    and (i) sigma < tau with the embedded support of sigma below theta(tau)
    gives theta(sigma) < theta(tau)."""
    for sigma, value in zip(coded, values):
        for x in sigma.support:
            report.check(
                compare(embed(x), value) < 0,
                lambda x=x, value=value: (
                    f"condition (ii) broken: {show(embed(x))} not below {show(value)}"
                ),
            )
    for i, sigma in enumerate(coded):
        for j, value in enumerate(values):
            if i == j:
                continue
            # the sample is sorted, so sigma < tau iff i < j
            premise = i < j and all(compare(embed(x), value) < 0 for x in sigma.support)
            report.check(
                not premise or compare(values[i], value) < 0,
                lambda i=i, j=j: (
                    f"condition (i) broken: {show(values[i])} vs {show(values[j])}"
                ),
            )


# ---------------------------------------------------------------------------
# dilator laws


def check_dilator_laws(
    dilator: Dilator, max_n: int = MAX_ORDER, budget: int = 50
) -> CheckReport:
    """Functoriality, strict monotonicity, support naturality, and the
    support factorization condition, over all embeddings between orders of
    size <= max_n and all sampled tokens."""
    samples = {n: dilator.sample_at(n, budget) for n in range(max_n + 1)}
    report = CheckReport("dilator-laws", all(s.exhaustive for s in samples.values()))
    embeddings = {
        (m, n): all_embeddings(m, n) for m in range(max_n + 1) for n in range(m, max_n + 1)
    }

    def fmt(n, tok):
        return dilator.format_token(n, tok)

    for n, toks in samples.items():
        idn = identity_embedding(n)
        for tok in toks:
            report.check(
                dilator.compare_at(n, dilator.map_token(idn, tok), tok) == EQ,
                lambda n=n, tok=tok: f"identity action changed {fmt(n, tok)}",
            )
        # order sanity at each arity: trichotomy and antisymmetry of compare_at
        for i, s in enumerate(toks):
            for t in toks[i + 1 :]:
                v, w = dilator.compare_at(n, s, t), dilator.compare_at(n, t, s)
                report.check(
                    v != EQ and v == -w,
                    lambda n=n, s=s, t=t: f"token order broken on {fmt(n, s)}, {fmt(n, t)}",
                )

    # the strict order of each sample as index pairs, once per arity
    below = {
        m: [(i, j) for i, s in enumerate(toks) for j, t in enumerate(toks)
            if dilator.compare_at(m, s, t) == LT]
        for m, toks in samples.items()
    }
    for (m, n), fs in embeddings.items():
        toks = samples[m]
        for f in fs:
            mapped = [dilator.map_token(f, tok) for tok in toks]
            for tok, image in zip(toks, mapped):
                # naturality of supports
                report.check(
                    dilator.supp_at(n, image) == finset_map(f, dilator.supp_at(m, tok)),
                    lambda m=m, n=n, f=f, tok=tok: (
                        f"support not natural for {fmt(m, tok)} along {f.images}->{n}"
                    ),
                )
            # strict monotonicity
            for i, j in below[m]:
                report.check(
                    dilator.compare_at(n, mapped[i], mapped[j]) == LT,
                    lambda m=m, n=n, f=f, s=toks[i], t=toks[j]: (
                        f"monotonicity broken: {fmt(m, s)} < {fmt(m, t)} "
                        f"but not after mapping along {f.images}->{n}"
                    ),
                )
            # composition law against every composable partner
            for p in range(n, max_n + 1):
                for g in embeddings[(n, p)]:
                    fg = compose(f, g)
                    for tok, image in zip(toks, mapped):
                        via = dilator.map_token(g, image)
                        direct = dilator.map_token(fg, tok)
                        report.check(
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
                report.check(True, "")
            except DilatorLawError as err:
                report.fail(str(err))
    return report


# ---------------------------------------------------------------------------
# the term order over one system


def _clause_less(system: System, s: ThetaTerm, t: ThetaTerm) -> bool:
    """Literal transcription of the two comparison clauses (used as a cross
    check against the production comparison, which fuses them)."""
    body = compare_coded(system.dilator, system.carrier_compare, s.body, t.body)
    if body == LT and all(
        system.compare(system.embed(x), t) == LT for x in s.body.support
    ):
        return True
    if body == GT and any(
        system.compare(s, system.embed(x)) != GT for x in t.body.support
    ):
        return True
    return False


def check_theta_linear(system: System, budget: int) -> CheckReport:
    """The term order over the system's carrier is linear: trichotomy and
    antisymmetry on all pairs (clause-level cross check included) and
    transitivity on all triples of the sample."""
    terms = System(system.tower, system).carrier_listing(budget)
    report = CheckReport(f"theta-linear:X{system.n + 1}", terms.exhaustive)
    items = terms.items
    size = len(items)
    matrix = [[system.compare(s, t) for t in items] for s in items]
    less = [[s is not t and _clause_less(system, s, t) for t in items] for s in items]
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            forward, backward = less[i][j], less[j][i]
            agreed = (matrix[i][j] == LT) == forward and (matrix[i][j] == GT) == backward
            report.check(
                forward != backward and agreed,
                lambda i=i, j=j: (
                    "trichotomy/antisymmetry broken between "
                    f"{format_term(system.dilator, items[i])} and "
                    f"{format_term(system.dilator, items[j])}"
                ),
            )
    below = [[j for j in range(size) if matrix[i][j] == LT] for i in range(size)]
    for i in range(size):
        row = matrix[i]
        for j in below[i]:
            for k in below[j]:
                report.check(
                    row[k] == LT,
                    lambda i=i, j=j, k=k: (
                        "transitivity broken on "
                        f"{format_term(system.dilator, items[i])} < "
                        f"{format_term(system.dilator, items[j])} < "
                        f"{format_term(system.dilator, items[k])}"
                    ),
                )
    return report


def _least_coded(
    dilator: Dilator, carried: Enumeration, budget: int, cap: int, cmp
) -> Enumeration:
    """The least ``cap`` coded elements over a carrier sample, sorted."""
    coded = coded_elements(dilator, carried, budget, cmp)
    return least(coded, cap, partial(compare_coded, dilator, cmp))


def _coded_sample(system: System, budget: int) -> Enumeration:
    base = system.carrier_listing(min(budget, BASE_SAMPLE_CAP))
    return _least_coded(system.dilator, base, budget, budget, system.carrier_compare)


def check_collapse_admissible(system: System, budget: int) -> CheckReport:
    """The stage collapse satisfies both collapse conditions, the subterm
    bound, and the redundancy of the order test in the second clause."""
    coded = _coded_sample(system, budget)
    report = CheckReport(f"collapse-admissible:X{system.n + 1}", coded.exhaustive)
    terms = [system.collapse(c) for c in coded]
    show = partial(format_term, system.dilator)
    _collapse_conditions(report, coded, terms, system.compare, system.embed, show)
    for term in terms:
        for r in system.subterm_closure(term):
            report.check(
                system.compare(r, term) != GT and r.length <= term.length,
                lambda r=r, term=term: f"subterm {show(r)} exceeds {show(term)}",
            )
    for i, s_term in enumerate(terms):
        for j, tau in enumerate(coded):
            if i == j:
                continue
            dominated = any(
                system.compare(s_term, system.embed(x)) != GT for x in tau.support
            )
            report.check(
                not dominated or system.compare(s_term, terms[j]) == LT,
                lambda s_term=s_term, j=j: (
                    f"redundancy claim broken: {show(s_term)} vs {show(terms[j])}"
                ),
            )
    return report


def check_goodness(system: System, budget: int) -> CheckReport:
    """The carrier embedding preserves lengths (the system equation) and the
    order (goodness)."""
    xs = system.carrier_listing(budget)
    report = CheckReport(f"goodness:X{system.n}", xs.exhaustive)
    fmt = lambda t: format_term(system.dilator, t)  # noqa: E731
    try:
        for x in xs:
            report.check(
                system.embed(x).length == system.length_of(x),
                lambda x=x: (
                    f"length equation broken at {fmt(x)}: "
                    f"L(iota(x)) = {system.embed(x).length} != {system.length_of(x)}"
                ),
            )
        for i, x in enumerate(xs):
            for y in xs[i + 1 :]:
                report.check(
                    system.compare(system.embed(x), system.embed(y)) == LT,
                    lambda x=x, y=y: (
                        f"iota not order preserving: {fmt(system.embed(x))} vs "
                        f"{fmt(system.embed(y))}"
                    ),
                )
    except SystemDefectError as err:
        report.fail(f"system defect: {err}")
    return report


def check_commuting_square(system: System, budget: int) -> CheckReport:
    """Embedding after collapsing equals collapsing the relabelled element,
    as syntactic identity of interned terms.  ``embed`` is defined by the
    square, so this tests that ``collapse`` interns one term per body; it
    stays as the paper's law."""
    coded = _coded_sample(system, budget)
    report = CheckReport(f"commuting-square:X{system.n + 1}", coded.exhaustive)
    nxt = System(system.tower, system)
    for sigma in coded:
        left = nxt.embed(system.collapse(sigma))
        right = nxt.collapse(map_coded(system.embed, sigma))
        report.check(
            left is right,
            lambda left=left, right=right: (
                f"square does not commute: {format_term(system.dilator, left)} vs "
                f"{format_term(system.dilator, right)}"
            ),
        )
    return report


# ---------------------------------------------------------------------------
# the limit order


def check_fixed_point(
    tower: Tower,
    budget: int,
    stage_bound: int = LIMIT_STAGES,
    sample_cap: int = SAMPLE_CAP,
    carrier_cap: int = BASE_SAMPLE_CAP,
) -> CheckReport:
    """The glued collapse satisfies both collapse conditions over the limit
    order, is independent of the stage it is computed at, and every sampled
    element of T over the limit comes from a finite stage."""
    carried = least(tower.enumerate(stage_bound, budget), carrier_cap, tower.compare)
    coded = _least_coded(tower.dilator, carried, budget, sample_cap, tower.compare)
    report = CheckReport("fixed-point", coded.exhaustive)
    show = partial(format_bh, tower.dilator)
    values = []
    for sigma in coded:
        value = tower.collapse(sigma)
        values.append(value)
        first = birth_stage(value)
        report.check(
            all(tower.flatten(tower.stage(m).embed(value)) is value for m in (first, first + 1)),
            lambda value=value: f"collapse depends on the stage for {show(value)}",
        )
        # finite-stage absorption round trip
        report.check(
            map_coded(tower.flatten, tower.stage(first).embed(value).body) == sigma,
            lambda value=value: f"stage absorption broken for {show(value)}",
        )
    _collapse_conditions(report, coded, values, tower.compare, _identity, show)
    return report


def check_limit_order(tower: Tower, budget: int) -> CheckReport:
    """The limit order is the stage order: on every pair of sampled limit
    elements it agrees with the comparison of their representatives (the
    stage iota of the element) at the least common stage, and flattening a
    representative gives the element back."""
    elements = tower.enumerate(LIMIT_STAGES, budget)
    report = CheckReport("limit-order", elements.exhaustive)
    dil = tower.dilator
    for e in elements:
        for m in range(birth_stage(e), LIMIT_STAGES):
            report.check(
                tower.flatten(tower.stage(m).embed(e)) is e,
                lambda e=e, m=m: f"flatten after lift to X{m + 1} moved {format_bh(dil, e)}",
            )
    for i, a in enumerate(elements):
        for b in elements[i + 1 :]:
            m = max(birth_stage(a), birth_stage(b))
            stage = tower.stage(m)
            staged = stage.compare(stage.embed(a), stage.embed(b))
            report.check(
                tower.compare(a, b) == staged,
                lambda a=a, b=b, m=m: (
                    f"limit order differs from the stage-{m} order on "
                    f"{format_bh(dil, a)}, {format_bh(dil, b)}"
                ),
            )
    return report


def check_witness(
    witness: Witness, dilator: Dilator, budget: int, carrier_cap: int = BASE_SAMPLE_CAP
) -> CheckReport:
    """Both collapse conditions for an external witness, on a sample of
    coded elements over the witness order."""
    carried = least(witness.enumerate(budget), carrier_cap, witness.compare)
    items = _least_coded(dilator, carried, budget, budget, witness.compare)
    report = CheckReport("witness", items.exhaustive)
    try:
        values = [witness.collapse(sigma) for sigma in items]
    except WitnessLawError as err:
        report.fail(f"collapse undefined on a sampled element: {err}")
        return report
    _collapse_conditions(report, items, values, witness.compare, _identity, witness.format)
    return report


def check_minimality(tower: Tower, witness: Witness, budget: int) -> CheckReport:
    """Interpretations extend stage by stage (defining equation, embedding
    property) and glue to an order embedding of the limit into the witness."""
    report = CheckReport("minimality")
    dil = tower.dilator
    try:
        ip = interpretation_at(witness, 0)
        for n in range(LIMIT_STAGES):
            nxt = extend_interpretation(witness, ip)
            xs = tower.stage(n).carrier_listing(budget)
            report.exhaustive &= xs.exhaustive
            for x in xs:
                report.check(
                    witness.compare(nxt(tower.stage(n).embed(x)), ip(x)) == 0,
                    lambda x=x: f"extension equation broken at {format_term(dil, x)}",
                )
            xs1 = tower.stage(n + 1).carrier_listing(budget)
            report.exhaustive &= xs1.exhaustive
            for i, s in enumerate(xs1):
                for t in xs1[i + 1 :]:
                    report.check(
                        witness.compare(nxt(s), nxt(t)) < 0,
                        lambda s=s, t=t: (
                            f"stage map not an embedding on {format_term(dil, s)}, "
                            f"{format_term(dil, t)}"
                        ),
                    )
            ip = nxt
        elements = tower.enumerate(LIMIT_STAGES, budget)
        report.exhaustive &= elements.exhaustive
        images = [embed_bh(witness, e) for e in elements]
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                report.check(
                    witness.compare(images[i], images[j]) < 0,
                    lambda i=i, j=j: (
                        f"limit embedding not order preserving on "
                        f"{format_bh(dil, elements[i])}, {format_bh(dil, elements[j])}"
                    ),
                )
        for e, image in zip(elements, images):
            born = birth_stage(e)
            later = interpretation_at(witness, born + 2)
            report.check(
                witness.compare(later(tower.stage(born + 1).embed(e)), image) == 0,
                lambda e=e: f"gluing inconsistent across stages at {format_bh(dil, e)}",
            )
    except WitnessLawError as err:
        report.fail(f"witness law violation: {err}")
    return report


# ---------------------------------------------------------------------------
# suites


class _ErasedSupports(Dilator):
    """Deliberately broken wrapper: forgets every support, which destroys the
    factorization condition unless the inner supports are already empty.
    Test hook for the failure paths."""

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

    def restrict_token(self, n, tok, positions):
        # The erased support is always empty, and by the inner dilator's own
        # factorization a token factors through the empty inclusion exactly
        # when its inner support is empty.
        if self.inner.supp_at(n, tok):
            raise DilatorLawError(
                f"{self.name}: no preimage of {self.format_token(n, tok)} under the "
                f"inclusion of {tuple(positions)} into 0..{n - 1}; "
                "support factorization failed"
            )
        return self.inner.restrict_token(n, tok, positions)

    def format_token(self, n, tok):
        return self.inner.format_token(n, tok)

    def parse_token(self, n, text):
        return self.inner.parse_token(n, text)


def erase_supports(dilator: Dilator) -> Dilator:
    return _ErasedSupports(dilator)


SUITES = ("all", "laws", "theta", "fixedpoint", "minimality")


def run_suite(dilator: Dilator, suite: str = "all", budget: int = 50) -> list[CheckReport]:
    """Run one of the named suites; reports come back sorted by check name.

    ``budget`` is the token budget per arity; the term budget per stage and
    the coded samples are capped at ``TERMS_CAP`` and ``SAMPLE_CAP``.  The
    stage checks cover X_1..X_LIMIT_STAGES, and the successor dilator is
    witnessed by the naturals, every other dilator by its own limit.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    terms, sample_cap = min(budget, TERMS_CAP), min(budget, SAMPLE_CAP)
    tower = Tower(dilator)
    reports: list[CheckReport] = []
    if suite in ("all", "laws"):
        reports.append(check_dilator_laws(dilator, budget=budget))
    if suite in ("all", "theta"):
        for n in range(LIMIT_STAGES):
            stage = tower.stage(n)
            reports.append(check_theta_linear(stage, terms))
            reports.append(check_collapse_admissible(stage, terms))
            reports.append(check_commuting_square(stage, terms))
            reports.append(check_goodness(tower.stage(n + 1), terms))
    if suite in ("all", "fixedpoint"):
        reports.append(check_fixed_point(tower, terms, sample_cap=sample_cap))
        reports.append(check_limit_order(tower, terms))
    if suite in ("all", "minimality"):
        w = OmegaSuccessorWitness() if dilator.name == "successor" else SelfWitness(tower)
        reports.append(check_witness(w, dilator, sample_cap))
        reports.append(check_minimality(tower, w, terms))
    reports.sort(key=lambda r: r.name)
    return reports
