"""Budget-bounded checks turning the construction's laws into pass/fail reports.

Every check enumerates a finite sample (exhaustive where the underlying
sets are finite and fit the budget, flagged otherwise), tests the law on
each instance, and returns a :class:`CheckReport`.  A check counts its
instances one at a time or a whole loop at once, and records failures in
instance order either way.  Counterexamples are serialized in the external
term grammar so they can be replayed with the CLI ``compare`` command.
Checks are independent and deterministic given (dilator, budget): same
inputs, same instance counts, same verdicts.
"""

from __future__ import annotations

from functools import partial

from . import SUITES
from .dilator import Dilator, compare_coded, map_coded, normal_form
from .errors import DilatorLawError, SystemDefectError, WitnessLawError
from .finite_orders import (
    EQ,
    GT,
    LT,
    all_embeddings,
    compose,
    finset_map,
    identity_embedding,
)
from .interpret import OmegaSuccessorWitness, interpretation
from .limits import BASE_SAMPLE_CAP, LIMIT_STAGES, SAMPLE_CAP, TERMS_CAP, Tower, birth_stage
from .syntax import format_bh, format_term
from .systems import System, ThetaTerm

_MAX_RECORDED_FAILURES = 12

MAX_ORDER = 4    # largest finite order for the dilator-law checks


class CheckReport:
    """Outcome of one law check, counted instance by instance (``check``)
    or a loop at a time (``tally``); failures are recorded in instance
    order either way.

    ``exhaustive`` is True only when every enumeration feeding the check
    reported completeness, i.e. the law was verified on *all* instances at
    this scale rather than on a sample.  At most ``_MAX_RECORDED_FAILURES``
    failures are recorded; ``overflow`` counts the rest.
    """

    __slots__ = ("name", "exhaustive", "instances", "failures", "overflow")

    def __init__(self, name: str, exhaustive: bool = True) -> None:
        self.name = name
        self.exhaustive = exhaustive
        self.instances = 0
        self.failures: list[str] = []
        self.overflow = 0

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(name={self.name!r}, exhaustive={self.exhaustive!r}, "
            f"instances={self.instances!r}, failures={self.failures!r}, "
            f"overflow={self.overflow!r})"
        )

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, describe) -> None:
        """Count one instance; on failure record ``describe`` (or its call)."""
        if ok:
            self.instances += 1
        else:
            self.tally(1, (describe,))

    def tally(self, count: int, failing) -> None:
        """Count ``count`` instances at once.  ``failing`` yields, in
        instance order, a description (or a callable building it) for each
        failing instance; only the recorded ones are built."""
        self.instances += count
        for describe in failing:
            if len(self.failures) < _MAX_RECORDED_FAILURES:
                self.failures.append(describe() if callable(describe) else describe)
            else:
                self.overflow += 1

    def fail(self, message: str) -> None:
        self.check(False, message)

    def __enter__(self) -> "CheckReport":
        return self

    def __exit__(self, kind, err, traceback) -> bool | None:
        """``with report:`` ends its block at a :class:`SystemDefectError`
        (say, a stage refusing an element born above it) with one failing
        ``system defect`` line, and clears ``exhaustive``."""
        if isinstance(err, SystemDefectError):
            self.fail(f"system defect: {err}")
            self.exhaustive = False
            return True

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
    lifted = [[embed(x) for x in sigma.support] for sigma in coded]
    report.tally(sum(map(len, lifted)), (
        lambda x=x, value=value: f"condition (ii) broken: {show(x)} not below {show(value)}"
        for xs, value in zip(lifted, values) for x in xs if compare(x, value) >= 0
    ))
    # One instance per ordered pair i != j.  The sample is sorted, so sigma
    # < tau iff i < j, and a pair with j < i holds for want of a premise.
    size = len(coded)
    report.tally(size * (size - 1), (
        lambda i=i, j=j: f"condition (i) broken: {show(values[i])} vs {show(values[j])}"
        for i, xs in enumerate(lifted) for j in range(i + 1, size)
        if all(compare(x, values[j]) < 0 for x in xs) and compare(values[i], values[j]) >= 0
    ))


# ---------------------------------------------------------------------------
# dilator laws


def check_dilator_laws(
    dilator: Dilator, max_n: int = MAX_ORDER, budget: int = 50
) -> CheckReport:
    """Functoriality, strict monotonicity, support naturality, and the
    support factorization condition, over all embeddings between orders of
    size <= max_n and all sampled tokens; the factorization instance of a
    token also tests its support size against ``support_bound``."""
    samples = {n: dilator.sample_at(n, budget) for n in range(max_n + 1)}
    report = CheckReport("dilator-laws", all(s.exhaustive for s in samples.values()))
    embeddings = {
        (m, n): all_embeddings(m, n) for m in range(max_n + 1) for n in range(m, max_n + 1)
    }
    fmt = dilator.format_token
    # The images of each arity's sample along each embedding, mapped once
    # and filled on demand.
    table: dict = {}

    def mapped(f):
        images = table.get(f)
        if images is None:
            images = table[f] = [dilator.map_token(f, tok) for tok in samples[f.domain_size]]
        return images

    below = {}
    for n, toks in samples.items():
        size = len(toks)
        report.tally(size, (
            lambda tok=tok: f"identity action changed {fmt(n, tok)}"
            for tok, image in zip(toks, mapped(identity_embedding(n)))
            if dilator.compare_at(n, image, tok) != EQ
        ))
        # Order sanity at each arity: trichotomy and antisymmetry of
        # compare_at, from one matrix that also gives the strict order as
        # index pairs.  The diagonal stays, so a token below itself shows.
        order = [[dilator.compare_at(n, s, t) for t in toks] for s in toks]
        report.tally(size * (size - 1) // 2, (
            lambda s=toks[i], t=toks[j]: f"token order broken on {fmt(n, s)}, {fmt(n, t)}"
            for i in range(size) for j in range(i + 1, size)
            if order[i][j] == EQ or order[i][j] != -order[j][i]
        ))
        below[n] = [(i, j) for i, row in enumerate(order) for j, v in enumerate(row) if v == LT]

    supports = {m: [dilator.supp_at(m, tok) for tok in toks] for m, toks in samples.items()}
    for (m, n), fs in embeddings.items():
        toks = samples[m]
        for f in fs:
            images = mapped(f)
            # naturality of supports
            report.tally(len(toks), (
                lambda tok=tok: f"support not natural for {fmt(m, tok)} along {f.images}->{n}"
                for tok, image, supp in zip(toks, images, supports[m])
                if dilator.supp_at(n, image) != finset_map(f, supp)
            ))
            # strict monotonicity
            report.tally(len(below[m]), (
                lambda s=toks[i], t=toks[j]: (
                    f"monotonicity broken: {fmt(m, s)} < {fmt(m, t)} "
                    f"but not after mapping along {f.images}->{n}"
                )
                for i, j in below[m] if dilator.compare_at(n, images[i], images[j]) != LT
            ))
            # composition law against every composable partner
            for p in range(n, max_n + 1):
                for g in embeddings[(n, p)]:
                    report.tally(len(toks), (
                        lambda tok=tok: f"composition law broken on {fmt(m, tok)} at arity {p}"
                        for tok, image, direct in zip(toks, images, mapped(compose(f, g)))
                        if dilator.compare_at(p, direct, dilator.map_token(g, image)) != EQ
                    ))

    # support factorization: every token is the image of a unique
    # full-support token under the inclusion of its support, which is no
    # larger than the dilator's support bound
    for n, toks in samples.items():
        bound = dilator.support_bound(n, budget)
        for tok, supp in zip(toks, supports[n]):
            try:
                normal_form(dilator, n, tok)
                report.check(
                    len(supp) <= bound,
                    lambda tok=tok, size=len(supp): (
                        f"support of {fmt(n, tok)} has {size} elements, above "
                        f"support_bound({n}, {budget}) = {bound}"
                    ),
                )
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
    report = CheckReport(f"theta-linear:X{system.n + 1}", False)
    with report:
        terms = system.tower.listing(system.n + 1, budget)
        report.exhaustive = terms.exhaustive
        items, size = terms.items, len(terms)
        matrix = [[system.compare(s, t) for t in items] for s in items]
        less = [[s is not t and _clause_less(system, s, t) for t in items] for s in items]
        show = partial(format_term, system.dilator)

        def broken(i, j):
            forward, backward = less[i][j], less[j][i]
            verdict = matrix[i][j]
            return forward == backward or (verdict == LT) != forward or (verdict == GT) != backward

        report.tally(size * (size - 1), (
            lambda i=i, j=j: (
                f"trichotomy/antisymmetry broken between {show(items[i])} and {show(items[j])}"
            )
            for i in range(size) for j in range(size) if i != j and broken(i, j)
        ))
        below = [[j for j in range(size) if row[j] == LT] for row in matrix]
        report.tally(sum(len(below[j]) for js in below for j in js), (
            lambda i=i, j=j, k=k: (
                f"transitivity broken on {show(items[i])} < {show(items[j])} < {show(items[k])}"
            )
            for i, row in enumerate(matrix) for j in below[i] for k in below[j] if row[k] != LT
        ))
    return report


def check_collapse_admissible(system: System, budget: int) -> CheckReport:
    """The stage collapse satisfies both collapse conditions, the subterm
    bound, and the redundancy of the order test in the second clause."""
    report = CheckReport(f"collapse-admissible:X{system.n + 1}", False)
    with report:
        coded = system.tower.coded_sample(system.n, budget)
        report.exhaustive = coded.exhaustive
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
    order (goodness).  The terms are shared across the stages, so the
    length equation holds by construction; its lines stay as the paper's
    law.  The listing is in the limit order and the stage compares in the
    full order, so the order lines test the two against each other."""
    report = CheckReport(f"goodness:X{system.n}", False)
    fmt = lambda t: format_term(system.dilator, t)  # noqa: E731
    with report:
        xs = system.tower.listing(system.n, budget)
        report.exhaustive = xs.exhaustive
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
    return report


def check_commuting_square(system: System, budget: int) -> CheckReport:
    """Embedding after collapsing equals collapsing the relabelled element in
    the tower's next stage, as syntactic identity of interned terms.  The
    terms are shared across the stages and ``embed`` is the inclusion, so
    the square holds by construction; it stays as the paper's law."""
    report = CheckReport(f"commuting-square:X{system.n + 1}", False)
    with report:
        coded = system.tower.coded_sample(system.n, budget)
        report.exhaustive = coded.exhaustive
        nxt = system.tower.stage(system.n + 1)
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
    element of T over the limit comes from a finite stage.  The terms are
    shared across the stages, so stage independence and absorption hold by
    construction; their lines stay as the paper's laws."""
    report = CheckReport("fixed-point", False)
    show = partial(format_bh, tower.dilator)
    with report:
        elements = tower.enumerate(stage_bound, budget)
        coded = tower.select(elements, carrier_cap, budget, sample_cap, tower)
        report.exhaustive = coded.exhaustive
        values = []
        for sigma in coded:
            value = tower.collapse(sigma)
            values.append(value)
            first = birth_stage(value)
            report.check(
                all(tower.stage(m).embed(value) is value for m in (first, first + 1)),
                lambda value=value: f"collapse depends on the stage for {show(value)}",
            )
            # finite-stage absorption round trip
            report.check(
                tower.stage(first).embed(value).body == sigma,
                lambda value=value: f"stage absorption broken for {show(value)}",
            )
        _collapse_conditions(report, coded, values, tower.compare, _identity, show)
    return report


def check_limit_order(tower: Tower, budget: int) -> CheckReport:
    """The limit order is the stage order: on every pair of sampled limit
    elements it agrees with the comparison of their representatives (the
    stage iota of the element) at the least common stage, and lifting an
    element to a stage gives the element back.  The terms are shared across
    the stages, so the lift holds by construction; its lines stay as the
    paper's law.  The stages compare in the tower's full order, which checks
    every clause, and the limit settles supports through the merge: so this
    tests the settled recursion against the full one.  Their memos are
    apart, so neither reads the other's verdicts."""
    report = CheckReport("limit-order", False)
    dil = tower.dilator
    with report:
        elements = tower.enumerate(LIMIT_STAGES, budget)
        report.exhaustive = elements.exhaustive
        for e in elements:
            for m in range(birth_stage(e), LIMIT_STAGES):
                report.check(
                    tower.stage(m).embed(e) is e,
                    lambda e=e, m=m: f"lift to X{m + 1} moved {format_bh(dil, e)}",
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
    witness, tower: Tower, budget: int, carrier_cap: int = BASE_SAMPLE_CAP
) -> CheckReport:
    """Both collapse conditions for a witness (:mod:`bhfix.interpret`) of the
    tower's dilator, on a sample of coded elements over the witness order,
    cut by the tower.  A witness sample that is not sorted in the witness
    order fails the check with a ``system defect`` line."""
    report = CheckReport("witness", False)
    with report:
        items = tower.select(witness.sample(budget), carrier_cap, budget, budget, witness)
        report.exhaustive = items.exhaustive
        try:
            values = [witness.collapse(sigma) for sigma in items]
        except WitnessLawError as err:
            report.fail(f"collapse undefined on a sampled element: {err}")
            return report
        _collapse_conditions(report, items, values, witness.compare, _identity, witness.format)
    return report


def check_minimality(tower: Tower, witness, budget: int) -> CheckReport:
    """The interpretation h of the limit into the witness, restricted to
    each stage, satisfies the extension equation and is an order embedding;
    on the limit it is an order embedding that agrees with its stage
    restrictions (gluing).  One h serves every line.  The terms are shared
    across the stages, so the extension equation and the gluing hold by
    construction; their lines stay as the paper's law."""
    report = CheckReport("minimality")
    dil = tower.dilator
    h = interpretation(witness)
    with report:
        try:
            for n in range(LIMIT_STAGES):
                stage = tower.stage(n)
                xs = tower.listing(n, budget)
                report.exhaustive &= xs.exhaustive
                for x in xs:
                    report.check(
                        witness.compare(h(stage.embed(x)), h(x)) == 0,
                        lambda x=x: f"extension equation broken at {format_term(dil, x)}",
                    )
                xs1 = tower.listing(n + 1, budget)
                report.exhaustive &= xs1.exhaustive
                for i, s in enumerate(xs1):
                    for t in xs1[i + 1 :]:
                        report.check(
                            witness.compare(h(s), h(t)) < 0,
                            lambda s=s, t=t: (
                                f"stage map not an embedding on {format_term(dil, s)}, "
                                f"{format_term(dil, t)}"
                            ),
                        )
            elements = tower.enumerate(LIMIT_STAGES, budget)
            report.exhaustive &= elements.exhaustive
            images = [h(e) for e in elements]
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
                report.check(
                    witness.compare(h(tower.stage(birth_stage(e) + 1).embed(e)), image) == 0,
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
        # every other operation is the inner dilator's own, bound once so
        # that a token operation makes no extra call
        self.compare_at = inner.compare_at
        self.map_token = inner.map_token
        self.sample_at = inner.sample_at
        self.format_token = inner.format_token
        self.parse_token = inner.parse_token

    def supp_at(self, n, tok):
        return ()

    def support_bound(self, n, budget):
        return 0

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


def erase_supports(dilator: Dilator) -> Dilator:
    return _ErasedSupports(dilator)


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
        w = OmegaSuccessorWitness() if dilator.name == "successor" else tower
        reports.append(check_witness(w, tower, sample_cap))
        reports.append(check_minimality(tower, w, terms))
    reports.sort(key=lambda r: r.name)
    return reports
