import pytest
from hypothesis import given
from hypothesis import strategies as st

from bhfix.finite_orders import (
    Embedding,
    all_embeddings,
    compose,
    finset_map,
    identity_embedding,
    is_strictly_sorted,
    sgn,
)

int_cmp = lambda a, b: sgn(a - b)  # noqa: E731


def test_identity_embedding_cases():
    assert identity_embedding(0).images == ()
    assert identity_embedding(3).images == (0, 1, 2)
    assert identity_embedding(1).images == (0,)


def test_compose_direct_evaluation():
    f = Embedding((0, 2), 3)
    g = Embedding((0, 1, 3), 4)
    h = compose(f, g)
    assert h.images == (0, 3)
    assert h.codomain_size == 4


def test_compose_identity_and_empty():
    g = Embedding((1, 2, 4), 5)
    assert compose(identity_embedding(3), g) == g
    e = compose(Embedding((), 0), Embedding((), 5))
    assert e.images == () and e.codomain_size == 5


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(Embedding((0,), 2), Embedding((0,), 3))


def test_embedding_invariants_enforced():
    with pytest.raises(ValueError):
        Embedding((1, 1), 3)
    with pytest.raises(ValueError):
        Embedding((2, 1), 3)
    with pytest.raises(ValueError):
        Embedding((0, 3), 3)


def test_compose_strictly_increasing_exhaustive_small():
    # all composable pairs between orders of size <= 4
    for m in range(5):
        for n in range(m, 5):
            for p in range(n, 5):
                for f in all_embeddings(m, n):
                    for g in all_embeddings(n, p):
                        h = compose(f, g)
                        assert all(a < b for a, b in zip(h.images, h.images[1:]))


@st.composite
def embedding_chains(draw):
    a, b, c, d = sorted(draw(st.tuples(*[st.integers(0, 6)] * 4)))
    f = draw(st.sampled_from(all_embeddings(a, b)))
    g = draw(st.sampled_from(all_embeddings(b, c)))
    h = draw(st.sampled_from(all_embeddings(c, d)))
    return f, g, h


@given(embedding_chains())
def test_compose_associative(chain):
    f, g, h = chain
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(embedding_chains())
def test_compose_identity_laws(chain):
    f, _, _ = chain
    assert compose(identity_embedding(f.domain_size), f) == f
    assert compose(f, identity_embedding(f.codomain_size)) == f


def test_finset_map():
    assert finset_map(lambda x: x + 1, (0, 2)) == (1, 3)
    assert finset_map(lambda x: x * x, ()) == ()
    assert finset_map(lambda x: x, (5, 7)) == (5, 7)


def test_finset_map_preserves_cardinality_when_injective():
    f = Embedding((1, 4, 5), 6)
    members = (0, 1, 2)
    assert len(finset_map(f, members)) == len(members)
    assert is_strictly_sorted((1, 2, 3), int_cmp)
    assert not is_strictly_sorted((1, 1), int_cmp)
