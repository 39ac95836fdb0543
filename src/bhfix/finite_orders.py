"""Skeletal finite linear orders, their embeddings, and finite subsets.

A finite order of size n is always the chain 0 < 1 < ... < n-1.  Arbitrary
finite carriers appear only as strictly sorted tuples together with an
explicit comparison function cmp(a, b) -> negative | 0 | positive (the
``functools.cmp_to_key`` convention).  Finite subsets are plain sorted
tuples; there is deliberately no wrapper class around them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

E = TypeVar("E")
Cmp = Callable

LT, EQ, GT = -1, 0, 1


def sgn(x: int) -> int:
    return (x > 0) - (x < 0)


class Frozen:
    """Base of the package's immutable value classes: a field is set once,
    when the value is built, and never again.  Plain assignment raises, so a
    constructor sets a slot through ``object.__setattr__``, or on a hot path
    through the slot's own setter (``Cls.field.__set__``), which skips the
    lookup by name."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild a value through its constructor, which
        # takes the fields in slot order
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Embedding(Frozen):
    """Strictly increasing map {0..m-1} -> {0..n-1} with m = len(images).

    Equal exactly when images and codomain size are."""

    __slots__ = ("images", "codomain_size")

    def __init__(self, images: tuple[int, ...], codomain_size: int) -> None:
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "codomain_size", codomain_size)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images and self.codomain_size == other.codomain_size

    def __hash__(self) -> int:
        return hash((self.images, self.codomain_size))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(images={self.images!r}, "
            f"codomain_size={self.codomain_size!r})"
        )

    def __post_init__(self) -> None:
        # The constructor's validation; ``trusted`` skips it.  ``__init__``
        # calls it through the class, so perfbench's tracer can wrap it.
        prev = -1
        for i in self.images:
            if not isinstance(i, int) or i <= prev:
                raise ValueError(f"images must be strictly increasing naturals: {self.images}")
            prev = i
        if prev >= self.codomain_size:
            raise ValueError(
                f"image {prev} out of range for codomain of size {self.codomain_size}"
            )

    @classmethod
    def trusted(cls, images: tuple[int, ...], codomain_size: int) -> "Embedding":
        """An embedding whose images are strictly increasing and in range by
        construction; skips the validation of the public constructor."""
        f = object.__new__(cls)
        _set_images(f, images)
        _set_codomain_size(f, codomain_size)
        return f

    @property
    def domain_size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]


# the slot setters of ``trusted`` (see ``Frozen``)
_set_images = Embedding.images.__set__
_set_codomain_size = Embedding.codomain_size.__set__


def identity_embedding(n: int) -> Embedding:
    return Embedding(tuple(range(n)), n)


def compose(f: Embedding, g: Embedding) -> Embedding:
    """Diagrammatic composition: first f, then g."""
    if f.codomain_size != g.domain_size:
        raise ValueError(
            f"cannot compose {f.domain_size}->{f.codomain_size} with "
            f"{g.domain_size}->{g.codomain_size}"
        )
    return Embedding(tuple(g.images[i] for i in f.images), g.codomain_size)


def all_embeddings(m: int, n: int) -> list[Embedding]:
    """Every strictly increasing map m -> n (exhaustive; used by law checks)."""
    from itertools import combinations

    return [Embedding(c, n) for c in combinations(range(n), m)]


def finset_map(f: Callable[[E], object], members: Iterable[E]) -> tuple:
    """Image of a finite subset under a strictly order-preserving map."""
    return tuple(f(x) for x in members)


def is_strictly_sorted(items: Sequence[E], cmp: Cmp) -> bool:
    return all(cmp(a, b) < 0 for a, b in zip(items, items[1:]))
