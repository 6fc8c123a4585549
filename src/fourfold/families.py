"""Built-in manifold families M1(g), M2(g,n), M3(g,n), M4(n).

Four families of closed oriented spin 4-manifolds fibering over surfaces,
shipped as executable invariant records:

    M1(g)    chi = -4g,        tau = 0,  Q = H,        b1 = 2g + 2
    M2(g,n)  chi = 4 - 4g - 4n, tau = 0,  Q = H,        b1 = 2g + 2n
    M3(g,n)  chi = 4 - 4g - 4n, tau = 0,  Q = (n+1)H,   b1 = 2g + 3n
    M4(n)    chi = -2n,         tau = 0,  Q = nH,       b1 = 2n + 1

Parameters g and n are at least 1.  That table is data, _FAMILIES: one row
per family with its parameter names, its (chi, b1, k of Q = kH) formulas
and the builder of its relator words, which family_invariants reads by one
rule.  M1, M2 and M4 carry fundamental-group presentations, read from their
words by Presentation.from_words, which keeps the words, so a record's file
holds them; M3 ships without one, since its group has no usable finite
description in this encoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .abelian import AbelianGroup, Presentation
from .forms import IntersectionForm, read_int
from .obstruction import ManifoldInvariants, wu_target


class FamilyParameterError(ValueError):
    """Family id with missing, extra or out-of-range parameters."""


@dataclass(frozen=True)
class FamilyId:
    """A family name plus its integer parameters."""

    kind: str
    g: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise FamilyParameterError(f"unknown family {self.kind!r}")
        wanted = _FAMILIES[self.kind].params
        for key in ("g", "n"):
            value = getattr(self, key)
            if key in wanted:
                if value is None:
                    raise FamilyParameterError(f"{self.kind} needs parameter {key}")
                if value < 1:
                    raise FamilyParameterError(
                        f"{self.kind} parameter {key} must be >= 1, got {value}"
                    )
            elif value is not None:
                raise FamilyParameterError(f"{self.kind} takes no parameter {key}")

    @classmethod
    def parse(cls, spec: str) -> "FamilyId":
        """Parse CLI syntax like "M1 g=2" or "M3 g=1 n=4"."""
        tokens = re.findall(r"\S+", spec, re.ASCII)
        if not tokens:
            raise FamilyParameterError("empty family spec")
        kind = tokens[0]
        if kind not in _FAMILIES:
            raise FamilyParameterError(f"unknown family {kind!r}")
        params: dict[str, int] = {}
        for token in tokens[1:]:
            match = re.fullmatch(r"([gn])=([+-]?[0-9]+)", token)
            if not match:
                raise FamilyParameterError(f"cannot parse parameter {token!r}")
            key = match.group(1)
            if key in params:
                raise FamilyParameterError(f"duplicate parameter {key}")
            params[key] = read_int(match.group(2), f"parameter {key}", FamilyParameterError)
        return cls(kind, g=params.pop("g", None), n=params.pop("n", None))

    def __str__(self) -> str:
        inner = ", ".join(
            f"{key}={getattr(self, key)}"
            for key in _FAMILIES[self.kind].params
        )
        return f"{self.kind}({inner})"


def _surface_generators(g: int) -> list[str]:
    names = []
    for i in range(1, g + 1):
        names.extend((f"a{i}", f"b{i}"))
    return names


def _commutator_word(g: int) -> str:
    return " ".join(
        f"a{i}^-1 b{i}^-1 a{i} b{i}" for i in range(1, g + 1)
    )


Words = tuple[list[str], list[str]]  # generator names, relator words


def _m1_words(g: int) -> Words:
    names = _surface_generators(g) + ["c", "d", "e", "f"]
    words = [
        _commutator_word(g) + " c d^-1",
        "e d e^-1 c^-1",
        "d f^3",
    ]
    return names, words


def _m2_words(g: int, n: int) -> Words:
    names = _surface_generators(g)
    for i in range(1, n + 1):
        names.extend((f"c{i}", f"d{i}", f"e{i}"))
    long_word = (
        _commutator_word(g)
        + " "
        + " ".join(f"c{i}" for i in range(1, n + 1))
        + " "
        + " ".join(f"d{i}^-1" for i in range(n, 0, -1))
    )
    words = [long_word] + [
        f"e{i} d{i} e{i}^-1 c{i}^-1" for i in range(1, n + 1)
    ]
    return names, words


def _m4_words(n: int) -> Words:
    names = []
    for i in range(1, n + 1):
        names.extend((f"g{i}", f"h{i}", f"j{i}", f"k{i}", f"l{i}"))
    names.append("m")
    words = []
    for i in range(1, n + 1):
        words.extend(
            (
                f"k{i} h{i} k{i}^-1 g{i}",
                f"l{i}^-1 j{i} l{i} h{i}",
                f"g{i} h{i} j{i}",
            )
        )
    return names, words


class _Family(NamedTuple):
    params: tuple[str, ...]
    invariants: Callable[..., tuple[int, int, int]]  # (chi, b1, k) with Q = kH
    words: Callable[..., Words] | None


_FAMILIES = {
    "M1": _Family(("g",), lambda g: (-4 * g, 2 * g + 2, 1), _m1_words),
    "M2": _Family(("g", "n"), lambda g, n: (4 - 4 * g - 4 * n, 2 * g + 2 * n, 1), _m2_words),
    "M3": _Family(("g", "n"), lambda g, n: (4 - 4 * g - 4 * n, 2 * g + 3 * n, n + 1), None),
    "M4": _Family(("n",), lambda n: (-2 * n, 2 * n + 1, n), _m4_words),
}


def family_invariants(fid: FamilyId) -> ManifoldInvariants:
    """The invariant record for one family member, read off its _FAMILIES row.

    All four families are spin with vanishing signature; w2 is recorded as
    the zero vector accordingly.
    """
    family = _FAMILIES[fid.kind]
    args = [getattr(fid, key) for key in family.params]
    chi, b1, planes = family.invariants(*args)
    form = IntersectionForm.hyperbolic(planes)
    words = family.words and family.words(*args)  # M3 has none
    return ManifoldInvariants(
        name=str(fid),
        chi=chi,
        tau=0,
        form=form,
        b1=b1,
        h1=AbelianGroup(b1),
        w2=(0,) * form.rank,
        presentation=words and Presentation.from_words(*words),
    )


def known_discrepancies(m: ManifoldInvariants) -> list[str]:
    """Notes on records whose documented properties clash with the criteria.

    Matching is on the invariant data itself (shape of the form, chi, tau,
    b1), against the M4 row's formulas, so a record loaded from a file
    produces the same notes as one built by family_invariants.
    """
    notes = []
    k = m.form.hyperbolic_summands
    if (
        k is not None
        and k >= 3
        and k % 2 == 1
        and m.tau == 0
        and (m.chi, m.b1, k) == _FAMILIES["M4"].invariants(k)
    ):
        notes.append(
            f"M4 family with odd n = {k}: the required square 3*tau + 2*chi "
            f"= {wu_target(m.chi, m.tau)} is not a multiple of 8, so no even "
            "class attains it, and odd-coefficient candidates violate the w2 "
            "congruence on a spin manifold; the construction said to carry an "
            "almost complex structure for every n > 1 fails the existence "
            "criterion here"
        )
    return notes
