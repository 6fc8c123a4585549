"""Built-in manifold families M1(g), M2(g,n), M3(g,n), M4(n).

Four families of closed oriented spin 4-manifolds fibering over surfaces,
shipped as executable invariant records:

    M1(g)    chi = -4g,        tau = 0,  Q = H,        b1 = 2g + 2
    M2(g,n)  chi = 4 - 4g - 4n, tau = 0,  Q = H,        b1 = 2g + 2n
    M3(g,n)  chi = 4 - 4g - 4n, tau = 0,  Q = (n+1)H,   b1 = 2g + 3n
    M4(n)    chi = -2n,         tau = 0,  Q = nH,       b1 = 2n + 1

Parameters g and n are at least 1.  M1, M2 and M4 carry fundamental-group
presentations (abelianized relation vectors); M3 ships without one, since
its group has no usable finite description in this encoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .abelian import AbelianGroup, Presentation, parse_word
from .forms import IntersectionForm, read_int
from .obstruction import ManifoldInvariants


class FamilyParameterError(ValueError):
    """Family id with missing, extra or out-of-range parameters."""


_FAMILY_PARAMS = {"M1": ("g",), "M2": ("g", "n"), "M3": ("g", "n"), "M4": ("n",)}


@dataclass(frozen=True)
class FamilyId:
    """A family name plus its integer parameters."""

    kind: str
    g: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind not in _FAMILY_PARAMS:
            raise FamilyParameterError(f"unknown family {self.kind!r}")
        wanted = _FAMILY_PARAMS[self.kind]
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
        if kind not in _FAMILY_PARAMS:
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
            for key in _FAMILY_PARAMS[self.kind]
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


def _m1_presentation(g: int) -> Presentation:
    names = _surface_generators(g) + ["c", "d", "e", "f"]
    words = [
        _commutator_word(g) + " c d^-1",
        "e d e^-1 c^-1",
        "d f^3",
    ]
    return Presentation(
        len(names),
        tuple(parse_word(names, w) for w in words),
        generator_names=tuple(names),
    )


def _m2_presentation(g: int, n: int) -> Presentation:
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
    return Presentation(
        len(names),
        tuple(parse_word(names, w) for w in words),
        generator_names=tuple(names),
    )


def _m4_presentation(n: int) -> Presentation:
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
    return Presentation(
        len(names),
        tuple(parse_word(names, w) for w in words),
        generator_names=tuple(names),
    )


def family_invariants(fid: FamilyId) -> ManifoldInvariants:
    """The invariant record for one family member.

    All four families are spin with vanishing signature; w2 is recorded as
    the zero vector accordingly.
    """
    if fid.kind == "M1":
        g = fid.g
        form = IntersectionForm.hyperbolic(1)
        chi, b1 = -4 * g, 2 * g + 2
        presentation = _m1_presentation(g)
    elif fid.kind == "M2":
        g, n = fid.g, fid.n
        form = IntersectionForm.hyperbolic(1)
        chi, b1 = 4 - 4 * g - 4 * n, 2 * g + 2 * n
        presentation = _m2_presentation(g, n)
    elif fid.kind == "M3":
        g, n = fid.g, fid.n
        form = IntersectionForm.hyperbolic(n + 1)
        chi, b1 = 4 - 4 * g - 4 * n, 2 * g + 3 * n
        presentation = None
    else:
        n = fid.n
        form = IntersectionForm.hyperbolic(n)
        chi, b1 = -2 * n, 2 * n + 1
        presentation = _m4_presentation(n)
    return ManifoldInvariants(
        name=str(fid),
        chi=chi,
        tau=0,
        form=form,
        b1=b1,
        h1=AbelianGroup(b1),
        w2=(0,) * form.rank,
        presentation=presentation,
    )


def known_discrepancies(m: ManifoldInvariants) -> list[str]:
    """Notes on records whose documented properties clash with the criteria.

    Matching is on the invariant data itself (shape of the form, chi, tau,
    b1), so a record loaded from a file produces the same notes as one
    built by family_invariants.
    """
    notes = []
    k = m.form.hyperbolic_summands
    if (
        k is not None
        and k >= 3
        and k % 2 == 1
        and m.tau == 0
        and m.chi == -2 * k
        and m.b1 == 2 * k + 1
    ):
        notes.append(
            f"M4 family with odd n = {k}: the required square 3*tau + 2*chi "
            f"= {-4 * k} is not a multiple of 8, so no even class attains it, "
            "and odd-coefficient candidates violate the w2 congruence on a "
            "spin manifold; the construction said to carry an almost complex "
            "structure for every n > 1 fails the existence criterion here"
        )
    return notes
