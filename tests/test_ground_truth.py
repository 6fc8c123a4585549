"""Ground truth: Kahler surfaces, written as records, against every verdict.

Each record is a compact complex surface with a Kahler metric, so it
carries an almost complex, a symplectic and a complex structure.  No
engine may answer NotExists for any of them, and the almost-complex
witness must have the square 3*tau + 2*chi and the parity of w2.  The
invariants (chi, tau, b1, H1, the form) are written from the topology,
not computed by the engine; the records must validate.
"""

import pytest

from fourfold.abelian import AbelianGroup
from fourfold.classification import exclude_complex, exclude_symplectic
from fourfold.forms import IntegerMatrix, IntersectionForm
from fourfold.obstruction import (
    ManifoldInvariants,
    SpinStatus,
    VerdictStatus,
    decide_almost_complex,
    is_spin,
    resolve_w2,
    validate_invariants,
)
from oracles import E8_ROWS, H_ROWS, block_sum, quadratic_value

NEG_E8 = [[-x for x in row] for row in E8_ROWS]
MINUS_ONE = [[-1]]


def _diag(*entries):
    return [[e if i == j else 0 for j in range(len(entries))] for i, e in enumerate(entries)]


def _surface(name, chi, tau, blocks, b1=0, torsion=(), spin=False):
    """(record, whether the surface is spin)."""
    record = ManifoldInvariants(
        name=name,
        chi=chi,
        tau=tau,
        form=IntersectionForm(IntegerMatrix(block_sum(*blocks))),
        b1=b1,
        h1=AbelianGroup(b1, torsion),
    )
    return record, spin


def _elliptic(n):
    """E(n): chi = 12n, tau = -8n; even form n(-E8) + (2n-1)H exactly when n is even."""
    if n % 2:
        b_plus, b_minus = 2 * n - 1, 10 * n - 1
        blocks = [_diag(*[1] * b_plus, *[-1] * b_minus)]
    else:
        blocks = [NEG_E8] * n + [H_ROWS] * (2 * n - 1)
    return _surface(f"E({n})", 12 * n, -8 * n, blocks, spin=n % 2 == 0)


SURFACES = [
    *(_surface(f"CP2 # {k} CP2bar", 3 + k, 1 - k, [_diag(1, *[-1] * k)]) for k in range(10)),
    _surface("S2xS2", 4, 0, [H_ROWS], spin=True),
    _elliptic(2),  # K3
    _elliptic(3),
    _elliptic(4),
    _surface("Enriques", 12, -8, [NEG_E8, H_ROWS], torsion=(2,)),
    _surface("T4", 0, 0, [H_ROWS] * 3, b1=4, spin=True),
    *(
        _surface(
            f"Sigma{g} x Sigma{h}", 4 * (1 - g) * (1 - h), 0,
            [H_ROWS] * (2 * g * h + 1), b1=2 * g + 2 * h, spin=True,
        )
        for h in range(4)
        for g in range(h + 1)
    ),
    _surface("K3 # CP2bar", 25, -17, [NEG_E8, NEG_E8] + [H_ROWS] * 3 + [MINUS_ONE]),
    _surface("T4 # 2 CP2bar", 2, -2, [H_ROWS] * 3 + [MINUS_ONE, MINUS_ONE], b1=4),
    _surface("Enriques # CP2bar", 13, -9, [NEG_E8, H_ROWS, MINUS_ONE], torsion=(2,)),
]
IDS = [m.name for m, _ in SURFACES]


@pytest.mark.parametrize("m, spin", SURFACES, ids=IDS)
def test_record_is_valid(m, spin):
    assert validate_invariants(m) == []


@pytest.mark.parametrize("m, spin", SURFACES, ids=IDS)
def test_almost_complex_exists(m, spin):
    verdict = decide_almost_complex(m)
    assert verdict.status is VerdictStatus.EXISTS
    coefficients = verdict.witness.coefficients
    target = 3 * m.tau + 2 * m.chi
    assert quadratic_value(m.form.matrix.entries(), coefficients) == target
    assert verdict.witness.square == target
    assert [c % 2 for c in coefficients] == list(resolve_w2(m))


@pytest.mark.parametrize("assume_pi1_distinct", [False, True])
@pytest.mark.parametrize("m, spin", SURFACES, ids=IDS)
def test_symplectic_and_complex_never_excluded(m, spin, assume_pi1_distinct):
    for engine in (exclude_symplectic, exclude_complex):
        verdict = engine(m, assume_pi1_distinct)
        assert verdict.status is not VerdictStatus.NOT_EXISTS, (engine.__name__, verdict)


@pytest.mark.parametrize("m, spin", SURFACES, ids=IDS)
def test_spin_never_contradicts(m, spin):
    # Indeterminate is honest; the opposite of the truth is not
    wrong = SpinStatus.NOT_SPIN if spin else SpinStatus.SPIN
    assert is_spin(m) is not wrong
