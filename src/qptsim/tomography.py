"""Linear-inversion estimators for input states, unitary devices and channels.

Everything here consumes correlation tables of the nine-setting Pauli
quorum.  The table T is the Pauli expansion of the output density
matrix, rho = sum_ij T_ij sigma_i x sigma_j / 4 for one pair; n pairs that
probe an n-qubit device form one bipartite state whose (4,)*2n table
expands the same way.  For a pure output |Psi>>, the column of rho at a
reference basis pair r = (n0, m0) is Psi Psi_r^*, so the coefficient
matrix is that column divided by sqrt(p) with p = rho[r, r] the
population of the reference pair; the global phase, which is
unmeasurable, comes out with the reference element real positive.  A
unitary device is recovered as U = M Psi_in^{-1} from the reconstructed
output coefficients M, and a general channel by undoing the probe state
on the untouched arms of the full output density matrix.

Estimators see only the data: a table and, for a device, the probe.  They
report raw linear inversion, with no renormalization and no positivity
projection.  Comparing an estimate with a known device is the caller's
step, by ``fidelity_unitary`` or ``distance_choi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import (
    _PAULI_STACK,
    BipartiteState,
    dagger,
    pairs,
    pauli_coefficients,
    pauli_expand,
    permute_qubits,
    tensor,
)
from .channels import propagate, unitary_channel
from .errors import (
    DataError,
    DegenerateReferenceError,
    IncompleteQuorumError,
    PlanError,
    UnfaithfulInputError,
    shown,
)
from .experiment import (
    SETTINGS,
    CorrelationTable,
    _check_integer,
    _check_seed,
    events_to_counts,
    table_from_counts,
)

REFERENCE_ORDER = ((0, 1), (1, 0), (1, 1), (0, 0))
# the least population select_reference takes; of four that sum to 1, one is at least 1/4
_REFERENCE_MIN = 1 / 8
P_FLOOR = 1e-6
MIN_RESAMPLES = 100
# Bounds a bootstrap's memory: the (B, 9, 4) int64 resampled counts take 29 MB
# at B = 1e5, and fig3 with that many resamples took 1.1 s and 147 MB peak RSS
# through the CLI (1.9 s and 184 MB with the Choi estimator) on a 2-core host.
MAX_RESAMPLES = 10**5


@dataclass(frozen=True)
class BootstrapPlan:
    """How many bootstrap resamples to draw, and with which seed.  Resamples outside
    MIN_RESAMPLES..MAX_RESAMPLES or a seed outside 0..MAX_SEED raise PlanError."""

    resamples: int = 1000
    seed: int = 0

    def __post_init__(self):
        n = self.resamples
        _check_integer("resamples", "the resample count", n)
        if not MIN_RESAMPLES <= n <= MAX_RESAMPLES:
            bound = f"least {MIN_RESAMPLES}" if n < MIN_RESAMPLES else f"most {MAX_RESAMPLES}"
            raise PlanError(("resamples",), f"must be at {bound}, got {shown(n)}")
        _check_seed("seed", self.seed)


_REF_LABEL = {(n, m): f"|{n}{m}>" for n in (0, 1) for m in (0, 1)}


@dataclass(frozen=True, eq=False)
class BootstrapErrors:
    """Element-wise bootstrap standard deviations, real and imaginary parts."""

    real: np.ndarray
    imag: np.ndarray
    n_resamples: int


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Estimated matrix plus gauge note and diagnostics.

    kind is one of input_state (2x2 coefficients), device_unitary (2x2) or
    device_choi (d^2 x d^2 for an n-qubit device, d = 2^n, trace normalized
    to the deterministic-channel convention).  From a batch of B tables the
    matrix has shape (B, ...) and diagnostics is empty.  Diagnostics, Python
    floats and strings, describe the estimate of a single table and read
    nothing but the data.
    """

    kind: str
    matrix: np.ndarray
    gauge: str
    diagnostics: dict


def _check_reference(reference) -> tuple[int, int]:
    ref = tuple(reference)
    if ref not in _REF_LABEL:
        raise ValueError(f"reference must be a pair of basis indices in 0/1, got {reference!r}")
    return ref


def _column_terms(ref: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The (16, 4) map T -> rho[:, ref], T_ij times sigma_i[a, n0] sigma_j[b, m0] / 4
    in element (a, b), as (4, 8) entry indices and weights: each element's
    real and imaginary part, interleaved, sums at most four entries times
    +-1/4, by j then i as sigma_.[:, n0]^T T sigma_.[:, m0] does; an empty
    slot adds +0.0 from entry (0, 0)."""
    coeff = np.einsum("ia,jb->abji", *(_PAULI_STACK[:, :, n] for n in ref)) / 4.0
    parts = np.stack([coeff.real, coeff.imag], axis=2).reshape(8, 16)
    rows, weights = np.zeros((4, 8), dtype=int), np.zeros((4, 8))
    for k, part in enumerate(parts):
        nz = np.flatnonzero(part)
        rows[: nz.size, k], weights[: nz.size, k] = nz % 4 * 4 + nz // 4, part[nz]
    return rows, weights


_COLUMN_TERMS = {ref: _column_terms(ref) for ref in _REF_LABEL}


def _reference_column(table: CorrelationTable, ref: tuple[int, int]):
    """Column rho[:, ref] of the output density matrix as a 2x2 array, and
    its diagonal element clipped to [0, 1], the population of ``ref``; one
    of each per row of a batch, each summed element-wise from the table as
    ``_column_terms(ref)`` lists, so batch rows and single tables agree bit
    for bit.  The state estimators read one pair; a wider table is a ValueError."""
    shape = table.entries.shape
    if shape[-2:] != (4, 4) or len(shape) != 2 + table.batched:
        raise ValueError(f"the state estimators read one pair, got a {shape} table")
    rows, weights = _COLUMN_TERMS[ref]
    terms = np.ascontiguousarray(table.entries.reshape(-1, 16).T)[rows] * weights[..., None]
    parts = (terms[0] + terms[1]) + (terms[2] + terms[3])
    col = np.ascontiguousarray(parts.T).view(complex).reshape(shape[:-2] + (2, 2))
    return col, np.minimum(np.maximum(col[(..., *ref)].real, 0.0), 1.0)


def _checked_column(table: CorrelationTable, ref: tuple[int, int]):
    col, p = _reference_column(table, ref)
    if low := np.count_nonzero(p < P_FLOOR):
        raise DegenerateReferenceError(
            f"reference element {_REF_LABEL[ref]} has population below the floor "
            f"{P_FLOOR:.1e} in {low} of {p.size} tables"
        )
    return col, p


def select_reference(table: CorrelationTable) -> tuple[int, int]:
    """The first pair in the order |01>, |10>, |11>, |00> whose population is
    at least 1/8.  The four populations of a table sum to 1, so one always
    qualifies.

    A batch of tables is a ValueError: its rows must share one reference,
    chosen by the caller.
    """
    if table.batched:
        raise ValueError("a batch of tables needs an explicit reference pair")
    return next(r for r in REFERENCE_ORDER if _reference_column(table, r)[1] >= _REFERENCE_MIN)


def reconstruct_state(
    table: CorrelationTable,
    reference: Optional[tuple[int, int]] = None,
) -> ReconstructionResult:
    """Coefficient matrix of a pure two-qubit state by linear inversion.

    With reference=None the reference is ``select_reference(table)``; a
    batch of tables needs an explicit reference.  A reference whose
    population is below P_FLOOR, in the table or in any row of a batch,
    raises DegenerateReferenceError.  The output is not renormalized; its
    norm is reported as a consistency diagnostic.
    """
    ref = select_reference(table) if reference is None else _check_reference(reference)
    col, p = _checked_column(table, ref)
    # psi[ref] = sqrt(p) > 0, since Pauli diagonals are real: the gauge needs no rotation
    psi = col / np.sqrt(p)[..., None, None]
    diagnostics = {}
    if not table.batched:
        norm = float(np.sum(np.abs(psi) ** 2))
        diagnostics = dict(p=float(p), reference=_REF_LABEL[ref], norm=norm)
    gauge = f"global phase fixed: element {_REF_LABEL[ref]} real non-negative"
    return ReconstructionResult("input_state", psi, gauge, diagnostics)


def _state_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """Phase-invariant overlap |<a|b>| of two coefficient matrices."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    return float(abs(np.sum(a.conj() * b)) / (na * nb))


def faithfulness_check(psi: BipartiteState):
    """Full-rank flag and condition number of a pure probe state."""
    sv = psi.singular_values
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    return FaithfulnessReport(full_rank=psi.full_rank, condition_number=cond)


@dataclass(frozen=True)
class FaithfulnessReport:
    full_rank: bool
    condition_number: float


def _require_faithful(psi_in: BipartiteState) -> float:
    report = faithfulness_check(psi_in)
    if not report.full_rank:
        raise UnfaithfulInputError(report.condition_number)
    return report.condition_number


_GAUGE_DET = "global phase fixed: determinant rotated real positive"
_GAUGE_MAX = "global phase fixed: largest element rotated real positive"
_GAUGE_MIXED = f"{_GAUGE_DET}; where |det| <= 1e-8, largest element rotated real positive"


def reconstruct_unitary(
    t_out: CorrelationTable,
    psi_in: BipartiteState,
    reference: Optional[tuple[int, int]] = None,
) -> ReconstructionResult:
    """Device matrix U from output correlations and a faithful probe state.

    The output coefficients M estimate U Psi up to a phase, so U = M
    Psi^{-1}.  The phase is fixed by rotating det(U) onto the positive real
    axis (principal branch), or, where |det U| <= 1e-8, the largest element;
    a batch chooses per row.  Unitarity of the result is reported as a
    diagnostic, never enforced.
    """
    cond = _require_faithful(psi_in)
    if psi_in.coeffs.shape != (2, 2):
        raise ValueError(f"the unitary estimator takes a one-pair probe, got {psi_in.coeffs.shape}")
    state = reconstruct_state(t_out, reference)
    # U = M Psi^{-1} and det U in closed form on a (B, 2, 2) stack, one row for
    # a single table, so no step falls to scalar arithmetic
    m, inv = state.matrix.reshape(-1, 2, 2), psi_in.coeffs_inverse
    u = m[:, :, :1] * inv[0] + m[:, :, 1:] * inv[1]
    # det U by one pivoted elimination step, the pivot the larger |re| + |im|
    # of column 0, as an LU factorization takes it (a zero column gives 0)
    size = np.abs(u[:, :, 0].real) + np.abs(u[:, :, 0].imag)
    swap = size[:, 1] > size[:, 0]
    (p, q), (r, s) = np.where(swap[:, None, None], u[:, ::-1], u).transpose(1, 2, 0)
    d = np.where(swap, -p, p) * (s - r / np.where(p == 0.0, 1.0, p) * q)
    by_det = np.abs(d) > 1e-8
    phase = np.exp(-0.5j * np.angle(d))
    gauge = _GAUGE_DET
    if not by_det.all():
        flat = u.reshape(-1, 4)
        big = flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=-1)]
        big_phase = np.where(np.abs(big) > 0.0, np.exp(-1j * np.angle(big)), 1.0)
        phase = np.where(by_det, phase, big_phase)
        gauge = _GAUGE_MAX if not by_det.any() else _GAUGE_MIXED
    u = u * phase[:, None, None]
    diagnostics = {}
    if not t_out.batched:
        # ||U^dag U - I|| of the one row: columns' squared norms less 1, twice their squared overlap
        sq = u.real**2 + u.imag**2
        norms = sq[:, 0] + sq[:, 1] - 1.0
        overlap = u[:, 0, 0].conj() * u[:, 0, 1] + u[:, 1, 0].conj() * u[:, 1, 1]
        overlap_sq = overlap.real**2 + overlap.imag**2
        deviation = np.sqrt(norms[:, 0] ** 2 + norms[:, 1] ** 2 + 2.0 * overlap_sq)
        diagnostics = dict(
            p=state.diagnostics["p"], reference=state.diagnostics["reference"],
            condition_number=cond, unitarity_deviation=float(deviation[0]),
        )
    u = u.reshape(state.matrix.shape)
    return ReconstructionResult("device_unitary", u, gauge, diagnostics)


def density_from_correlations(table: CorrelationTable) -> np.ndarray:
    """Output density matrix from the full Pauli expansion of the table.

    A (4,)*2n table gives the 4^n x 4^n matrix in the order (device arms,
    untouched arms); a batch gives one per row.  The matrix is Hermitian bit
    for bit: element (b, a) sums the conjugates of element (a, b)'s terms,
    in the same order, since the table is real.
    """
    k = table.entries.ndim - table.batched
    return pauli_expand(table.entries, batched=table.batched) / 2.0**k


def reconstruct_choi(
    t_out: CorrelationTable,
    psi_in: BipartiteState,
) -> ReconstructionResult:
    """Choi matrix of a general (possibly non-unitary) device.

    Stage 1 reconstructs the output density matrix rho with
    ``density_from_correlations``; stage 2 undoes the probe on the
    untouched arms, C = (I x (Psi^T)^{-1}) rho (I x (Psi^*)^{-1}), and
    rescales to trace d.  An n-qubit device is probed by n pairs, so the
    probe is ``pairs(...)`` of them and the table has shape (4,)*2n; a batch
    of tables gives one Choi matrix per row.  Coincidence-normalized data
    cannot recover the occurrence probability of a trace-decreasing device,
    so that scale is reported as unknown.
    """
    cond = _require_faithful(psi_in)
    psi = psi_in.coeffs
    d = len(psi)
    rho = density_from_correlations(t_out)
    if rho.shape[-1] != d * d:
        raise ValueError(f"a {t_out.entries.shape} table does not match a {psi.shape} probe")
    eye, inv = np.eye(d), np.linalg.inv  # full rank is checked above, by singular values
    choi = tensor(eye, inv(psi.T)) @ rho @ tensor(eye, inv(psi.conj()))
    choi = 0.5 * (choi + dagger(choi))
    tr = np.trace(choi, axis1=-2, axis2=-1).real
    if np.any(tr <= 0.0):
        raise DataError(f"reconstructed Choi matrix has non-positive trace {float(tr.min())!r}")
    choi *= (d / tr)[..., None, None]
    diagnostics = {}
    if not t_out.batched:
        eigs = np.linalg.eigvalsh(choi)
        diagnostics = dict(
            condition_number=cond, choi_eigenvalues=", ".join(f"{v:.12g}" for v in eigs),
            min_eigenvalue=float(eigs[0]), negativity=float(np.abs(eigs[eigs < 0.0]).sum()),
            occurrence_scale="unrecoverable from coincidence-normalized data",
        )
    gauge = f"Choi rescaled to trace {d} (deterministic-channel convention)"
    return ReconstructionResult("device_choi", choi, gauge, diagnostics)


def fidelity_unitary(a: np.ndarray, b: np.ndarray) -> float:
    """|Tr(A^dag B)| / d, invariant under global phases of either argument."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected matching square matrices, got {a.shape} and {b.shape}")
    return float(abs(np.trace(dagger(a) @ b)) / a.shape[0])


def distance_choi(c1: np.ndarray, c2: np.ndarray) -> float:
    """Half the trace norm of the difference of trace-normalized Choi matrices."""
    c1, c2 = np.asarray(c1), np.asarray(c2)
    if c1.shape != c2.shape or c1.ndim != 2 or c1.shape[0] != c1.shape[1]:
        raise ValueError(f"expected matching square matrices, got {c1.shape} and {c2.shape}")
    t1, t2 = np.trace(c1).real, np.trace(c2).real
    if abs(t1) < 1e-12 or abs(t2) < 1e-12:
        raise ValueError("Choi matrices must have non-zero trace")
    diff = c1 / t1 - c2 / t2
    diff = 0.5 * (diff + dagger(diff))
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def bootstrap_errors(
    events: np.ndarray,
    estimator: Callable[[CorrelationTable], np.ndarray],
    n_resamples: int = 1000,
    seed: int = 0,
) -> BootstrapErrors:
    """Nonparametric bootstrap error bars for any table-based estimator.

    Events are resampled with replacement within each setting (the
    per-setting outcome counts are the sufficient statistic, so resampling
    draws multinomial counts), the estimator re-runs with its own gauge
    fix, and the element-wise standard deviations of real and imaginary
    parts are reported separately.

    The estimator is called on all B resamples at once: it takes a
    CorrelationTable with a leading batch axis of B rows and returns an
    array of shape (B, ...), one estimate per row, such as
    ``lambda t: reconstruct_unitary(t, psi_in, ref).matrix`` with an
    explicit reference.  Every resample is kept: where the estimator
    degenerates on any row it raises DegenerateReferenceError, a DataError,
    and the bootstrap is refused, since replacing resamples would condition
    them and bias the error bars.  ``n_resamples`` and ``seed`` that
    BootstrapPlan refuses raise its PlanError, a ValueError.
    """
    return _bootstrap_counts(events_to_counts(events), estimator, BootstrapPlan(n_resamples, seed))


def _bootstrap_counts(
    counts: np.ndarray,
    estimator: Callable[[CorrelationTable], np.ndarray],
    plan: BootstrapPlan,
) -> BootstrapErrors:
    """``bootstrap_errors`` of the events whose (9, 4) count table is ``counts``."""
    totals = counts.sum(axis=1)
    if np.any(totals == 0):
        raise IncompleteQuorumError([SETTINGS[k] for k in np.flatnonzero(totals == 0)])
    probs = counts / totals[:, None]
    rng = np.random.default_rng([plan.seed])
    draws = np.stack(
        [rng.multinomial(totals[k], probs[k], size=plan.resamples) for k in range(len(SETTINGS))],
        axis=1,
    )
    try:
        stack = np.asarray(estimator(table_from_counts(draws)))
    except DegenerateReferenceError as exc:
        raise DegenerateReferenceError(f"bootstrap refused: {exc}") from None
    if stack.shape[:1] != (plan.resamples,):
        raise ValueError(
            f"estimator must return one estimate per resample, got shape {stack.shape}"
        )
    return BootstrapErrors(
        real=stack.real.std(axis=0, ddof=1),
        imag=stack.imag.std(axis=0, ddof=1),
        n_resamples=plan.resamples,
    )


# ---------------------------------------------------------------------------
# Two-qubit gates, and the two-pair output in register order (device qubit A,
# ancilla A, device qubit B, ancilla B), one detector pair per entangled pair.

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def two_pair_output_state(
    u4: np.ndarray, psi_a: BipartiteState, psi_b: BipartiteState
) -> np.ndarray:
    """16x16 output density matrix of a 2-qubit unitary fed by two pairs,
    in register order."""
    out = propagate(unitary_channel(u4), pairs(psi_a, psi_b))
    # (dev A, dev B, anc A, anc B) -> register order swaps the middle qubits
    return permute_qubits(out.density, (0, 2, 1, 3))


def correlations_4party(rho: np.ndarray) -> np.ndarray:
    """(4,4,4,4) table of four-qubit Pauli expectations of a 16x16 state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (16, 16):
        raise ValueError(f"expected a 16x16 density matrix, got {rho.shape}")
    return pauli_coefficients(rho)
