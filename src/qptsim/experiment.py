"""Forward model of the two-beam coincidence experiment.

The nine quorum settings pair one Pauli axis per beam.  One linear map,
``_CELL_MAP``, takes a correlation table to the joint outcome probabilities
of every setting, and its transpose takes outcome counts back to a table.
Coincidence events are drawn with a seeded, per-setting random substream so
the output is reproducible and independent of how many events the other
settings were allocated.

With detector loss, each setting's stream is read as chunks of trials, each
chunk three rows of uniforms (outcome, beam-1, beam-2).  Every row is either
drawn or, where few of its uniforms are needed, jumped: the generator is
advanced past it and the needed uniforms are computed from the PCG64 state.
Both give the same events.

Events: a run's coincidences are one 1-D ``np.uint8`` array of cell codes
``c = 4*k + o``, where ``k`` indexes the setting in ``SETTINGS`` and ``o``
the joint outcome in ``OUTCOMES``, so ``c`` runs over 0..35.  The sampler
emits the codes in setting order together with the (9, 4) table of
per-setting outcome counts, their sufficient statistic, which it counts
while it inverts the uniforms; for codes from elsewhere the table is
``bincount(codes).reshape(9, 4)`` (``events_to_counts``).

Event log format (the ingestion boundary for offline analysis): a header
line ``# total=<N> seed=<seed> eta=<eta>`` followed by one line per
coincidence, ``axis1,axis2,s1,s2`` with axes as letters x|y|z and signs as
+1|-1; these 36 spellings are the only ones read back.  Every line ends in
``1\n``, so the writer renders a line as its first 8 bytes, one uint64 word,
into a buffer pre-filled with lines; the reader reads the file once, in text
mode, in chunks completed to a line end, and decodes a chunk that re-renders
to the same bytes as one byte array.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from .algebra import BipartiteState, pauli_coefficients
from .errors import DataError, IncompleteQuorumError, PlanError, shown, shown_path


AXES = (1, 2, 3)
AXIS_LETTERS = {1: "x", 2: "y", 3: "z"}


class MeasurementSetting(NamedTuple):
    axis1: int
    axis2: int

    def __str__(self) -> str:
        """The setting by its axis letters, such as 'xz'."""
        return AXIS_LETTERS[self.axis1] + AXIS_LETTERS[self.axis2]


# Fixed enumeration order of the quorum settings and of the four joint
# outcomes within a setting; samplers and allocators rely on it.
SETTINGS = tuple(MeasurementSetting(a1, a2) for a1 in AXES for a2 in AXES)
OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_N_CELLS = len(SETTINGS) * len(OUTCOMES)

# Event-log line of each cell code; the tables below render it, _LINE_CODES inverts it.
_LINES = tuple(f"{','.join(str(s))},{s1:+d},{s2:+d}\n" for s in SETTINGS for s1, s2 in OUTCOMES)
_LINE_CODES = {line.strip().encode("ascii"): c for c, line in enumerate(_LINES)}
_SPACE = bytes(c for c in range(128) if chr(c).isspace())  # the ASCII bytes str.strip() strips
# The same lines as a (36, 10) byte table, one row per cell code.
_LINE_BYTES = np.frombuffer("".join(_LINES).encode("ascii"), dtype=np.uint8)
_LINE_BYTES = _LINE_BYTES.reshape(_N_CELLS, -1)
# The first 8 bytes of each line as one native uint64 word; the last two, "1\n",
# are the same in every line.  A line of a byte buffer is one _LINE_RECORD.
_LINE_HEADS = _LINE_BYTES[:, :8].copy().view(np.uint64).ravel()
_LINE_RECORD = np.dtype(dict(names=["head"], formats=[np.uint64], itemsize=_LINE_BYTES.shape[1]))
# Digit of each byte a valid line holds at its axis and sign columns: x|y|z
# -> 0|1|2 and +|- -> 0|1, so a line's code is 12*a1 + 4*a2 + 2*s1 + s2.
# Every other byte maps to 0; the reader's re-encode check rejects it.
_BYTE_DIGITS = np.zeros(256, dtype=np.uint8)
_BYTE_DIGITS[list(b"xyz-")] = (0, 1, 2, 1)
# Events the sampler, the counter, the log writer and the array reader handle
# at a time; bounds their working memory.
_CHUNK_LINES = 1 << 14

_PROB_CLIP = -1e-12
# Trials per loss chunk; each chunk takes three rows of this many uniforms
# from its setting's stream: outcome, beam-1 and beam-2.
_LOSS_CHUNK = 4096
# A loss chunk's row is jumped (passed over, with only the uniforms the
# sampler needs computed from the PCG64 state) when it is read at fewer than
# 1 in _JUMP_COST of its trials, and drawn otherwise: a jumped uniform, with
# its share of the per-chunk and per-setting work, costs about 15-16 drawn
# ones.  The outcome row is read at eta**2 of its trials and the beam-2 row
# at eta, so they are jumped below eta 0.25 and 0.0625; the crossovers
# measured for each row (CPU time, 50,000 events, 9-11 interleaved runs on a
# 2-core host) were 0.25 and about 0.065.
_JUMP_COST = 16
# Uniforms the lossy sampler draws per block of loss chunks (512 KB); twice
# this ran no faster at eta 0.1 or 0.03.
_LOSS_BLOCK_DOUBLES = 1 << 16

# numpy's PCG64 steps its 128-bit LCG state s -> A*s + inc before each 64-bit
# output (O'Neill 2014), so k steps give A_k*s + inc*G_k with A_k = A**k and
# G_k = A**0 + ... + A**(k-1) (Brown 1994).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


# Bounds on a sampled run, checked when its plan is made, before any sampling
# starts.  Memory grows with total by the one-byte code of each event (the
# sampler, counter and log writer work in bounded chunks); time grows with the
# trials the lossy sampler draws, about total / eta**2.  The largest accepted
# run, fig3 with total = 1e7 at eta = 0.1, took 12 s and 51 MB peak RSS
# through the CLI on a 2-core host, and wrote a 100 MB log.
MAX_TOTAL = 10**7
MAX_TRIALS = 10**9
# Largest plan or bootstrap seed: seeds fit in 64 unsigned bits, so a huge
# integer is refused rather than hashed in full by SeedSequence.
MAX_SEED = 2**64 - 1


def _check_integer(field: str, what: str, v) -> None:
    """Refuse ``v`` unless it is an integer; numpy integers pass, bools do not."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise PlanError((field,), f"{what} must be an integer, got {shown(v)}")


def _check_seed(field: str, seed) -> None:
    """Refuse ``seed`` unless it is an integer from 0 to MAX_SEED."""
    _check_integer(field, "the seed", seed)
    if not 0 <= seed <= MAX_SEED:
        bound = "least 0" if seed < 0 else f"most {MAX_SEED} (64 unsigned bits)"
        raise PlanError((field,), f"must be at {bound}, got {shown(seed)}")


@dataclass(frozen=True)
class LossModel:
    """Equal per-detector efficiency; coincidences post-select double clicks."""

    eta: float

    def __post_init__(self):
        eta = self.eta
        if isinstance(eta, bool) or not isinstance(eta, numbers.Real) or not 0.0 < eta <= 1.0:
            raise PlanError(("eta",), f"efficiency must be a number in (0, 1], got {shown(eta)}")
        object.__setattr__(self, "eta", float(eta))


@dataclass(frozen=True)
class ExperimentPlan:
    """How many coincidences to record per setting, and with which seed.

    A bad plan, or one over MAX_TOTAL or MAX_TRIALS, raises PlanError."""

    total: int
    allocation: Mapping[MeasurementSetting, int]
    seed: int
    loss: Optional[LossModel] = None

    def __post_init__(self):
        _check_integer("total", "the coincidence count", self.total)
        _check_seed("seed", self.seed)
        if not 0 < self.total <= MAX_TOTAL:
            raise PlanError(("total",), f"must be 1 to {MAX_TOTAL}, got {shown(self.total)}")
        if not isinstance(self.allocation, Mapping):
            raise PlanError(("allocation",), f"expected a mapping, got {shown(self.allocation)}")
        alloc = dict(self.allocation)
        for s, n in alloc.items():
            if s not in SETTINGS:
                raise PlanError(("allocation",), f"unknown setting {shown(s)}")
            what = f"the count of setting {s}"
            _check_integer("allocation", what, n)
            if n < 0:
                raise PlanError(("allocation",), f"{what} must be at least 0, got {shown(n)}")
        if sum(alloc.values()) != self.total:
            raise PlanError(("allocation",), f"the counts must sum to total ({self.total})")
        if self.loss is not None and not isinstance(self.loss, LossModel):
            raise PlanError(("loss",), f"expected a LossModel or None, got {shown(self.loss)}")
        trials = self.total / self.eta / self.eta  # eta**2 can underflow to 0.0
        if trials > MAX_TRIALS:
            raise PlanError(
                ("total", "eta"),
                f"{self.total} coincidences at efficiency {self.eta} need about "
                f"{trials:.4g} trials, more than the cap of {MAX_TRIALS:.0e}",
            )
        object.__setattr__(self, "allocation", alloc)

    @property
    def eta(self) -> float:
        """The per-detector efficiency: the loss model's, or 1.0 without one."""
        return self.loss.eta if self.loss is not None else 1.0

    @classmethod
    def uniform(cls, total: int, seed: int, loss: Optional[LossModel] = None) -> "ExperimentPlan":
        """Split the total equally; the remainder goes to the earliest settings."""
        _check_integer("total", "the coincidence count", total)
        base, rem = divmod(total, len(SETTINGS))
        alloc = {s: base + (1 if k < rem else 0) for k, s in enumerate(SETTINGS)}
        return cls(total=total, allocation=alloc, seed=seed, loss=loss)


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Table of tetra-indexed averages; entry (0,..,0) is 1 by convention.

    For n pairs the shape is (4,)*2n, the n device-arm Pauli indices first
    and the n untouched-arm ones after.  One pair gives a 4x4 table whose
    rows index the beam-1 Pauli and columns the beam-2 Pauli; entries (i,0)
    and (0,j) are the single-beam marginals.

    A batch of B tables has shape (B,) + (4,)*2n.  An unbatched table always
    has an even number of axes, so an odd number means axis 0 is the batch.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        k = entries.ndim - entries.ndim % 2
        if k == 0 or entries.shape[entries.ndim - k :] != (4,) * k:
            raise ValueError(
                f"correlation table must have shape (4,)*2n or (B,)+(4,)*2n, got {entries.shape}"
            )
        if np.any(np.abs(entries[(..., *(0,) * k)] - 1.0) > 1e-12):
            raise ValueError("entry (0,..,0) of a correlation table must be 1")
        if not np.all(np.abs(entries) <= 1.0 + 1e-9):  # False for NaN as well
            raise ValueError("correlation entries must be finite and lie in [-1, 1]")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def batched(self) -> bool:
        """Whether axis 0 indexes a batch of tables."""
        return self.entries.ndim % 2 == 1


def exact_correlations(state: BipartiteState) -> CorrelationTable:
    """Full table of exact expectations, shape (4,)*2n for n pairs."""
    t = pauli_coefficients(state.density)
    t[(0,) * t.ndim] = 1.0  # identical to 1 for any normalized state
    return CorrelationTable(entries=t)


# The measurement, as one (36, 16) map from table entries (column 4*i + j:
# entry (i, j)) to cells (row 4*k + o: setting k, outcome o): setting (a1, a2)
# with outcome (s1, s2) adds 1 to (0, 0), s1 to (a1, 0), s2 to (0, a2) and
# s1*s2 to (a1, a2).  A table t has the cell probabilities _CELL_MAP @ t / 4;
# cell counts c give back the table (c @ _CELL_MAP) / (c @ _CELL_WEIGHTS).
_CELL_MAP = np.zeros((_N_CELLS, 4, 4))
for _c, ((_a1, _a2), (_s1, _s2)) in enumerate((k, o) for k in SETTINGS for o in OUTCOMES):
    _CELL_MAP[_c, [0, _a1, 0, _a1], [0, 0, _a2, _a2]] = 1, _s1, _s2, _s1 * _s2
_CELL_MAP = _CELL_MAP.reshape(_N_CELLS, 16)
_CELL_WEIGHTS = np.abs(_CELL_MAP)
_SETTING_ENTRIES = np.array([4 * a1 + a2 for a1, a2 in SETTINGS])  # each setting's own entry


def _cell_probs(table: CorrelationTable) -> np.ndarray:
    """(9, 4) outcome probabilities of a one-pair table, rows in SETTINGS order."""
    if table.entries.shape != (4, 4):
        raise ValueError(f"the sampler models one pair, got a {table.entries.shape} table")
    p = (_CELL_MAP @ table.entries.reshape(16) / 4).reshape(len(SETTINGS), len(OUTCOMES))
    if p.min() < _PROB_CLIP:
        raise ValueError(f"outcome probability {p.min()!r} is negative beyond clipping tolerance")
    p = np.maximum(p, 0.0)
    return p / p.sum(axis=1, keepdims=True)


def joint_probs(state: BipartiteState, setting: MeasurementSetting) -> dict[tuple[int, int], float]:
    """Joint outcome probabilities P(s1, s2) for one quorum setting."""
    a1, a2 = setting
    if a1 not in AXES or a2 not in AXES:
        raise ValueError(f"setting axes must be in 1..3, got {setting!r}")
    row = _cell_probs(exact_correlations(state))[SETTINGS.index((a1, a2))]
    return {o: float(p) for o, p in zip(OUTCOMES, row)}


def _invert_cdf(cdf: np.ndarray, u: np.ndarray, out: np.ndarray, reached: list) -> None:
    """Write into ``out`` the outcome each uniform in ``u`` draws from ``cdf``,
    and add to ``reached[o]`` how many of them drew outcome o or above, for
    o = 1, 2, 3.

    Generator.choice inverts ``cdf = p.cumsum(); cdf /= cdf[-1]`` from the
    right, i.e. counts the cdf entries ``<= u``; ``cdf[3]`` is exactly 1.0
    and never ``<= u``, so three comparisons give the same outcome.  The
    comparison with ``cdf[o - 1]`` marks the uniforms that reach outcome o.
    """
    # a bool view of out: count_nonzero counts bools faster than bytes
    reached[1] += np.count_nonzero(np.less_equal(cdf[0], u, out=out.view(np.bool_)))
    for o in (2, 3):
        at_least = cdf[o - 1] <= u
        reached[o] += np.count_nonzero(at_least)
        out += at_least


@functools.cache
def _jump_table():
    """Limbs of A_k and G_k for k = 1..3L, and A_3L and G_3L as ints, by the steps
    A <- A*M and G <- G*M + 1 mod 2**128 (M = _PCG64_MULT) from A_0 = 1 and G_0 = 0
    in Python ints; run once per process, on the first jumped draw, not at import."""
    a_lo, a_hi, g_lo, g_hi = (np.empty(3 * _LOSS_CHUNK, dtype=np.uint64) for _ in range(4))
    a, g = 1, 0
    for k in range(3 * _LOSS_CHUNK):
        a, g = a * _PCG64_MULT & _MASK128, (g * _PCG64_MULT + 1) & _MASK128
        a_lo[k], a_hi[k], g_lo[k], g_hi[k] = a & _MASK64, a >> 64, g & _MASK64, g >> 64
    return (a_lo, a_hi), (g_lo, g_hi), (a, g)


def _mul128(a_lo, a_hi, b_lo, b_hi) -> tuple[np.ndarray, np.ndarray]:
    """Limbs of a*b mod 2**128 for 128-bit a, b held as uint64 limb arrays.

    The high word of a_lo*b_lo comes from 32-bit partial products; sums
    are taken in place, which keeps few temporaries for the sampler's
    arrays of a few thousand.
    """
    a0, a1 = a_lo & 0xFFFFFFFF, a_lo >> 32
    b0, b1 = b_lo & 0xFFFFFFFF, b_lo >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = a0 * b0
    mid >>= 32
    mid += p01 & 0xFFFFFFFF
    mid += p10 & 0xFFFFFFFF
    mid >>= 32
    hi = a1 * b1
    hi += p01 >> 32
    hi += p10 >> 32
    hi += mid
    hi += a_lo * b_hi
    hi += a_hi * b_lo
    return a_lo * b_lo, hi


def _stream_jumps(inc: int, span: int):
    """Jumps of the PCG64 stream with increment ``inc``.

    Returns the limbs of A_k and inc*G_k for k = 1..span, which
    ``_jumped_uniforms`` takes, and the step of one loss chunk,
    s -> A_3L*s + inc*G_3L, as a pair of ints.
    """
    (a_lo, a_hi), (g_lo, g_hi), (a_chunk, g_chunk) = _jump_table()
    inc_lo, inc_hi = np.uint64(inc & _MASK64), np.uint64(inc >> 64)
    c_lo, c_hi = _mul128(g_lo[:span], g_hi[:span], inc_lo, inc_hi)
    return (a_lo[:span], a_hi[:span], c_lo, c_hi), (a_chunk, inc * g_chunk & _MASK128)


def _jumped_uniforms(s_lo, s_hi, k, jumps) -> np.ndarray:
    """The uniforms ``Generator.random`` draws k draws after PCG64 states s.

    Each state s (limb arrays, one entry per k) steps k+1 times to
    A*s + C, with A and C read from ``jumps`` (``_stream_jumps``), and
    gives its XSL-RR output as ``(raw >> 11) * 2**-53``.
    """
    a_lo, a_hi, c_lo, c_hi = jumps
    lo, hi = _mul128(a_lo.take(k), a_hi.take(k), s_lo, s_hi)
    c = c_lo.take(k)
    lo += c
    hi += lo < c  # carry out of the low word
    hi += c_hi.take(k)
    # XSL-RR: the xor of the two words, rotated right by the top 6 bits
    lo ^= hi
    rot = hi
    rot >>= 58
    raw = lo >> rot
    np.subtract(64, rot, out=rot)
    rot &= 63
    lo <<= rot
    raw |= lo
    raw >>= 11
    return raw * 2.0**-53


def _sample_lossy(
    rng: np.random.Generator, cdf: np.ndarray, eta: float, out: np.ndarray, reached: list
) -> None:
    """Fill ``out`` with the outcomes the three-row loss loop draws, counted
    into ``reached`` as ``_invert_cdf`` counts them.

    A loss chunk's rows are read at a known share of its trials: the beam-1
    row at all of them, the beam-2 row at eta and the outcome row at eta**2.
    A row read at fewer than 1 in _JUMP_COST of its trials is jumped: passed
    over with ``advance``, only the uniforms of the trials that reach it
    computed from the chunk's start state.  The other rows, which are
    contiguous since beam-1 is always drawn, are drawn a block of chunks at
    a time, sized from the expected yield.  The survivors are held, as
    outcome uniforms or as (state, offset) pairs, until about _CHUNK_LINES
    of them can be inverted at once.  A block may draw past the last chunk
    the loop would draw; the generator is not used after.
    """
    L = _LOSS_CHUNK
    # outcome, beam-1 and beam-2 rows, in stream order
    drawn = [r for r, share in enumerate((eta * eta, 1.0, eta)) if share >= 1 / _JUMP_COST]
    first, rows = drawn[0], len(drawn)
    jumped_beam2 = first + rows < 3
    if first:
        bitgen = rng.bit_generator
        state = bitgen.state["state"]
        s = state["state"]
        jumps, (a_chunk, c_chunk) = _stream_jumps(state["inc"], 3 * L if jumped_beam2 else L)
    block = np.empty((_LOSS_BLOCK_DOUBLES // (rows * L), rows, L))
    n, filled = out.size, 0
    held, n_held = [], 0
    skip = first * L  # up to the first chunk's first drawn row
    while filled < n:
        m = min(len(block), math.ceil((n - filled - n_held) / (L * eta * eta)))
        if not first:
            rng.random(out=block[:m])  # every row drawn: the chunks are one run
        else:
            starts = []
            for chunk_rows in block[:m]:
                starts.append(s)
                s = (a_chunk * s + c_chunk) & _MASK128
                bitgen.advance(skip)
                rng.random(out=chunk_rows)
                skip = (3 - rows) * L  # up to the next chunk's first drawn row
        fired = block[:m, 1 - first] < eta
        if not jumped_beam2:
            fired &= block[:m, 2 - first] < eta
        if not first:
            kept = (block[:m, 0][fired],)
        else:
            chunk, k = np.divmod(np.flatnonzero(fired), L)
            s_lo = np.array([v & _MASK64 for v in starts], dtype=np.uint64).take(chunk)
            s_hi = np.array([v >> 64 for v in starts], dtype=np.uint64).take(chunk)
            if jumped_beam2:
                both = _jumped_uniforms(s_lo, s_hi, k + 2 * L, jumps) < eta
                s_lo, s_hi, k = s_lo[both], s_hi[both], k[both]
            kept = (s_lo, s_hi, k)
        held.append(kept)
        n_held += kept[-1].size
        if n_held >= _CHUNK_LINES or filled + n_held >= n:
            parts = [np.concatenate(p)[: n - filled] for p in zip(*held)]
            u = _jumped_uniforms(*parts, jumps) if first else parts[0]
            _invert_cdf(cdf, u, out[filled : filled + u.size], reached)
            filled += u.size
            held, n_held = [], 0


def run_experiment(state: BipartiteState, plan: ExperimentPlan) -> np.ndarray:
    """Draw coincidence events for every allocated setting, as cell codes.

    Each setting uses its own substream seeded by (plan.seed, setting
    index), so the draw for one setting is unaffected by the allocation of
    the others.  With a loss model, physical trials are generated and only
    those where both photons survive are recorded; the recorded statistics
    are unchanged because detection is independent of the outcome.

    The stream is that of ``rng.choice(4, n, p=probs)`` per setting; the
    uniforms are drawn and inverted in chunks straight into the codes.
    With loss it is that of one such call and two ``rng.random`` calls per
    trial chunk: an outcome row, a beam-1 row and a beam-2 row.  A row
    read at fewer than 1 in _JUMP_COST of its trials is jumped, any other
    drawn (``_sample_lossy``).
    """
    return _sample(state, plan)[0]


def _sample(state: BipartiteState, plan: ExperimentPlan) -> tuple[np.ndarray, np.ndarray]:
    """``run_experiment``'s codes and their (9, 4) counts table, counted as drawn.

    Row k of ``reached`` holds how many of setting k's events drew outcome
    o or above, for o = 0..4; differenced once it is the row of counts.
    """
    eta = plan.eta
    # each row is Generator.choice's cdf of that setting's probabilities
    cdfs = _cell_probs(exact_correlations(state)).cumsum(axis=1)
    cdfs /= cdfs[:, -1:]
    codes = np.empty(plan.total, dtype=np.uint8)
    reached = []
    end = 0
    for idx, setting in enumerate(SETTINGS):
        n = plan.allocation.get(setting, 0)
        row = [n] + [0] * len(OUTCOMES)
        reached.append(row)
        if n == 0:
            continue
        out = codes[end : end + n]
        end += n
        # the stream of np.random.default_rng([plan.seed, idx]), named in full
        # because the lossy sampler relies on PCG64's state arithmetic;
        # numpy.random is loaded on this first use, not at import
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([plan.seed, idx])))
        cdf = cdfs[idx]
        if eta >= 1.0:
            for a in range(0, n, _CHUNK_LINES):
                u = rng.random(min(_CHUNK_LINES, n - a))
                _invert_cdf(cdf, u, out[a : a + u.size], row)
        else:
            _sample_lossy(rng, cdf, eta, out, row)
        out += 4 * idx
    reached = np.array(reached, dtype=np.int64)
    return codes, reached[:, :-1] - reached[:, 1:]


def _cell_codes(events) -> np.ndarray:
    """The events as a 1-D integer array, checked to hold cell codes only."""
    codes = np.asarray(events)
    if codes.ndim == 1 and codes.size == 0:
        return codes.astype(np.uint8)  # an empty list arrives as float64
    if (
        codes.ndim != 1
        or codes.dtype.kind not in "iu"
        or codes.min() < 0
        or codes.max() >= _N_CELLS
    ):
        raise ValueError(
            f"events must be a 1-D integer array of cell codes 0..{_N_CELLS - 1}, "
            f"got shape {codes.shape} dtype {codes.dtype}"
        )
    return codes


def events_to_counts(events: np.ndarray) -> np.ndarray:
    """(9, 4) table of outcome counts per setting, in fixed enumeration order."""
    codes = _cell_codes(events)
    counts = np.zeros(_N_CELLS, dtype=np.int64)
    # bincount casts its input to intp; a chunk at a time bounds that copy
    for a in range(0, codes.size, _CHUNK_LINES):
        counts += np.bincount(codes[a : a + _CHUNK_LINES], minlength=_N_CELLS)
    return counts.reshape(len(SETTINGS), len(OUTCOMES))


def table_from_counts(counts: np.ndarray) -> CorrelationTable:
    """Empirical correlation table from per-setting outcome counts.

    Marginal entries pool every event that measured the given axis on the
    given beam, regardless of the partner axis.  Flattened counts c give the
    flattened table ``(c @ _CELL_MAP) / (c @ _CELL_WEIGHTS)``: sums of whole
    counts, exact in float64, divided once.  A (B, 9, 4) stack of count
    tables gives a batch of B tables.
    """
    counts = np.asarray(counts)
    if counts.ndim not in (2, 3) or counts.shape[-2:] != (len(SETTINGS), 4):
        raise ValueError(
            f"expected a {len(SETTINGS)}x4 count table or a stack of them, got {counts.shape}"
        )
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
    if (counts < 0).any():
        raise ValueError("counts must be at least 0")
    c = counts.reshape(-1, _N_CELLS).astype(float)
    den = c @ _CELL_WEIGHTS
    empty = (den[:, _SETTING_ENTRIES] == 0).any(axis=0)
    if empty.any():
        raise IncompleteQuorumError([SETTINGS[k] for k in np.flatnonzero(empty)])
    return CorrelationTable(entries=((c @ _CELL_MAP) / den).reshape(counts.shape[:-2] + (4, 4)))


def correlations_from_events(events: np.ndarray) -> CorrelationTable:
    """Empirical table of s1*s2 averages and pooled marginals."""
    return table_from_counts(events_to_counts(events))


def write_file(path, first: bytes, rest: Iterable[bytes] = ()) -> None:
    """Make ``first`` (non-empty) and then the ``rest`` chunks the content of ``path``.

    Each chunk is written before the next is taken from ``rest``, so the
    chunks may share one buffer.

    An existing file is overwritten in place and cut to length, not truncated
    to zero first: ext4 writes a file that was truncated to zero and
    rewritten back to disk as soon as it is closed, and truncating it again
    can wait on that write, so every rewrite of an output paid a disk write
    of all of it and freed and refilled its page cache.  On a seekable file
    the first byte goes in last, over a newline: an interrupted rewrite
    leaves a blank first line, which the event-log and result-document
    readers reject, not a mix of the old and new bytes.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        seekable = fh.seekable()
        fh.write(b"\n" + first[1:] if seekable else first)
        for chunk in rest:
            fh.write(chunk)
        if seekable:
            if os.fstat(fh.fileno()).st_size > fh.tell():
                fh.truncate()
            fh.seek(0)
            fh.write(first[:1])


def _line_buffer() -> np.ndarray:
    """A byte buffer of _CHUNK_LINES event-log lines, to render into."""
    return np.tile(_LINE_BYTES[0], _CHUNK_LINES)


def _render_lines(codes: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The event-log lines of ``codes``, rendered into the start of ``buf``, a
    ``_line_buffer()``, and returned as that slice of it.

    Only each line's head word is written: the buffer already ends every line
    in the two bytes all lines share.  The writer and the reader render a chunk
    at a time into one buffer they reuse.
    """
    out = buf[: codes.size * _LINE_BYTES.shape[1]]
    # a contiguous take and one strided copy; a take straight into the field is slower
    out.view(_LINE_RECORD)["head"] = _LINE_HEADS.take(codes, mode="clip")
    return out


def write_event_log(path, events: np.ndarray, seed: int, eta: float = 1.0) -> None:
    codes = _cell_codes(events).astype(np.uint8, copy=False)  # checked to be 0..35
    header = f"# total={codes.size} seed={int(seed)} eta={float(eta)!r}\n".encode("ascii")
    buf = _line_buffer()
    # each chunk is written before the next is rendered over it
    body = (
        _render_lines(codes[a : a + _CHUNK_LINES], buf) for a in range(0, codes.size, _CHUNK_LINES)
    )
    write_file(path, header, body)


def read_event_log(path) -> tuple[np.ndarray, dict]:
    """Parse an event log into cell codes and its header, reading the file once.

    The file is read in text mode: lines end at ``\\r\\n``, ``\\r`` or ``\\n`` and
    are ``str.strip``-ped; blank lines are skipped.  Every failure is a DataError
    naming the file: an unreadable path, a non-ASCII byte (first, when its chunk of
    about _CHUNK_LINES lines also holds a malformed line), or a malformed line, by number."""
    buf = _line_buffer()
    chunks, lineno = [np.empty(0, dtype=np.uint8)], 1
    try:
        with open(path, encoding="ascii", newline=None) as fh:
            header = _parse_header(path, fh.readline())
            while text := fh.read(buf.size):  # the writer's lines fill every read
                if not text.endswith("\n"):
                    text += fh.readline()  # to the end of the line the read cut
                codes, lineno = _line_codes(path, text.encode("ascii"), lineno, buf)
                chunks.append(codes)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise DataError(f"{shown_path(path)}: non-ASCII byte 0x{bad:02x} in event log") from None
    except OSError as exc:
        reason = exc.strerror or exc
        raise DataError(f"{shown_path(path)}: cannot read event log: {reason}") from None
    codes = np.concatenate(chunks)
    if codes.size != (total := header["total"]):
        raise DataError(
            f"{shown_path(path)}: header announces {total} events but {codes.size} were read"
        )
    return codes, header


def _parse_header(path, line: str) -> dict:
    if not line.startswith("#"):
        raise DataError(
            f"{shown_path(path)}: line 1: missing '# total=... seed=... eta=...' header"
        )
    header = {}
    try:
        for tok in line[1:].split():
            key, val = tok.split("=", 1)
            header[key] = val
        return {"total": int(header["total"]), "seed": int(header["seed"]),
                "eta": float(header["eta"])}
    except (KeyError, ValueError) as exc:
        raise DataError(f"{shown_path(path)}: line 1: malformed header ({exc})") from None


def _line_codes(path, text: bytes, lineno: int, buf: np.ndarray) -> tuple[np.ndarray, int]:
    """The codes of ``text``, ASCII lines ended by ``\\n`` (a file's last perhaps not)
    after line ``lineno``, and the number of its last line.  Lines the writer's
    renderer reproduces are decoded as one byte array; others one at a time."""
    width = _LINE_BYTES.shape[1]
    lines = np.frombuffer(text, dtype=np.uint8)
    # text longer than buf (a read completed to the end of its last line) goes line by line
    if lines.size % width == 0 and lines.size <= buf.size:
        rows = lines.reshape(-1, width)
        a1, a2, s1, s2 = (_BYTE_DIGITS.take(rows[:, col]) for col in (0, 2, 4, 7))
        codes = 12 * a1 + 4 * a2 + 2 * s1 + s2
        if np.array_equal(_render_lines(codes, buf), lines):
            return codes, lineno + codes.size
    codes = bytearray()
    for lineno, line in enumerate(text.splitlines(), start=lineno + 1):
        if line := line.strip(_SPACE):
            if (code := _LINE_CODES.get(line)) is None:
                raise DataError(
                    f"{shown_path(path)}: line {lineno}: expected x|y|z,x|y|z,+1|-1,+1|-1: "
                    f"{shown(line.decode('ascii'))}"
                )
            codes.append(code)
    return np.frombuffer(codes, dtype=np.uint8), lineno
