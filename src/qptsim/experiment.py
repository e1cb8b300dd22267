"""Forward model of the two-beam coincidence experiment.

The nine quorum settings pair one Pauli axis per beam.  For each setting
the joint outcome distribution follows from the two-point expectations of
the bipartite state; coincidence events are drawn from it with a seeded,
per-setting random substream so the output is reproducible and independent
of how many events the other settings were allocated.

Event log format (the ingestion boundary for offline analysis): a header
line ``# total=<N> seed=<seed> eta=<eta>`` followed by one line per
coincidence, ``axis1,axis2,s1,s2`` with axes as letters x|y|z and signs as
+1|-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .algebra import BipartiteState, pauli_coefficients
from .errors import DataError, IncompleteQuorumError


class MeasurementSetting(NamedTuple):
    axis1: int
    axis2: int


class EventRecord(NamedTuple):
    setting: MeasurementSetting
    s1: int
    s2: int


AXES = (1, 2, 3)
AXIS_LETTERS = {1: "x", 2: "y", 3: "z"}
LETTER_AXES = {v: k for k, v in AXIS_LETTERS.items()}

# Fixed enumeration order of the quorum settings and of the four joint
# outcomes within a setting; samplers and allocators rely on it.
SETTINGS = tuple(MeasurementSetting(a1, a2) for a1 in AXES for a2 in AXES)
OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

_PROB_CLIP = -1e-12
_LOSS_CHUNK = 4096


@dataclass(frozen=True)
class LossModel:
    """Equal per-detector efficiency; coincidences post-select double clicks."""

    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"detector efficiency must be in (0, 1], got {self.eta}")


@dataclass(frozen=True)
class ExperimentPlan:
    """How many coincidences to record per setting, and with which seed."""

    total: int
    allocation: Mapping[MeasurementSetting, int]
    seed: int
    loss: Optional[LossModel] = None

    def __post_init__(self):
        if self.total <= 0:
            raise ValueError(f"total coincidence count must be positive, got {self.total}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        alloc = dict(self.allocation)
        for s, n in alloc.items():
            if s not in SETTINGS:
                raise ValueError(f"unknown setting {s!r} in allocation")
            if n < 0:
                raise ValueError(f"negative allocation for setting {s}")
        if sum(alloc.values()) != self.total:
            raise ValueError("allocation does not sum to the total coincidence count")
        object.__setattr__(self, "allocation", alloc)

    @classmethod
    def uniform(cls, total: int, seed: int, loss: Optional[LossModel] = None) -> "ExperimentPlan":
        """Split the total equally; the remainder goes to the earliest settings."""
        base, rem = divmod(total, len(SETTINGS))
        alloc = {s: base + (1 if k < rem else 0) for k, s in enumerate(SETTINGS)}
        return cls(total=total, allocation=alloc, seed=seed, loss=loss)


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """4x4 table of tetra-indexed averages; entry (0,0) is 1 by convention.

    Rows index the beam-1 Pauli, columns the beam-2 Pauli; entries (i,0)
    and (0,j) are the single-beam marginals.  ``counts`` holds the number
    of events behind each empirical entry (all zero for exact tables).
    """

    entries: np.ndarray
    counts: Optional[np.ndarray] = None

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (4, 4):
            raise ValueError(f"correlation table must be 4x4, got {entries.shape}")
        if abs(entries[0, 0] - 1.0) > 1e-12:
            raise ValueError("entry (0,0) of a correlation table must be 1")
        if np.max(np.abs(entries)) > 1.0 + 1e-9:
            raise ValueError("correlation entries must lie in [-1, 1]")
        counts = self.counts
        if counts is None:
            counts = np.zeros((4, 4), dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (4, 4) or np.any(counts < 0):
            raise ValueError("counts must be a 4x4 non-negative integer table")
        entries.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "counts", counts)


def exact_correlations(state: BipartiteState) -> CorrelationTable:
    """Full 4x4 table of exact expectations (counts all zero)."""
    t = pauli_coefficients(state.density)
    t[0, 0] = 1.0  # identical to 1 for any normalized state
    return CorrelationTable(entries=t)


# Signs of the four joint outcomes, in OUTCOMES order.
_S1 = np.array([o[0] for o in OUTCOMES])
_S2 = np.array([o[1] for o in OUTCOMES])
_A1 = np.array([s.axis1 for s in SETTINGS])
_A2 = np.array([s.axis2 for s in SETTINGS])


def _setting_probs(state: BipartiteState) -> np.ndarray:
    """(9, 4) joint outcome probabilities, rows in SETTINGS order.

    P(s1, s2) = (1 + s1 <sigma_a1> + s2 <sigma_a2> + s1 s2 <sigma_a1 sigma_a2>) / 4.
    """
    t = exact_correlations(state).entries
    m1 = t[_A1, 0][:, None]
    m2 = t[0, _A2][:, None]
    c12 = t[_A1, _A2][:, None]
    p = 0.25 * (1.0 + _S1 * m1 + _S2 * m2 + (_S1 * _S2) * c12)
    if p.min() < _PROB_CLIP:
        raise ValueError(f"outcome probability {p.min()!r} is negative beyond clipping tolerance")
    p = np.maximum(p, 0.0)
    return p / p.sum(axis=1, keepdims=True)


def joint_probs(state: BipartiteState, setting: MeasurementSetting) -> dict[tuple[int, int], float]:
    """Joint outcome probabilities P(s1, s2) for one quorum setting."""
    a1, a2 = setting
    if a1 not in AXES or a2 not in AXES:
        raise ValueError(f"setting axes must be in 1..3, got {setting!r}")
    row = _setting_probs(state)[SETTINGS.index((a1, a2))]
    return {o: float(p) for o, p in zip(OUTCOMES, row)}


def run_experiment(state: BipartiteState, plan: ExperimentPlan) -> list[EventRecord]:
    """Draw coincidence events for every allocated setting.

    Each setting uses its own substream seeded by (plan.seed, setting
    index), so the draw for one setting is unaffected by the allocation of
    the others.  With a loss model, physical trials are generated and only
    those where both photons survive are recorded; the recorded statistics
    are unchanged because detection is independent of the outcome.
    """
    if all(plan.allocation.get(s, 0) == 0 for s in SETTINGS):
        raise ValueError("plan allocates zero events to every setting")
    eta = plan.loss.eta if plan.loss is not None else 1.0
    probs = _setting_probs(state)
    events: list[EventRecord] = []
    for idx, setting in enumerate(SETTINGS):
        n = plan.allocation.get(setting, 0)
        if n == 0:
            continue
        rng = np.random.default_rng([plan.seed, idx])
        pvec = probs[idx]
        if eta >= 1.0:
            cats = rng.choice(4, size=n, p=pvec)
        else:
            kept: list[np.ndarray] = []
            total = 0
            while total < n:
                trial = rng.choice(4, size=_LOSS_CHUNK, p=pvec)
                detected = (rng.random(_LOSS_CHUNK) < eta) & (rng.random(_LOSS_CHUNK) < eta)
                keep = trial[detected]
                kept.append(keep)
                total += keep.size
            cats = np.concatenate(kept)[:n]
        events.extend(EventRecord(setting, *OUTCOMES[c]) for c in cats)
    return events


def events_to_counts(events: Iterable[EventRecord]) -> np.ndarray:
    """(9, 4) table of outcome counts per setting, in fixed enumeration order."""
    counts = np.zeros((len(SETTINGS), 4), dtype=np.int64)
    setting_index = {s: k for k, s in enumerate(SETTINGS)}
    outcome_index = {o: k for k, o in enumerate(OUTCOMES)}
    for ev in events:
        try:
            si = setting_index[ev.setting]
            oi = outcome_index[(ev.s1, ev.s2)]
        except KeyError:
            raise ValueError(f"malformed event record {ev!r}") from None
        counts[si, oi] += 1
    return counts


def table_from_counts(counts: np.ndarray) -> CorrelationTable:
    """Empirical correlation table from per-setting outcome counts.

    Marginal entries pool every event that measured the given axis on the
    given beam, regardless of the partner axis.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (len(SETTINGS), 4):
        raise ValueError(f"expected a {len(SETTINGS)}x4 count table, got {counts.shape}")
    per_setting = counts.sum(axis=1)
    missing = [SETTINGS[k] for k in range(len(SETTINGS)) if per_setting[k] == 0]
    if missing:
        raise IncompleteQuorumError(missing)

    entries = np.zeros((4, 4))
    n_table = np.zeros((4, 4), dtype=np.int64)
    entries[0, 0] = 1.0
    n_table[0, 0] = int(per_setting.sum())
    for k, (a1, a2) in enumerate(SETTINGS):
        entries[a1, a2] = float((counts[k] * _S1 * _S2).sum()) / per_setting[k]
        n_table[a1, a2] = per_setting[k]
    for a1 in AXES:
        rows = [k for k, s in enumerate(SETTINGS) if s.axis1 == a1]
        n = per_setting[rows].sum()
        entries[a1, 0] = float((counts[rows] * _S1).sum()) / n
        n_table[a1, 0] = n
    for a2 in AXES:
        rows = [k for k, s in enumerate(SETTINGS) if s.axis2 == a2]
        n = per_setting[rows].sum()
        entries[0, a2] = float((counts[rows] * _S2).sum()) / n
        n_table[0, a2] = n
    return CorrelationTable(entries=entries, counts=n_table)


def correlations_from_events(events: Sequence[EventRecord]) -> CorrelationTable:
    """Empirical table of s1*s2 averages and pooled marginals."""
    return table_from_counts(events_to_counts(events))


def write_event_log(path, events: Sequence[EventRecord], seed: int, eta: float = 1.0) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# total={len(events)} seed={seed} eta={eta!r}\n")
        for ev in events:
            fh.write(
                f"{AXIS_LETTERS[ev.setting.axis1]},{AXIS_LETTERS[ev.setting.axis2]},"
                f"{ev.s1:+d},{ev.s2:+d}\n"
            )


def read_event_log(path) -> tuple[list[EventRecord], dict]:
    """Parse an event log; malformed lines are reported with their number."""
    events: list[EventRecord] = []
    with open(path, "r", encoding="ascii") as fh:
        header_line = fh.readline()
        if not header_line.startswith("#"):
            raise DataError(f"{path}: line 1: missing '# total=... seed=... eta=...' header")
        header = {}
        try:
            for tok in header_line[1:].split():
                key, val = tok.split("=", 1)
                header[key] = val
            header = {
                "total": int(header["total"]),
                "seed": int(header["seed"]),
                "eta": float(header["eta"]),
            }
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}: line 1: malformed header ({exc})") from None
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) != 4:
                    raise ValueError("expected 4 comma-separated fields")
                a1, a2 = LETTER_AXES[parts[0]], LETTER_AXES[parts[1]]
                s1, s2 = int(parts[2]), int(parts[3])
                if s1 not in (-1, 1) or s2 not in (-1, 1):
                    raise ValueError("signs must be +1 or -1")
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}: line {lineno}: {exc}: {line!r}") from None
            events.append(EventRecord(MeasurementSetting(a1, a2), s1, s2))
    if header["total"] != len(events):
        raise DataError(
            f"{path}: header announces {header['total']} events but {len(events)} were read"
        )
    return events, header
