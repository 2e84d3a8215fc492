"""Qubit-cavity composite: antenna pickup, coupling rates, the dressed
spectrum of the low excitation sectors, and dispersive parameters.

Coupling chain for each (cavity mode k, qubit q, transition j -> j+1):

    V_RX  = (1/2) * l * (l_hat . E_k(r0))        (dipole receiving voltage)
    V_t   = C_ant / (C_ant + C_L) * V_RX         (capacitive divider)
    g_kj  = 2e * |<j|n|j+1>| * sqrt(omega_k / (2*eps0*hbar)) * V_t

with E_k the unit-normalized mode field.  All couplings are real (the -i
phase of the charge matrix elements is a removable gauge), so the
rotating-wave Hamiltonian

    H = sum_q sum_j E_qj |j><j|_q + sum_k omega_k a_k^dag a_k
        + sum_{k,q,j} g[k,q,j] (|j><j+1|_q a_k^dag + h.c.)

is a real symmetric matrix in the bare product basis; energies are angular
frequencies (rad/s).  Basis ordering is qubits first, then cavity modes, each
truncated to the same local dimension; labels are tuples
(q_0, ..., q_{nq-1}, c_0, ..., c_{nc-1}).

Every coupling term conserves the total excitation number N (sum of all
occupations), so H is block diagonal in N.  The dispersive energies live in
the sectors N <= 2, whose labels are the occupation tuples of total <= 2 with
every entry below the local dimension: 1 + S + S(S+1)/2 states for
S = qubits + modes once n_levels >= 3, whatever n_levels is.
:func:`sector_spectra` builds and diagonalizes only those blocks, for a whole
sweep at once: each sector's blocks of all its points form one stack and go
through one ``eigh`` call, and every point gets the values it would get alone.
Dressed states are labeled by greedy maximum-overlap assignment and flagged
when the winning overlap is not above 1/2 (hybridization too strong for the
label to mean anything).
A sweep stays arrays from its inputs to its read-out:
:func:`dipole_center_fields` samples the fields at many dipoles (centers,
axes, lengths) in one :func:`eval_fields` call per mode,
:func:`transition_couplings` turns the per-qubit arrays of a sweep into its
rates g[p, k, q, j] in one expression, :func:`sector_spectra` returns the
energies and overlaps [point, label] with the labels once, and
:func:`dispersive_columns` reads omega01, alpha, chi, zeta and the flags of
every point from the read-out labels' columns.  :class:`QubitInstance` with
:func:`coupling_matrix` gives one point's rates, and ``spectra[p]`` point p's
:class:`DressedSpectrum`.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .cavity import CavityGeometry, CavityMode, eval_fields
from .constants import E_CHARGE, EPS0, HBAR
from .errors import FieldVariationWarning
from .transmon import DipoleSpec, TransmonSpectrum

#: Relative spread of the axial field over the dipole that triggers
#: :class:`FieldVariationWarning` for the point-sample receiving voltage.
FIELD_VARIATION_TOLERANCE = 0.05

#: A dressed label is flagged when its best overlap is <= FLAG_THRESHOLD +
#: FLAG_BOUNDARY_SLACK (the slack catches exact 50/50 hybridization despite
#: roundoff).
FLAG_THRESHOLD = 0.5
FLAG_BOUNDARY_SLACK = 1e-9

#: Largest N = 2 block :func:`sector_spectra` fills, and its square bounds the
#: entries of each stacked ``eigh`` call: 8,192 states make a 512 MiB float64
#: matrix, and ``eigh`` holds about five arrays of that size at once (its
#: input, its own copy, LAPACK's workspace of two, the eigenvectors).
MAX_SECTOR_STATES = 8192


@dataclass(frozen=True)
class QubitInstance:
    """A dipole-antenna transmon placed in the cavity: geometry, diagonalized
    spectrum, and the two capacitances of the input divider (farads); the
    one-point input of :func:`coupling_matrix`, which checks the capacitances."""

    dipole: DipoleSpec
    spectrum: TransmonSpectrum
    c_ant: float
    c_load: float


def first_misplaced_dipole(centers, axes, lengths, geom: CavityGeometry):
    """``(index, tip)`` of the first dipole, in C order over the leading axes
    of ``centers`` [..., 3], with a tip outside the cavity box, and that tip
    (m) as a tuple of floats; None when every tip lies inside.  ``axes``
    [..., 3] are unit vectors and ``lengths`` [...] tip-to-tip lengths."""
    offset = (0.5 * np.asarray(lengths, dtype=float))[..., None] * axes
    tips = np.stack([centers - offset, centers + offset], axis=-2)  # [..., tip, xyz]
    outside = (tips < 0.0) | (tips > (geom.a, geom.b, geom.d))
    if not outside.any():
        return None
    bad = outside.any(axis=(-2, -1))
    index = np.unravel_index(np.argmax(bad), bad.shape)
    return (tuple(int(i) for i in index),
            tuple(tips[index][np.argmax(outside[index].any(axis=-1))].tolist()))


@dataclass(frozen=True)
class SystemBasis:
    """Product basis of ``n_qubits`` + ``n_cavities`` subsystems, each truncated
    to ``n_levels`` local states, qubits first."""

    n_qubits: int
    n_cavities: int
    n_levels: int

    def __post_init__(self) -> None:
        if self.n_qubits < 0 or self.n_cavities < 0:
            raise ValueError("subsystem counts must be >= 0")
        if self.n_qubits + self.n_cavities == 0:
            raise ValueError("need at least one subsystem")
        if self.n_levels < 2:
            raise ValueError("n_levels must be >= 2")

    @property
    def n_sites(self) -> int:
        return self.n_qubits + self.n_cavities

    def index_of(self, label: Sequence[int]) -> int:
        label = tuple(int(x) for x in label)
        if len(label) != self.n_sites:
            raise ValueError(f"label must have {self.n_sites} entries")
        if any(x < 0 or x >= self.n_levels for x in label):
            raise ValueError(f"label {label} outside local dimension {self.n_levels}")
        return int(np.ravel_multi_index(label, (self.n_levels,) * self.n_sites))


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Real coupling rates g[k, q, j] (rad/s) for cavity k, qubit q,
    qubit transition j -> j+1."""

    g: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.g, dtype=float)
        if arr.ndim != 3:
            raise ValueError("g must have shape (n_cavities, n_qubits, n_levels-1)")
        object.__setattr__(self, "g", arr)


def dipole_center_fields(centers, axes, lengths, mode: CavityMode,
                         geom: CavityGeometry) -> np.ndarray:
    """Unit-normalized E vectors [dipole, xyz] of the mode at the centers
    [dipole, xyz] of dipoles with unit axes [dipole, xyz] and tip-to-tip
    lengths [dipole], from one :func:`eval_fields` call over all of them.

    Samples the axial field at five points along each wire and warns with
    :class:`FieldVariationWarning`, once per dipole, where it varies by more
    than 5% (the point-sample receiving voltage then misrepresents the
    triangular-current average).  :func:`eval_fields` is pointwise, so each
    dipole's field is bitwise the one it gets alone.
    """
    axes = np.asarray(axes, dtype=float).reshape(-1, 3)
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    lengths = np.asarray(lengths, dtype=float).reshape(-1)
    fractions = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    points = (centers[:, None]
              + fractions[None, :, None] * axes[:, None] * lengths[:, None, None])
    e_field, _ = eval_fields(mode, geom, points)
    axial = (e_field * axes[:, None]).sum(axis=-1)
    center_val = axial[:, 2]
    spread = np.abs(axial - center_val[:, None]).max(axis=1)
    reference = np.maximum(np.abs(center_val), np.abs(axial).max(axis=1))
    for s, r in zip(spread.tolist(), reference.tolist()):
        if r > 0.0 and s > FIELD_VARIATION_TOLERANCE * r:
            warnings.warn(
                f"mode field varies by {s / r:.1%} along the dipole; "
                "point-sample receiving voltage is inaccurate "
                "(compare receiving_voltage_line_integral)", FieldVariationWarning,
                stacklevel=2)
    return e_field[:, 2]


def receiving_voltage_line_integral(dipole: DipoleSpec, mode: CavityMode,
                                    geom: CavityGeometry, n_samples: int = 201) -> float:
    """Triangular-current receiving voltage
    integral of (1 - 2|s|/l) * (l_hat . E) ds over s in [-l/2, l/2]
    (midpoint rule); reduces to the point-sample form for a uniform field.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    axis = np.asarray(dipole.orientation)
    center = np.asarray(dipole.center)
    half = 0.5 * dipole.length
    ds = dipole.length / n_samples
    s = -half + (np.arange(n_samples) + 0.5) * ds
    points = center + np.outer(s, axis)
    e_field, _ = eval_fields(mode, geom, points)
    axial = e_field @ axis
    weights = 1.0 - 2.0 * np.abs(s) / dipole.length
    return float(np.sum(weights * axial) * ds)


def transition_couplings(elements, c_ant, c_load, lengths, axes, fields,
                         cavity_omegas: Sequence[float]) -> np.ndarray:
    """Coupling rates g[p, k, q, j] (rad/s) of transition j -> j+1 of qubit q
    of point p to mode k, for a stack of P points of Q qubits:
    ((2e * |<j|n|j+1>|) * sqrt(omega_k/(2*eps0*hbar))) * (divider * V_RX)
    elementwise, so no point depends on the stack.

    ``elements`` [p, q, j] are the charge elements |<j|n|j+1>|, ``c_ant``,
    ``c_load`` and ``lengths`` [p, q] the divider's capacitances (F) and the
    dipoles' tip-to-tip lengths (m), ``axes`` [p, q, xyz] their unit axes,
    and ``fields`` [p, k, q, xyz] the unit-normalized E vectors at their
    centers (analytic or external).  An input that is the same at every
    point may drop its point axis, e.g. ``c_ant`` [q]; with every point axis
    dropped, the result is the one point's g[k, q, j].  ValueError names the
    first capacitance that is not positive and finite."""
    c_ant, c_load = np.asarray(c_ant, dtype=float), np.asarray(c_load, dtype=float)
    for name, value in (("c_ant", c_ant), ("c_load", c_load)):
        bad = value[~((value > 0.0) & (value < math.inf))]  # also catches NaN
        if bad.size:
            raise ValueError(f"{name} must be positive and finite, got {bad[0].item()!r}")
    divider = c_ant / (c_ant + c_load)
    half_length = 0.5 * np.asarray(lengths, dtype=float)
    axes = np.asarray(axes, dtype=float)
    # l_hat . E: one matmul dot per (p, k, q), bitwise `E @ l_hat` of one vector
    dot = (np.asarray(fields, dtype=float)[..., None, :]
           @ axes[..., None, :, :, None])[..., 0, 0]
    rate = np.sqrt(np.asarray(cavity_omegas, dtype=float) / (2.0 * EPS0 * HBAR))
    return (2.0 * E_CHARGE * np.asarray(elements, dtype=float)[..., None, :, :]
            * rate[:, None, None]
            * (divider[..., None, :] * (half_length[..., None, :] * dot))[..., None])


def coupling_matrix(qubits: Sequence[QubitInstance], modes: Sequence[CavityMode],
                    geom: CavityGeometry, n_levels: int) -> CouplingMatrix:
    """All g[k, q, j] for j = 0..n_levels-2 of one set of qubits: the
    one-point :func:`transition_couplings`, with the fields of each mode at
    all the dipoles from one :func:`dipole_center_fields` call.  ValueError
    when a spectrum lacks n_levels-1 charge elements."""
    m = n_levels - 1
    for q, qubit in enumerate(qubits):
        if len(qubit.spectrum.charge_elements) < m:
            raise ValueError(f"qubit {q} spectrum has "
                             f"{len(qubit.spectrum.charge_elements)} charge elements; "
                             f"need {m}")
    centers = np.array([qubit.dipole.center for qubit in qubits], dtype=float)
    axes = np.array([qubit.dipole.orientation for qubit in qubits], dtype=float)
    lengths = np.array([qubit.dipole.length for qubit in qubits])
    fields = [dipole_center_fields(centers, axes, lengths, mode, geom) for mode in modes]
    return CouplingMatrix(g=transition_couplings(
        np.abs([qubit.spectrum.charge_elements[:m] for qubit in qubits]),
        [qubit.c_ant for qubit in qubits], [qubit.c_load for qubit in qubits],
        lengths, axes, np.reshape(fields, (len(modes), len(qubits), 3)),
        [mode.omega for mode in modes]))


@dataclass(frozen=True, eq=False)
class DressedSpectrum:
    """Dressed states labeled by bare product states via greedy maximum
    overlap: one point of a :class:`SectorSpectra`.

    ``levels`` maps each solved label, in basis order, to its dressed energy
    (rad/s) and the squared overlap of its eigenvector with the bare state:
    the labels of the sectors N <= 2."""

    basis: SystemBasis
    levels: dict = field(repr=False)

    def _level(self, label: Sequence[int]) -> tuple[float, float]:
        try:
            return self.levels[label]
        except (KeyError, TypeError):  # a miss, or an unhashable list/array
            key = tuple(int(x) for x in label)
            if key in self.levels:
                return self.levels[key]
            self.basis.index_of(key)  # raises for a label outside the basis
            raise ValueError(
                f"label {key} has excitation number {sum(key)}; this spectrum "
                f"holds only the sectors N <= {max(map(sum, self.levels))}") from None

    def energy(self, label: Sequence[int]) -> float:
        """Dressed energy (rad/s) of the state labeled by ``label``."""
        return self._level(label)[0]

    def overlap(self, label: Sequence[int]) -> float:
        """Squared overlap of the labeled eigenvector with its bare state."""
        return self._level(label)[1]

    def is_flagged(self, label: Sequence[int]) -> bool:
        return self.overlap(label) <= FLAG_THRESHOLD + FLAG_BOUNDARY_SLACK

    def flagged(self) -> tuple[tuple[int, ...], ...]:
        """Labels whose identification is unreliable, in basis order."""
        return tuple(lbl for lbl in self.levels if self.is_flagged(lbl))


class SectorSpectra:
    """Dressed spectra of the sectors N <= 2 of a stack of points, as
    :func:`sector_spectra` returns them: one column per label of ``labels``
    (basis order), with the dressed energies (rad/s) in ``energy`` and the
    squared overlaps with the bare states in ``overlap``, both [point, label].
    ``spectra[p]`` is point p's :class:`DressedSpectrum`."""

    __slots__ = ("basis", "labels", "energy", "overlap")

    def __init__(self, basis: SystemBasis, labels: tuple[tuple[int, ...], ...],
                 energy: np.ndarray, overlap: np.ndarray) -> None:
        self.basis, self.labels, self.energy, self.overlap = basis, labels, energy, overlap

    def __getitem__(self, point: int) -> DressedSpectrum:
        return DressedSpectrum(self.basis, dict(zip(
            self.labels, zip(self.energy[point].tolist(), self.overlap[point].tolist()))))


def _greedy_assign(overlap2: np.ndarray) -> np.ndarray:
    """Eigenvector index assigned to each bare state of ``overlap2``
    [..., bare index, eigen index] (squared overlaps of square blocks, with
    any number of leading stack axes).

    Visits all (bare state, eigenvector) pairs of a block in order of
    decreasing squared overlap (ties broken by bare-then-eigen index for
    determinism) and accepts a pair when both members are still unassigned,
    so every bare state gets exactly one eigenvector.

    A pair that is the only one above 1/2 in its row and in its column
    exceeds every other entry of both, so that visit accepts it whatever came
    before:
    all such pairs of the whole stack are assigned at once, and only the
    remaining rows and columns of the blocks that have any go through the
    loop.  Where every bare state keeps most of its weight in one
    eigenvector, nothing remains.
    """
    dim = overlap2.shape[-1]
    stack = overlap2.reshape(-1, dim, dim)
    above = stack > 0.5
    eig = above.argmax(axis=2)
    sure = ((above.sum(axis=2) == 1)
            & (above.sum(axis=1)[np.arange(len(stack))[:, None], eig] == 1))
    if sure.all():
        return eig.reshape(overlap2.shape[:-1])
    bare_assigned = np.where(sure, eig, -1)
    for block in np.flatnonzero(~sure.all(axis=1)).tolist():
        rows = np.flatnonzero(~sure[block])
        free = np.ones(dim, dtype=bool)
        free[eig[block, sure[block]]] = False
        cols = np.flatnonzero(free)
        # the submatrix keeps the (bare, eigen) order of its entries, so ties
        # break as they would in the whole matrix
        n_rest = rows.size
        order = np.argsort(-stack[block][np.ix_(rows, cols)], axis=None, kind="stable")
        row_taken = np.zeros(n_rest, dtype=bool)
        col_taken = np.zeros(n_rest, dtype=bool)
        remaining = n_rest
        for flat in order:
            r, c = divmod(int(flat), n_rest)
            if row_taken[r] or col_taken[c]:
                continue
            bare_assigned[block, rows[r]] = cols[c]
            row_taken[r] = col_taken[c] = True
            remaining -= 1
            if remaining == 0:
                break
    return bare_assigned.reshape(overlap2.shape[:-1])


class _Sector(NamedTuple):
    """One excitation-number block of a :class:`_SectorLayout`: the slots of
    its labels in basis order, and its coupling entries in block-local
    indices.  Entry i puts g[k[i], q[i], j[i]] * amplitude[i] at
    (src[i], dst[i]) and at (dst[i], src[i]); amplitude is sqrt(n_k + 1)."""

    rows: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    k: np.ndarray
    q: np.ndarray
    j: np.ndarray
    amplitude: np.ndarray


class _SectorLayout(NamedTuple):
    """The labels of total occupation <= 2 in basis order, their occupations
    [label, site], and the blocks N = 0, 1, 2."""

    labels: tuple[tuple[int, ...], ...]
    occ: np.ndarray
    sectors: tuple[_Sector, _Sector, _Sector]


def _n2_sector_size(n_sites: int, n_levels: int) -> int:
    """States of the N = 2 sector: one per pair of sites, plus one per site
    holding both excitations when the local dimension allows it."""
    return n_sites * (n_sites - 1) // 2 + (n_sites if n_levels >= 3 else 0)


@functools.lru_cache(maxsize=16)
def _sector_layout(n_qubits: int, n_cavities: int, n_levels: int) -> _SectorLayout:
    """Labels and coupling pattern of the sectors N <= 2, which depend only
    on the shape of the basis.  Every term g |j><j+1| a_k^dag conserves N, so
    each coupling entry lies inside one block.  The arrays are read-only:
    every caller with the same shape shares them."""
    n_sites = n_qubits + n_cavities
    eye = np.eye(n_sites, dtype=int)
    first, second = np.triu_indices(n_sites)
    occ = np.vstack([np.zeros_like(eye[:1]), eye, eye[first] + eye[second]])
    occ = occ[occ.max(axis=1) < n_levels]
    occ = occ[np.lexsort(occ.T[::-1])]  # basis order: lexicographic
    labels = tuple(map(tuple, occ.tolist()))
    position = {label: i for i, label in enumerate(labels)}
    # lower qubit q by one level, add one photon to mode k
    src, q, k = np.nonzero((occ[:, :n_qubits, None] >= 1)
                           & (occ[:, None, n_qubits:] + 1 < n_levels))
    targets = occ[src] - eye[q] + eye[n_qubits + k]
    dst = np.array([position[lbl] for lbl in map(tuple, targets.tolist())], dtype=int)
    j = occ[src, q] - 1
    amplitude = np.sqrt(occ[src, n_qubits + k] + 1.0)
    n_exc = occ.sum(axis=1)
    local = np.empty(len(occ), dtype=int)
    sectors = []
    for n in range(3):
        rows = np.flatnonzero(n_exc == n)
        local[rows] = np.arange(len(rows))
        inside = n_exc[src] == n
        sectors.append(_Sector(rows, local[src[inside]], local[dst[inside]], k[inside],
                               q[inside], j[inside], amplitude[inside]))
    for arr in (occ, *(a for sector in sectors for a in sector)):
        arr.setflags(write=False)
    return _SectorLayout(labels, occ, tuple(sectors))


def sector_spectra(levels, cavity_omegas: Sequence[float], couplings,
                   basis: SystemBasis) -> SectorSpectra:
    """Dressed spectra of the excitation-number sectors N <= 2, the sectors
    of every state :func:`dispersive_columns` reads, for a stack of P points
    that share the basis and the cavity frequencies.

    ``levels`` [p, q, n] holds each point's transmon levels (rad/s, n below
    the basis' local dimension) and ``couplings`` [p, k, q, j] its coupling
    rates g[k, q, j].  Uses the terms of H (module docstring) on the labels
    of total occupation <= 2: the diagonal is the ground-referenced qubit
    levels plus sum_k omega_k n_k, and g[k,q,j] * sqrt(n_k + 1) couples
    (q = j+1, n_k) with (q = j, n_k + 1).  Each sector's blocks of all the
    points are filled as one (P, n, n) stack, diagonalized by one
    ``np.linalg.eigh`` call (the same LAPACK routine on every block; a block
    of one state is already diagonal) and
    labeled by :func:`_greedy_assign`, so an eigenvector never mixes sectors
    and a point's spectrum does not depend on the stack it is solved in.
    Points are solved in chunks whose blocks hold at most
    :data:`MAX_SECTOR_STATES` ** 2 entries per ``eigh`` call, and the result
    holds the energies and overlaps [point, label] in point order.  Inputs
    that do not match the basis, and a basis whose N = 2 block would exceed
    :data:`MAX_SECTOR_STATES`, raise ValueError before anything is allocated.
    """
    n_q, n_c, m = basis.n_qubits, basis.n_cavities, basis.n_levels
    levels = np.asarray(levels, dtype=float)
    g = np.asarray(couplings, dtype=float)
    if levels.ndim != 3 or levels.shape[1] != n_q or len(cavity_omegas) != n_c:
        raise ValueError("qubit/cavity counts must match the basis")
    if levels.shape[2] != m:
        raise ValueError(f"levels hold {levels.shape[2]} per qubit; basis needs {m}")
    if g.shape[1:] != (n_c, n_q, m - 1):
        raise ValueError(f"couplings shape {g.shape[1:]} does not match "
                         f"basis ({n_c}, {n_q}, {m - 1})")
    if len(g) != len(levels):
        raise ValueError(f"{len(levels)} points of levels but {len(g)} of couplings")
    size = _n2_sector_size(basis.n_sites, m)
    if size > MAX_SECTOR_STATES:
        raise ValueError(
            f"{n_c} cavity mode(s) and {n_q} qubit(s) make an N = 2 "
            f"block of {size} states ({size**2 * 8 / 2**20:.0f} MiB as float64); "
            f"the sector solver holds at most {MAX_SECTOR_STATES} states: "
            "use fewer cavity modes")
    layout = _sector_layout(n_q, n_c, m)
    occ = layout.occ
    largest = max(len(sector.rows) for sector in layout.sectors)
    per_chunk = max(1, MAX_SECTOR_STATES**2 // largest**2)
    energies = np.empty((len(levels), len(occ)))
    overlaps = np.empty_like(energies)
    for start in range(0, len(levels), per_chunk):
        chunk = slice(start, start + per_chunk)
        n_points = len(levels[chunk])
        point = np.arange(n_points)[:, None]
        diag = np.zeros((n_points, len(occ)))
        for q in range(n_q):
            local = levels[chunk, q] - levels[chunk, q, :1]
            diag = diag + local[:, occ[:, q]]
        for k, omega_k in enumerate(cavity_omegas):
            diag = diag + omega_k * occ[:, n_q + k]
        for rows, src, dst, k, q, j, amplitude in layout.sectors:
            n = len(rows)
            if n <= 1:  # N = 0, or N = 2 of one two-level site: already diagonal
                energies[chunk, rows] = diag[:, rows]
                overlaps[chunk, rows] = 1.0
                continue
            blocks = np.zeros((n_points, n, n))
            blocks.reshape(n_points, n * n)[:, ::n + 1] = diag[:, rows]  # diagonals
            blocks[:, src, dst] = blocks[:, dst, src] = g[chunk, k, q, j] * amplitude
            values, vectors = np.linalg.eigh(blocks)
            overlap2 = np.square(vectors, out=vectors)
            assigned = _greedy_assign(overlap2)
            energies[chunk, rows] = values[point, assigned]
            overlaps[chunk, rows] = overlap2[point, np.arange(n), assigned]
    return SectorSpectra(basis, layout.labels, energies, overlaps)


class DispersiveColumns(NamedTuple):
    """:func:`dispersive_columns` of a stack: arrays over the points (rad/s)
    and the read-out labels once; ``flagged`` [point, label] marks the labels
    at or below the threshold, ``min_label_overlap`` [point] is the smallest
    overlap over them."""

    omega01: np.ndarray
    alpha: np.ndarray | None
    omega_cavity: np.ndarray
    chi: np.ndarray
    zeta: np.ndarray | None
    labels: tuple[tuple[int, ...], ...]
    flagged: np.ndarray
    min_label_overlap: np.ndarray


@functools.lru_cache(maxsize=64)
def _readout(basis: SystemBasis, qubit: int, cavity: int,
             qubit_pair: tuple[int, int] | None) -> tuple[tuple, dict[str, int]]:
    """``(labels, column)``: the labels :func:`dispersive_columns` reads,
    distinct and in reading order, and the index in ``labels`` of each named
    one: ground, q1, c1, q1c1, then q2 from three levels on, then a1, b1, ab
    for a qubit pair (a, b).  ValueError for an index outside the basis.
    The result is shared by every caller: do not change ``column``."""
    if not 0 <= qubit < basis.n_qubits:
        raise ValueError(f"qubit index {qubit} outside basis")
    if not 0 <= cavity < basis.n_cavities:
        raise ValueError(f"cavity index {cavity} outside basis")

    def label(*sites: int) -> tuple[int, ...]:
        """One excitation per listed site; qubits first, then modes."""
        return tuple(sites.count(site) for site in range(basis.n_sites))

    c = basis.n_qubits + cavity
    named = {"ground": label(), "q1": label(qubit), "c1": label(c),
             "q1c1": label(qubit, c)}
    if basis.n_levels >= 3:
        named["q2"] = label(qubit, qubit)
    if qubit_pair is not None:
        qa, qb = qubit_pair
        if qa == qb or not all(0 <= x < basis.n_qubits for x in (qa, qb)):
            raise ValueError(f"invalid qubit pair {qubit_pair}")
        named.update(a1=label(qa), b1=label(qb), ab=label(qa, qb))
    labels = tuple(dict.fromkeys(named.values()))
    return labels, {name: labels.index(lbl) for name, lbl in named.items()}


def dispersive_columns(spectra: SectorSpectra, qubit: int = 0, cavity: int = 0,
                       qubit_pair: Sequence[int] | None = None) -> DispersiveColumns:
    """Dispersive parameters of every point of ``spectra`` from its
    ground-referenced dressed energies, one operation per quantity over the
    columns of the read-out labels:

        omega01 = E(q=1) - E(0)
        alpha   = E(q=2) - 2*E(q=1) + E(0)          (None when n_levels < 3)
        omega_c = E(c=1) - E(0)
        chi     = E(q=1,c=1) - E(q=1) - E(c=1) + E(0)
        zeta    = E(qa=1,qb=1) - E(qa=1) - E(qb=1) + E(0)   (when a pair is given)

    each evaluated left to right, so a point's values do not depend on the
    stack; they are returned whatever the labels' overlaps."""
    labels, column = _readout(spectra.basis, qubit, cavity,
                              None if qubit_pair is None else tuple(qubit_pair))
    position = {label: i for i, label in enumerate(spectra.labels)}
    columns = [position[lbl] for lbl in labels]
    energy, overlap = spectra.energy[:, columns], spectra.overlap[:, columns]
    e = {name: energy[:, i] for name, i in column.items()}
    e0, e_q1 = e["ground"], e["q1"]
    return DispersiveColumns(
        omega01=e_q1 - e0,
        alpha=e["q2"] - 2.0 * e_q1 + e0 if "q2" in e else None,
        omega_cavity=e["c1"] - e0,
        chi=e["q1c1"] - e_q1 - e["c1"] + e0,
        zeta=e["ab"] - e["a1"] - e["b1"] + e0 if "ab" in e else None,
        labels=labels,
        flagged=overlap <= FLAG_THRESHOLD + FLAG_BOUNDARY_SLACK,
        min_label_overlap=overlap.min(axis=1))
